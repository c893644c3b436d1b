import dataclasses
import math

import numpy as np
import pytest

from roconvex.core import MatrixShape, SampledField, grid_spec, gradient_field, sample
from roconvex.corpus import (
    FunctionHandle,
    abs_entry,
    constant,
    frob_norm,
    half_norm_sq,
    linear,
    neg_det,
)
from roconvex import envelope
from roconvex.envelope import (
    cone_convolutions,
    cone_touch_check,
    envelope_idempotence_gap,
    envelope_lipschitz_violation,
    sandwich_check,
    second_order_remainder,
    touch_set,
)
from roconvex.paraboloid import theta_field

S1 = MatrixShape(1, 1)
S22 = MatrixShape(2, 2)
S22_SYM = MatrixShape(2, 2, symmetric=True)


def abs_field(points=13, radius=0.75):
    return sample(frob_norm(S1), grid_spec(S1, radius, points, "cube"))


def test_constant_source_fixed_point():
    src = sample(constant(3.0, S1), grid_spec(S1, 0.75, 9, "cube"))
    pair = cone_convolutions(src, 2.0)
    m = pair.w_minus.mask
    assert np.allclose(pair.w_minus.values[m], 3.0)
    assert np.allclose(pair.w_plus.values[m], 3.0)


def test_lipschitz_source_untouched_when_L_dominates():
    src = abs_field()
    pair = cone_convolutions(src, 1.0)
    m = pair.w_minus.mask
    assert np.array_equal(pair.w_minus.values[m], src.values[m])
    assert np.array_equal(pair.w_plus.values[m], src.values[m])


def test_small_L_flattens_and_matches_double_loop():
    src = abs_field()
    pair = cone_convolutions(src, 0.5, output_radius=0.75)
    coords = src.node_coords().ravel()
    yv = src.valid_coords().ravel()
    fv = src.valid_values()
    # independent reference by explicit double loop
    ref_lo = np.array([min(fv[k] + 0.5 * abs(x - yv[k]) for k in range(yv.size)) for x in coords])
    ref_hi = np.array([max(fv[k] - 0.5 * abs(x - yv[k]) for k in range(yv.size)) for x in coords])
    m = pair.w_minus.mask
    assert np.array_equal(pair.w_minus.values[m], ref_lo[m])
    assert np.array_equal(pair.w_plus.values[m], ref_hi[m])
    mid = coords.size // 2
    assert pair.w_minus.values[mid] == 0.0


def test_order_lipschitz_idempotence():
    src = abs_field()
    for L in (0.5, 1.0, 3.0):
        pair = cone_convolutions(src, L)
        rep = sandwich_check(pair)
        assert rep.global_order_violation <= 1e-12
        assert envelope_lipschitz_violation(pair.w_minus, L) <= 1e-12
        assert envelope_lipschitz_violation(pair.w_plus, L) <= 1e-12
        assert envelope_idempotence_gap(pair) <= 1e-12


def test_idempotence_rejects_mismatched_masks():
    pair = cone_convolutions(abs_field(), 1.0)
    mask = pair.w_plus.mask.copy()
    mask[np.flatnonzero(mask)[0]] = False
    plus = SampledField(pair.w_plus.grid, pair.w_plus.values, mask)
    with pytest.raises(ValueError, match="output mask"):
        envelope_idempotence_gap(dataclasses.replace(pair, w_plus=plus))


def _ref_dist(x, y, w):
    """Frobenius distances pair by pair, adding weighted squares in coordinate order."""
    out = []
    for a in x.tolist():
        row = []
        for b in y.tolist():
            s = 0.0
            for k in range(len(w)):
                s += (a[k] * w[k] - b[k] * w[k]) ** 2
            row.append(math.sqrt(s))
        out.append(row)
    return out


def _ref_envelopes(vals, dist, L):
    vals = vals.tolist()
    lower = [min(v + L * d for v, d in zip(vals, row)) for row in dist]
    upper = [max(v - L * d for v, d in zip(vals, row)) for row in dist]
    return lower, upper


@pytest.mark.parametrize(
    "spec, output_radius",
    [
        # Radius 0.7 makes the coordinates inexact, so the summation order shows.
        (grid_spec(S22, 0.7, 7, "ball"), None),
        # Frobenius radius 1.4 covers the whole cube: 343 output nodes, two chunks.
        (grid_spec(S22_SYM, 0.7, 7, "cube"), 1.4),
    ],
    ids=["2x2_ball", "2x2_sym_cube"],
)
def test_multidim_envelopes_match_pairwise_reference(spec, output_radius):
    L = 0.9
    src = gradient_field(sample(frob_norm(spec.shape), spec))[1]
    w = spec.shape.frob_weights().tolist()
    pair = cone_convolutions(src, L, output_radius=output_radius)
    out = pair.w_minus.mask
    assert np.array_equal(out, pair.w_plus.mask)
    if output_radius is not None:
        assert int(np.sum(out)) > envelope._CHUNK
    dist = _ref_dist(src.node_coords()[out], src.valid_coords(), w)
    lower, upper = _ref_envelopes(src.valid_values(), dist, L)
    assert pair.w_minus.values[out].tolist() == lower
    assert pair.w_plus.values[out].tolist() == upper

    self_dist = _ref_dist(pair.w_minus.valid_coords(), pair.w_minus.valid_coords(), w)
    idem = 0.0
    for fld, which in ((pair.w_minus, 0), (pair.w_plus, 1)):
        vals = fld.valid_values().tolist()
        lip = max(
            abs(v1 - v2) - L * d for v1, row in zip(vals, self_dist) for v2, d in zip(vals, row)
        )
        assert envelope_lipschitz_violation(fld, L) == lip
        redone = _ref_envelopes(fld.valid_values(), self_dist, L)[which]
        idem = max(idem, max(abs(r - v) for r, v in zip(redone, vals)))
    assert envelope_idempotence_gap(pair) == idem


def test_anti_monotone_in_L():
    src = abs_field()
    lo = cone_convolutions(src, 0.25)
    hi = cone_convolutions(src, 0.75)
    m = lo.w_minus.mask & hi.w_minus.mask
    assert np.all(lo.w_minus.values[m] <= hi.w_minus.values[m] + 1e-15)
    assert np.all(lo.w_plus.values[m] >= hi.w_plus.values[m] - 1e-15)


def test_spike_keeps_exact_order():
    src = abs_field(points=9)
    values = src.values.copy()
    mid = values.size // 2
    values[mid] -= 1.0  # artificial downward spike
    spiked = SampledField(src.grid, values, src.mask)
    pair = cone_convolutions(spiked, 2.0, output_radius=0.75)
    rep = sandwich_check(pair)
    assert rep.global_order_violation <= 1e-12
    # the spike survives in w- at its node and widens by the cone slope
    assert pair.w_minus.values[mid] == values[mid]


def test_empty_source_rejected():
    spec = grid_spec(S1, 0.75, 9, "cube")
    with pytest.raises(ValueError):
        cone_convolutions(SampledField(spec, np.full(9, np.nan), np.zeros(9, bool)), 1.0)
    src = abs_field()
    with pytest.raises(ValueError, match="positive"):
        cone_convolutions(src, 0.0)


def test_touch_set_levels():
    spec = grid_spec(S22, 1.0, 9, "cube")
    tf = theta_field(half_norm_sq(1.0), spec, count=40, seed=8)
    all_in = touch_set(tf, 2.0)
    assert all_in.count == 40
    none_in = touch_set(tf, 0.5)
    assert none_in.count == 0


def test_touch_set_kink_detector_fires_on_the_hyperplane():
    # 13-point grid: threshold 10 h = 5/3 sits below the slope jump 2 of |x_11|
    from roconvex.paraboloid import ThetaField, theta_upper

    spec = grid_spec(S22, 1.0, 13, "ball")
    pts = np.array(
        [
            [0.0, 0.1, 0.1, 0.1],  # on the kink hyperplane
            [0.4, 0.1, 0.0, -0.1],  # far from it
        ]
    )
    touches = tuple(theta_upper(abs_entry(0, 0), p, spec) for p in pts)
    tf = ThetaField(
        source=abs_entry(0, 0),
        constraints=spec,
        region_radius=0.5,
        eval_coords=pts,
        theta=np.array([t.opening for t in touches]),
        converged=np.array([True, True]),
        touches=touches,
        seed=0,
    )
    ts = touch_set(tf, 1e9)  # keep every level; only the kink detector filters
    assert ts.excluded_coords.shape[0] == 1
    assert ts.excluded_coords[0, 0] == 0.0
    assert ts.count == 1 and ts.coords[0, 0] == 0.4


def test_touch_set_level_excludes_near_kink_band():
    spec = grid_spec(S22, 1.0, 13, "ball")
    tf = theta_field(abs_entry(0, 0), spec, count=100, seed=8)
    A = 4.0
    ts = touch_set(tf, A)
    assert 0 < ts.count < 100
    # accepted points sit off the kink hyperplane by roughly 1/A
    assert np.all(np.abs(ts.coords[:, 0]) >= 1.0 / A - spec.spacing)


def test_cone_touch_quadratic_and_linear():
    spec = grid_spec(S22, 1.0, 9, "cube")
    tf = theta_field(half_norm_sq(1.0), spec, count=20, seed=3)
    ts = touch_set(tf, 1.5)
    rep = cone_touch_check(half_norm_sq(1.0), ts, C_probe=1.0, sample_count=32, seed=1)
    assert rep.ok
    assert np.allclose(rep.ratios, 1.0, atol=1e-9)
    ell = linear(np.array([[1.0, 2.0], [3.0, 4.0]]))
    tfl = theta_field(ell, spec, count=10, seed=3)
    tsl = touch_set(tfl, 0.5)
    repl = cone_touch_check(ell, tsl, C_probe=1.0, sample_count=16, seed=1)
    assert repl.ok and np.all(repl.ratios == 0.0)


def test_cone_touch_neg_det_calibration():
    spec = grid_spec(S22, 1.0, 9, "ball")
    tf = theta_field(neg_det(), spec, count=30, seed=5)
    level = float(np.quantile(tf.theta, 0.8))
    ts = touch_set(tf, level)
    assert ts.count > 0
    rep = cone_touch_check(neg_det(), ts, C_probe=4.0, sample_count=64, seed=2)
    # |D(-det)(x) - D(-det)(x0)| = |x - x0| exactly, so ratios are 1
    assert np.allclose(rep.ratios, 1.0, atol=1e-9)
    assert rep.ok


def test_sandwich_gap_small_on_touch_set_with_large_L():
    spec = grid_spec(S22, 0.75, 9, "cube")
    fld = sample(half_norm_sq(1.0), spec)
    comp = gradient_field(fld)[0]
    pair = cone_convolutions(comp, 4.0)
    tf = theta_field(half_norm_sq(1.0), grid_spec(S22, 1.0, 9, "cube"), count=15, seed=6)
    ts = touch_set(tf, 1.5)
    rep = sandwich_check(pair, ts)
    h = spec.spacing
    assert rep.global_order_violation <= 1e-12
    assert rep.max_gap_on_touch_set <= 2.0 * 4.0 * h


def test_remainder_quadratic_zero():
    prof = second_order_remainder(half_norm_sq(1.0), np.zeros(4), [0.5, 0.25, 0.125])
    assert np.all(prof.ratios <= 1e-12)
    assert prof.second_order_differentiable
    assert prof.asymmetry <= 1e-9


def test_remainder_cubic_linear_decay():
    h = FunctionHandle(
        "cube_x11",
        S22,
        value=lambda x: x[..., 0, 0] ** 3,
        gradient=lambda x: np.stack(
            [
                np.stack([3.0 * x[..., 0, 0] ** 2, np.zeros(x.shape[:-2])], axis=-1),
                np.stack([np.zeros(x.shape[:-2]), np.zeros(x.shape[:-2])], axis=-1),
            ],
            axis=-2,
        ),
    )
    prof = second_order_remainder(h, np.zeros(4), [0.4, 0.2, 0.1, 0.05, 0.025])
    assert np.allclose(prof.ratios, prof.radii, rtol=1e-6)
    slope = prof.loglog_slope()
    assert slope == pytest.approx(1.0, abs=0.2)


def test_remainder_smooth_point_of_nonsmooth_function():
    x0 = np.array([0.5, 0.3, -0.2, 0.4])
    prof = second_order_remainder(frob_norm(), x0, [0.2, 0.1, 0.05, 0.025], hessian_step=1e-5)
    slope = prof.loglog_slope()
    assert slope == pytest.approx(1.0, abs=0.2)
    assert prof.second_order_differentiable


def test_remainder_kink_flagged():
    prof = second_order_remainder(abs_entry(0, 0), np.zeros(4), [0.4, 0.2, 0.1, 0.05])
    assert not prof.second_order_differentiable
    assert prof.ratios[-1] > 1.0


def test_remainder_field_resolution_guard():
    spec = grid_spec(S22, 1.0, 9, "cube")
    fld = sample(half_norm_sq(1.0), spec)
    with pytest.raises(ValueError, match="resolution"):
        second_order_remainder(fld, np.zeros(4), [0.5, 0.1])
    prof = second_order_remainder(fld, np.zeros(4), [0.6, 0.5, 0.4])
    # field probes interpolate, so ratios bottom out at the O(h^2 / r^2) floor
    h = spec.spacing
    assert np.all(np.diag(prof.hessian) == 1.0)
    assert np.all(prof.ratios <= 2.0 * h * h / prof.radii**2)


def test_remainder_radii_validation():
    with pytest.raises(ValueError, match="decreasing"):
        second_order_remainder(half_norm_sq(1.0), np.zeros(4), [0.1, 0.2])
