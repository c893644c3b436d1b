import dataclasses
import math

import numpy as np
import pytest

from roconvex.core import MatrixShape, SampledField, grid_spec, gradient_field, loglog_fit, make_grid, sample
from roconvex.corpus import (
    FunctionHandle,
    abs_entry,
    constant,
    frob_norm,
    half_norm_sq,
)
from roconvex import envelope
from roconvex.envelope import (
    cone_convolutions,
    envelope_idempotence_gap,
    envelope_lipschitz_violation,
    sandwich_check,
    second_order_remainder,
)

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
    pair = cone_convolutions(src, 0.5)
    coords = src.node_coords().ravel()
    yv = src.node_coords()[src.mask].ravel()
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


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _frob_gradient(spec):
    return gradient_field(sample(frob_norm(spec.shape), spec))[1]


def _random(spec):
    mask = make_grid(spec).mask
    values = np.random.default_rng(7).uniform(-1.0, 1.0, mask.size)
    return SampledField(spec, values, mask)


def _constant(spec):
    return sample(constant(0.3, spec.shape), spec)


def _dip(spec):
    # 1 except 0 at the center node: the minimiser of w- sits at the center, up
    # to osc/L = 1/L away, so a stencil one lattice step short misses it.
    mask = make_grid(spec).mask
    values = np.ones(mask.size)
    values[mask.size // 2] = 0.0
    return SampledField(spec, values, mask)


def _single_node(spec):
    # One valid node at the centre: every slot but the zero offset reads the sentinel.
    mask = np.zeros(spec.points_per_axis**spec.shape.dim, dtype=bool)
    mask[mask.size // 2] = True
    return SampledField(spec, np.full(mask.size, -0.6), mask)


# The envelopes are output on the inner ball of 2/3 the grid radius.
SYM_CUBE = grid_spec(S22_SYM, 0.7, 7, "cube")
WHOLE_GRID = grid_spec(S22, 0.75, 5, "cube")
DIP_BALL = grid_spec(S22, 0.75, 9, "ball")
SYM_BALL = grid_spec(S22_SYM, 0.7, 13, "ball")


@pytest.mark.parametrize(
    "make, spec, L",
    [
        # Radius 0.7 makes the coordinates inexact, so the summation order shows.
        (_frob_gradient, grid_spec(S22, 0.7, 7, "ball"), 0.9),
        # The symmetric weights (1, sqrt 2, 1) on all 31 nodes of the inner ellipsoid.
        (_frob_gradient, SYM_CUBE, 0.9),
        # osc/L is about two lattice steps, so most source nodes fall outside the stencil.
        (_random, grid_spec(S22, 0.7, 7, "cube"), 4.0),
        (_random, grid_spec(S22, 0.7, 7, "ball"), 4.0),
        (_random, grid_spec(S1, 0.75, 9, "cube"), 4.0),
        # osc = 0: the stencil is the zero offset alone.
        (_constant, grid_spec(S22, 0.7, 5, "cube"), 0.9),
        # osc/L = 40 reaches past every node of the grid.
        (_random, WHOLE_GRID, 0.05),
        # osc/L = 1/2 = 2.67 h: output nodes 2 h to 2.65 h from the dip take it as
        # their minimiser; the 297 rows make a full chunk and a partial one of 41.
        (_dip, DIP_BALL, 2.0),
        # Slots on masked nodes inside the grid read the sentinel; the 189 rows
        # make a chunk of 181 and a partial one of 8.
        (_random, SYM_BALL, 2.5),
        (_single_node, grid_spec(S22, 0.7, 5, "ball"), 0.9),
    ],
    ids=[
        "2x2_ball",
        "2x2_sym_cube",
        "2x2_cube_random",
        "2x2_ball_random",
        "1x1_random",
        "constant",
        "whole_grid_radius",
        "one_node_dip",
        "sym_ball_sentinels",
        "single_valid_node",
    ],
)
def test_multidim_envelopes_match_pairwise_reference(make, spec, L):
    """Envelopes, Lipschitz violations and the idempotence gap equal a full
    pairwise scan bit for bit."""
    src = make(spec)
    w = spec.shape.frob_weights().tolist()
    pair = cone_convolutions(src, L)
    out = pair.w_minus.mask
    assert np.array_equal(out, pair.w_plus.mask)
    dist = _ref_dist(src.node_coords()[out], src.node_coords()[src.mask], w)
    lower, upper = _ref_envelopes(src.valid_values(), dist, L)
    assert _bits(pair.w_minus.values[out]) == _bits(lower)
    assert _bits(pair.w_plus.values[out]) == _bits(upper)

    w_nodes = pair.w_minus.node_coords()[pair.w_minus.mask]
    self_dist = _ref_dist(w_nodes, w_nodes, w)
    idem = 0.0
    for fld, which in ((pair.w_minus, 0), (pair.w_plus, 1)):
        vals = fld.valid_values().tolist()
        lip = max(
            abs(v1 - v2) - L * d for v1, row in zip(vals, self_dist) for v2, d in zip(vals, row)
        )
        assert _bits(envelope_lipschitz_violation(fld, L)) == _bits(lip)
        redone = _ref_envelopes(fld.valid_values(), self_dist, L)[which]
        idem = max(idem, max(abs(r - v) for r, v in zip(redone, vals)))
    assert _bits(envelope_idempotence_gap(pair)) == _bits(idem)


def test_reference_cases_reach_the_stencil_edges():
    out = cone_convolutions(_dip(DIP_BALL), 2.0).w_minus.mask
    assert int(np.sum(out)) > envelope._CHUNK
    n, dim = WHOLE_GRID.points_per_axis, WHOLE_GRID.shape.dim
    radius = np.ptp(_random(WHOLE_GRID).valid_values()) / 0.05
    assert envelope._lattice_offsets(WHOLE_GRID, radius).shape == ((2 * n - 1) ** dim, dim)
    assert envelope._lattice_offsets(WHOLE_GRID, 0.0).tolist() == [[0] * dim]
    # sym_ball_sentinels: stencil slots land on masked nodes inside the grid,
    # and the last chunk is partial.
    src = _random(SYM_BALL)
    rows = np.flatnonzero(cone_convolutions(src, 2.5).w_minus.mask)
    radius = np.ptp(src.valid_values()) / 2.5
    at = np.stack(np.unravel_index(rows, src.nd_shape), axis=-1)[:, None, :]
    at = at + envelope._lattice_offsets(SYM_BALL, radius)
    on_grid = np.all((at >= 0) & (at < SYM_BALL.points_per_axis), axis=-1)
    flat = np.ravel_multi_index(tuple(np.moveaxis(at, -1, 0)), src.nd_shape, mode="clip")
    assert np.any(on_grid & ~src.mask[flat])
    sizes = [hi - lo for lo, hi, *_ in envelope._stencil_chunks(SYM_BALL, rows, src.mask, radius)]
    assert len(sizes) > 1 and 0 < sizes[-1] < sizes[0]


def test_consecutive_calls_match_fresh_calls_bitwise():
    """A call gives the same bits after a call with a wider stencil on the same
    grid as after one with a narrower stencil: no workspace outlives its call."""
    spec = grid_spec(S22, 0.7, 7, "ball")
    src = _random(spec)
    radii = [np.ptp(src.valid_values()) / L for L in (1.0, 4.0)]
    wide, narrow = (envelope._lattice_offsets(spec, r).shape[0] for r in radii)
    assert wide > narrow
    first, narrow_after_wide = cone_convolutions(src, 1.0), cone_convolutions(src, 4.0)
    narrow_after_narrow, wide_after_narrow = cone_convolutions(src, 4.0), cone_convolutions(src, 1.0)
    for got, ref in ((narrow_after_wide, narrow_after_narrow), (wide_after_narrow, first)):
        assert _bits(got.w_minus.values) == _bits(ref.w_minus.values)
        assert _bits(got.w_plus.values) == _bits(ref.w_plus.values)
    assert not np.array_equal(first.w_minus.values, narrow_after_wide.w_minus.values, equal_nan=True)


@pytest.mark.parametrize("L", [math.nan, math.inf, 0.0, -1.0])
def test_bad_cone_slope_rejected(L):
    src = abs_field(points=9)
    with pytest.raises(ValueError, match="cone slope L must be positive and finite"):
        cone_convolutions(src, L)
    with pytest.raises(ValueError, match="cone slope L must be positive and finite"):
        envelope_lipschitz_violation(src, L)


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
    pair = cone_convolutions(spiked, 2.0)
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


def test_lipschitz_violation_rejects_a_field_without_valid_nodes():
    # with no pair to scan the worst gap would stay -inf and pass any bound
    fld = abs_field(points=5)
    empty = SampledField(fld.grid, fld.values, np.zeros(fld.values.size, bool))
    with pytest.raises(ValueError, match="envelope_lipschitz_violation: field has no valid nodes"):
        envelope_lipschitz_violation(empty, 1.0)


def test_pair_checks_reject_a_pair_without_a_shared_valid_node():
    fld = abs_field(points=5)
    empty = SampledField(fld.grid, fld.values, np.zeros(fld.values.size, bool))
    with pytest.raises(ValueError, match="envelope_idempotence_gap: the envelopes have no valid nodes"):
        envelope_idempotence_gap(envelope.ConeEnvelopePair(1.0, empty, empty, empty))
    # each field has valid nodes, but no node is valid in all three
    left = SampledField(fld.grid, fld.values, np.arange(5) < 2)
    right = SampledField(fld.grid, fld.values, np.arange(5) >= 2)
    with pytest.raises(ValueError, match="sandwich_check: w_minus, w_plus and the source share no valid node"):
        sandwich_check(envelope.ConeEnvelopePair(1.0, left, left, right))


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
    slope, _ = loglog_fit(prof.radii, prof.ratios, 2)
    assert slope == pytest.approx(1.0, abs=0.2)


def test_remainder_smooth_point_of_nonsmooth_function():
    x0 = np.array([0.5, 0.3, -0.2, 0.4])
    prof = second_order_remainder(frob_norm(), x0, [0.2, 0.1, 0.05, 0.025])
    slope, _ = loglog_fit(prof.radii, prof.ratios, 2)
    assert slope == pytest.approx(1.0, abs=0.2)
    assert prof.second_order_differentiable


def test_remainder_kink_flagged():
    prof = second_order_remainder(abs_entry(0, 0), np.zeros(4), [0.4, 0.2, 0.1, 0.05])
    assert not prof.second_order_differentiable
    assert prof.ratios[-1] > 1.0


def test_remainder_radii_validation():
    with pytest.raises(ValueError, match="decreasing"):
        second_order_remainder(half_norm_sq(1.0), np.zeros(4), [0.1, 0.2])


# each ratio divides by r^2, and an empty profile has no smallest radius to judge
@pytest.mark.parametrize(
    "radii", [[0.2, 0.0], [0.2, -0.1], [], [0.2, math.nan]], ids=["zero", "negative", "empty", "nan"]
)
def test_remainder_rejects_empty_or_non_positive_radii(radii):
    with pytest.raises(ValueError, match="radii must be non-empty, finite and positive"):
        second_order_remainder(frob_norm(), np.zeros(4), radii)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_remainder_rejects_non_finite_x0(bad):
    x0 = np.array([0.1, bad, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"second_order_remainder needs a finite x0, got \[0.1, (nan|inf)"):
        second_order_remainder(half_norm_sq(1.0), x0, [0.2, 0.1])
