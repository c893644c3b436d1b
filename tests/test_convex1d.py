import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roconvex.core import MatrixShape
from roconvex.corpus import FunctionHandle, abs_entry, half_norm_sq, linear
from roconvex.convex1d import (
    AtomicMeasure1D,
    InclusionProbe,
    PLConvex1D,
    TaylorChainRow,
    _inclusion_probes,
    _line_measure,
    _line_values,
    convex_taylor_check,
    fubini_tail_experiment,
    in_coordinate_hull,
    l1_ball_containment,
    maximal_function,
    osc_on_cube,
    random_pl_convex,
    second_derivative_measure,
    superlevel,
    weak_one_one_check,
)

S12 = MatrixShape(1, 2)

ABS = PLConvex1D(np.array([0.0]), np.array([-1.0, 1.0]))


def test_pl_validation():
    with pytest.raises(ValueError, match="slope"):
        PLConvex1D(np.array([0.0]), np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="increasing"):
        PLConvex1D(np.array([1.0, 0.0]), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        PLConvex1D(np.array([0.0]), np.array([1.0]))


def test_pl_evaluation_and_slopes():
    assert np.array_equal(ABS(np.array([-2.0, -1.0, 0.0, 0.5, 2.0])), [2.0, 1.0, 0.0, 0.5, 2.0])
    assert ABS.left_slope(0.0) == -1.0
    assert ABS.right_slope(0.0) == 1.0
    assert ABS.left_slope(0.5) == ABS.right_slope(0.5) == 1.0
    lin = PLConvex1D(np.zeros(0), np.array([2.0]), anchor_value=1.0)
    assert lin(3.0) == 7.0
    assert lin(-1.0) == -1.0


def test_pl_from_samples_and_convexity_guard():
    xs = np.linspace(-2.0, 2.0, 41)
    f = PLConvex1D.from_samples(xs, np.abs(xs))
    assert float(f(0.37)) == pytest.approx(0.37)
    assert float(f(-1.9)) == pytest.approx(1.9)
    with pytest.raises(ValueError, match="convex"):
        PLConvex1D.from_samples(xs, -(xs**2))


def test_second_derivative_measure_examples():
    mu = second_derivative_measure(ABS)
    assert np.array_equal(mu.locations, [0.0]) and np.array_equal(mu.masses, [2.0])
    lin = PLConvex1D(np.zeros(0), np.array([1.5]))
    assert second_derivative_measure(lin).count == 0
    # f = max(0, x - 1/2) + max(0, -x - 1/2)
    f = PLConvex1D(np.array([-0.5, 0.5]), np.array([-1.0, 0.0, 1.0]))
    mu = second_derivative_measure(f)
    assert np.array_equal(mu.locations, [-0.5, 0.5])
    assert np.array_equal(mu.masses, [1.0, 1.0])
    # total mass on [-2,2] equals the slope increment across it
    assert mu.mass_closed(-2.0, 2.0) == f.right_slope(2.0) - f.left_slope(-2.0)


def test_total_mass_bounded_by_oscillation():
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = random_pl_convex(rng, atom_at_zero=bool(rng.integers(0, 2)))
        mu = second_derivative_measure(f)
        xs = np.linspace(-3.0, 3.0, 601)
        osc = float(np.max(f(xs)) - np.min(f(xs)))
        assert mu.mass_closed(-2.0, 2.0) <= 2.0 * osc + 1e-9


def test_maximal_function_examples():
    d0 = AtomicMeasure1D(np.array([0.0]), np.array([1.0]))
    assert maximal_function(d0, 0.5) == 2.0
    assert maximal_function(d0, -0.25) == 4.0
    assert math.isinf(maximal_function(d0, 0.0))
    two = AtomicMeasure1D(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    assert maximal_function(two, 0.0) == 1.0
    empty = AtomicMeasure1D(np.zeros(0), np.zeros(0))
    assert maximal_function(empty, 1.0) == 0.0


def test_maximal_function_against_dense_interval_oracle():
    # the oracle enumerates the limits of intervals pinched onto every atom run
    # (an independent mass summation), densified with random intervals that can
    # only approach the supremum from below
    rng = np.random.default_rng(42)
    for _ in range(5):
        k = int(rng.integers(1, 6))
        locs = np.sort(rng.uniform(-2.0, 2.0, size=k))
        locs = locs[np.concatenate([[True], np.diff(locs) > 1e-6])]
        mu = AtomicMeasure1D(locs, rng.uniform(0.1, 2.0, size=locs.size))
        queries = rng.uniform(-2.5, 2.5, size=100)
        for x in queries:
            if np.any(np.abs(mu.locations - x) < 1e-9):
                continue
            exact = maximal_function(mu, float(x))
            best = 0.0
            for i in range(mu.count):
                for j in range(i, mu.count):
                    lo = min(mu.locations[i], float(x))
                    hi = max(mu.locations[j], float(x))
                    if hi - lo <= 0.0:
                        continue
                    best = max(best, mu.mass_closed(lo, hi) / (hi - lo))
            assert best == pytest.approx(exact, abs=1e-9)
            for _ in range(100):
                a = x - rng.uniform(0.0, 4.5)
                b = x + rng.uniform(0.0, 4.5)
                if b - a < 1e-12:
                    continue
                assert mu.mass_closed(a + 1e-12, b - 1e-12) / (b - a) <= exact + 1e-9


def test_superlevel_single_atom_exact():
    d0 = AtomicMeasure1D(np.array([0.0]), np.array([1.0]))
    for t in (1.0, 2.0, 4.0, 8.0):
        union = superlevel(d0, t)
        assert union.intervals == ((-1.0 / t, 1.0 / t),)
        assert union.measure * t == 2.0


def test_superlevel_nested_in_t():
    rng = np.random.default_rng(9)
    for _ in range(20):
        k = int(rng.integers(1, 6))
        locs = np.sort(rng.uniform(-2.0, 2.0, size=k))
        locs = locs[np.concatenate([[True], np.diff(locs) > 1e-6])]
        mu = AtomicMeasure1D(locs, rng.uniform(0.1, 2.0, size=locs.size))
        prev = None
        for t in np.exp(np.linspace(np.log(0.3), np.log(6.0), 7)):
            cur = superlevel(mu, float(t))
            if prev is not None:
                assert prev.covers(cur)
            prev = cur


def test_superlevel_membership_matches_maximal_function():
    rng = np.random.default_rng(13)
    locs = np.array([-1.5, -0.2, 0.4, 1.1])
    mu = AtomicMeasure1D(locs, np.array([0.5, 1.0, 0.25, 2.0]))
    for t in (0.5, 1.0, 3.0):
        union = superlevel(mu, t)
        for x in rng.uniform(-3.0, 3.0, size=200):
            inside = union.contains_point(float(x))
            m = maximal_function(mu, float(x))
            assert inside == (m > t) or abs(m - t) < 1e-12


def test_weak_one_one_unit_atom_and_zero():
    d0 = AtomicMeasure1D(np.array([0.0]), np.array([1.0]))
    rows = weak_one_one_check(d0, [1.0, 2.0, 4.0, 8.0])
    for r in rows:
        assert r.measure * r.t == 2.0
        assert r.ok and r.local_ok
    empty = AtomicMeasure1D(np.zeros(0), np.zeros(0))
    rows = weak_one_one_check(empty, [1.0])
    assert rows[0].measure == 0.0


def test_weak_one_one_random_measures_constant_two():
    rng = np.random.default_rng(21)
    t_grid = np.exp(np.linspace(np.log(0.5), np.log(5.0), 9))
    for _ in range(100):
        k = int(rng.integers(1, 6))
        locs = np.sort(rng.uniform(-2.0, 2.0, size=k))
        locs = locs[np.concatenate([[True], np.diff(locs) > 1e-6])]
        mu = AtomicMeasure1D(locs, rng.uniform(0.1, 3.0, size=locs.size))
        for r in weak_one_one_check(mu, t_grid):
            assert r.ok
            assert r.local_ok
            assert r.window_measure <= r.local_measure + 1e-12


def test_taylor_chain_abs_and_shifted_kink():
    rows = convex_taylor_check(ABS, np.linspace(0.05, 1.0, 20))
    assert all(r.ok for r in rows)
    assert all(r.vacuous for r in rows)  # atom at 0 makes the maximal bound infinite
    shifted = PLConvex1D(np.array([0.5]), np.array([0.0, 1.0]))
    rows = convex_taylor_check(shifted, [0.25, 1.0])
    assert all(r.ok for r in rows) and not any(r.vacuous for r in rows)
    r1 = rows[1]
    assert r1.f_plus == 0.5 and r1.bound_mid_plus == 1.0 and r1.bound_max == 2.0


def test_taylor_chain_zero_slope_line():
    f = PLConvex1D(np.zeros(0), np.array([0.0]))
    rows = convex_taylor_check(f, [0.5, 1.0])
    for r in rows:
        assert r.f_plus == 0.0 and r.bound_mid_plus == 0.0 and r.ok


def test_taylor_chain_rejects_bad_normalization():
    shifted_value = PLConvex1D(np.array([0.0]), np.array([-1.0, 1.0]), anchor_value=1.0)
    with pytest.raises(ValueError, match="normalization"):
        convex_taylor_check(shifted_value, [0.5])
    tilted = PLConvex1D(np.array([0.5]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="subgradient"):
        convex_taylor_check(tilted, [0.5])
    with pytest.raises(ValueError, match="positive"):
        convex_taylor_check(ABS, [0.5, 0.0])


def _taylor_reference(f, h_grid, tol=1e-10):
    """The chain one h at a time, with mass_closed per window."""
    mu = second_derivative_measure(f)
    m0 = maximal_function(mu, 0.0)
    rows = []
    for h in h_grid:
        h = float(h)
        fp = float(f(h))
        fm = float(f(-h))
        jp = mu.mass_closed(0.0, h) * h
        jm = mu.mass_closed(-h, 0.0) * h
        vac = math.isinf(m0)
        top = math.inf if vac else m0 * h * h
        ok = (
            fp >= -tol
            and fm >= -tol
            and fp <= jp + tol
            and fm <= jm + tol
            and (vac or (jp <= top + tol and jm <= top + tol))
        )
        rows.append(TaylorChainRow(h, fp, jp, fm, jm, top, ok, vac))
    return rows


def test_taylor_chain_matches_per_h_reference():
    rng = np.random.default_rng(23)
    h_grid = np.linspace(0.05, 1.0, 20)
    fs = [ABS] + [random_pl_convex(rng, atom_at_zero=(k % 2 == 0)) for k in range(40)]
    # windows of 8 and more atoms, where np.sum stops adding left to right
    xs = np.linspace(-2.0, 2.0, 41)
    fs += [PLConvex1D.from_samples(xs, np.abs(xs) ** p) for p in (2, 3, 4)]
    for f in fs:
        assert repr(convex_taylor_check(f, h_grid)) == repr(_taylor_reference(f, h_grid))


def test_taylor_chain_random_pl():
    rng = np.random.default_rng(17)
    h_grid = np.linspace(0.05, 1.0, 20)
    for k in range(50):
        f = random_pl_convex(rng, atom_at_zero=(k % 2 == 0))
        rows = convex_taylor_check(f, h_grid)
        assert all(r.ok for r in rows)
        if k % 2 == 0:
            assert all(r.vacuous for r in rows)


def test_l1_ball_dimensions():
    assert l1_ball_containment(1, 1000, seed=0).max_ratio == pytest.approx(1.0)
    rep = l1_ball_containment(4, 10_000, seed=1)
    assert rep.ok
    assert rep.witness_ratio == pytest.approx(2.0)
    rep2 = l1_ball_containment(2, 100_000, seed=2)
    assert math.sqrt(2.0) - 1e-3 <= rep2.max_ratio <= math.sqrt(2.0) + 1e-12


def test_hull_membership():
    assert in_coordinate_hull(np.array([[0.5, 0.25]]), 1.0)[0]
    assert not in_coordinate_hull(np.array([[0.8, 0.8]]), 1.0)[0]


def test_fubini_tail_abs_first_coordinate():
    h = abs_entry(0, 0, S12)
    t_grid = np.exp(np.linspace(np.log(7.0), np.log(80.0), 8))
    rep = fubini_tail_experiment(h, t_grid, lines_per_direction=24, seed=5, probe_count=4)
    assert rep.oscillation == pytest.approx(3.0)
    assert rep.threshold == pytest.approx(6.0)
    # exact decay: each line along the first axis contributes the interval
    # (-2/t, 2/t); the aggregate is 8/t
    assert np.allclose(rep.measures, 8.0 / rep.t_grid, rtol=1e-12)
    assert rep.fitted_slope == pytest.approx(-1.0, abs=0.1)
    assert np.all(np.diff(rep.measures) <= 0.0)
    assert all(p.axis_bound_ok and p.hull_bound_ok for p in rep.inclusion)


def test_fubini_tail_linear_is_empty():
    h = linear(np.array([[0.5, -1.0]]), S12, "lin12")
    rep = fubini_tail_experiment(h, [19.0, 40.0, 80.0, 191.0], lines_per_direction=8, seed=1, probe_count=2)
    assert np.all(rep.measures == 0.0)
    assert rep.fitted_slope is None


def test_fubini_tail_quadratic_decays_with_discrete_mass():
    h = half_norm_sq(1.0, S12)
    rep = fubini_tail_experiment(
        h, [19.0, 40.0, 80.0, 191.0], lines_per_direction=8, seed=1, probe_count=2
    )
    # PL-resolution atoms keep the tail nonempty but within the distribution bound
    for t, m in zip(rep.t_grid, rep.measures):
        per_line_mass = 6.0  # slope range of s -> s^2/2 + const on [-3, 3]
        assert m <= 2 * (2.0 * per_line_mass / t) * 2.0
    assert all(p.axis_bound_ok and p.hull_bound_ok for p in rep.inclusion)


def _probes_reference(f, t_arr, s_grid, resolution, probe_count, rng, convexity_tol, tol=1e-7):
    """The inclusion probes one h at a time, one (16, n) sphere draw per h."""
    n = f.shape.cols
    h_values = np.arange(resolution, 1.0, resolution)
    probes = []
    for t in t_arr:
        pts = rng.uniform(-1.0, 1.0, size=(probe_count, n))
        for x0 in pts:
            maxima = []
            slopes = np.zeros(n)
            for i in range(n):
                offset = x0.copy()
                offset[i] = 0.0
                mu = _line_measure(f, offset, i, s_grid, convexity_tol)
                maxima.append(maximal_function(mu, float(x0[i])))
                if f.gradient is None:
                    vals = _line_values(f, offset, i, s_grid)
                    idx = int(np.searchsorted(s_grid, x0[i])) - 1
                    slopes[i] = (vals[idx + 1] - vals[idx]) / resolution
            if any(m > t for m in maxima):
                probes.append(InclusionProbe(float(t), tuple(map(float, x0)), True, True, True, 0.0))
                continue
            g = f.gradient_at_coords(x0).reshape(-1) if f.gradient is not None else slopes
            f0 = float(f.value_at_coords(x0[None, :])[0])

            def recentered(z):
                return f.value_at_coords(x0 + z) - f0 - z @ g

            worst = -math.inf
            axis_ok = True
            hull_ok = True
            for h in h_values:
                zs = np.concatenate([h * np.eye(n), -h * np.eye(n)], axis=0)
                axis_vals = recentered(zs)
                cap = 2.0 * t * h * h
                worst = max(worst, float(np.max(axis_vals - cap)), float(np.max(-axis_vals)))
                if np.any(axis_vals < -tol) or np.any(axis_vals > cap + tol):
                    axis_ok = False
                sphere = rng.standard_normal((16, n))
                sphere /= np.linalg.norm(sphere, axis=1)[:, None]
                zb = (h / math.sqrt(n)) * sphere
                ball_vals = recentered(zb)
                if np.any(ball_vals > 2.0 * n * t * np.sum(zb * zb, axis=1) + tol):
                    hull_ok = False
                    worst = max(worst, float(np.max(ball_vals - cap)))
            probes.append(InclusionProbe(float(t), tuple(map(float, x0)), False, axis_ok, hull_ok, worst))
    return probes


ABS_X11 = abs_entry(0, 0, S12)


@pytest.mark.parametrize(
    "f, t_values",
    [
        (ABS_X11, [7.0, 20.0, 80.0]),
        # no gradient: the slopes come from the fitted lines
        (FunctionHandle("abs_x11_nograd", S12, ABS_X11.value), [7.0, 20.0, 80.0]),
        # affine along both axes, so never in the tail set, and the hull bound
        # fails at small t
        (FunctionHandle("uv", S12, lambda x: x[..., 0, 0] * x[..., 0, 1]), [0.02, 0.1, 0.5]),
    ],
    ids=["abs_x11", "abs_x11_nograd", "uv_nograd"],
)
def test_inclusion_probes_match_per_h_reference(f, t_values):
    args = (f, np.array(t_values), np.linspace(-3.0, 3.0, 121), 0.05, 6)
    probes = _inclusion_probes(*args, np.random.default_rng(7), 1e-9)
    assert repr(probes) == repr(_probes_reference(*args, np.random.default_rng(7), 1e-9))
    outside = [p for p in probes if not p.in_tail_set]
    assert outside
    if f.name == "uv":
        assert not all(p.hull_bound_ok for p in outside)


def test_fubini_threshold_refusal():
    h = abs_entry(0, 0, S12)
    with pytest.raises(ValueError, match="exceed"):
        fubini_tail_experiment(h, [5.0, 60.0], lines_per_direction=4, seed=0)


def test_fubini_rejects_nonconvex_restrictions():
    shape = MatrixShape(1, 2)
    h = FunctionHandle("cave", shape, lambda x: -0.5 * np.sum(x * x, axis=(-2, -1)))
    with pytest.raises(ValueError, match="not convex"):
        fubini_tail_experiment(h, [19.0, 200.0], lines_per_direction=4, seed=0)


def test_osc_on_cube():
    h = abs_entry(0, 0, S12)
    assert osc_on_cube(h, 3.0) == pytest.approx(3.0)
    assert osc_on_cube(h, 1.0) == pytest.approx(1.0)


@given(
    st.lists(
        st.tuples(st.floats(-2, 2, allow_nan=False), st.floats(0.05, 3, allow_nan=False)),
        min_size=1,
        max_size=5,
    ),
    st.floats(0.3, 6, allow_nan=False),
    st.floats(1.05, 3, allow_nan=False),
)
@settings(max_examples=150, deadline=None)
def test_superlevel_nesting_property(atoms, t, factor):
    locs = np.array(sorted({round(a, 6) for a, _ in atoms}))
    if locs.size == 0:
        return
    masses = np.array([m for _, m in atoms[: locs.size]])
    mu = AtomicMeasure1D(locs, masses)
    lo = superlevel(mu, t)
    hi = superlevel(mu, t * factor)
    assert lo.covers(hi)
    assert hi.measure <= lo.measure + 1e-12
    assert lo.measure <= 2.0 * mu.total() / t + 1e-9


@given(
    st.lists(st.floats(0.05, 2, allow_nan=False), min_size=1, max_size=5),
    st.floats(-2.5, 2.5, allow_nan=False),
)
@settings(max_examples=150, deadline=None)
def test_pl_convexity_property(jumps, x):
    # random convex PL function stays above all its tangent lines
    bp = np.linspace(-1.5, 1.5, len(jumps))
    slopes = np.concatenate([[-1.0], -1.0 + np.cumsum(jumps)])
    f = PLConvex1D(bp, slopes)
    for pivot in (-1.0, 0.0, 0.7):
        tangent = f(pivot) + f.right_slope(pivot) * (x - pivot)
        assert float(f(x)) >= tangent - 1e-9
