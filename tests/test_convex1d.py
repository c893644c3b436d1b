import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certify_reference import line_measure, measure, table_row
from roconvex.core import MatrixShape
from roconvex.corpus import FunctionHandle, abs_entry, half_norm_sq, linear
from roconvex.convex1d import (
    AtomicMeasure1D,
    InclusionProbe,
    PLConvex1D,
    _inclusion_probes,
    convex_taylor_check,
    fubini_tail_experiment,
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


def _slope(f, x, side):
    """f's one-sided slope at x: "left" or "right"."""
    return float(f.slopes[int(np.searchsorted(f.breakpoints, x, side=side))])


def _mass_closed(mu, a, b):
    """mu([a, b])."""
    return float(np.sum(mu.masses[(mu.locations >= a) & (mu.locations <= b)]))


def _covers(big, small):
    """Every interval of the union `small` lies inside one interval of `big`."""
    return all(any(a2 <= a and b <= b2 for a2, b2 in big) for a, b in small)


def test_pl_validation():
    with pytest.raises(ValueError, match="slope"):
        PLConvex1D(np.array([0.0]), np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="increasing"):
        PLConvex1D(np.array([1.0, 0.0]), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        PLConvex1D(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError, match=r"breakpoints must be finite, got \[inf\]"):
        PLConvex1D(np.array([math.inf]), np.array([-1.0, 1.0]))
    with pytest.raises(ValueError, match=r"slopes must be finite, got \[-1.0, nan\]"):
        PLConvex1D(np.array([0.0]), np.array([-1.0, math.nan]))


def test_atomic_measure_validation():
    with pytest.raises(ValueError, match="align"):
        AtomicMeasure1D(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="strictly increasing"):
        AtomicMeasure1D(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="non-negative"):
        AtomicMeasure1D(np.array([0.0]), np.array([-1.0]))
    # NaN passes the order and sign tests, and an inf location only warns in np.diff
    with pytest.raises(ValueError, match=r"locations must be finite, got \[nan\]"):
        AtomicMeasure1D(np.array([math.nan]), np.array([1.0]))
    with pytest.raises(ValueError, match=r"locations must be finite, got \[0.0, inf\]"):
        AtomicMeasure1D(np.array([0.0, math.inf]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match=r"masses must be finite, got \[inf\]"):
        AtomicMeasure1D(np.array([0.0]), np.array([math.inf]))
    with pytest.raises(ValueError, match=r"masses must be finite, got \[1.0, nan\]"):
        AtomicMeasure1D(np.array([0.0, 1.0]), np.array([1.0, math.nan]))


def test_pl_evaluation_and_slopes():
    assert np.array_equal(ABS(np.array([-2.0, -1.0, 0.0, 0.5, 2.0])), [2.0, 1.0, 0.0, 0.5, 2.0])
    assert ABS.slopes.tolist() == [-1.0, 1.0]
    lin = PLConvex1D(np.zeros(0), np.array([2.0]))
    assert lin(0.0) == 0.0
    assert lin(3.0) == 6.0
    assert lin(-1.0) == -2.0


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
    assert _mass_closed(mu, -2.0, 2.0) == _slope(f, 2.0, "right") - _slope(f, -2.0, "left")


def test_total_mass_bounded_by_oscillation():
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = random_pl_convex(rng, atom_at_zero=bool(rng.integers(0, 2)))
        mu = second_derivative_measure(f)
        xs = np.linspace(-3.0, 3.0, 601)
        osc = float(np.max(f(xs)) - np.min(f(xs)))
        assert _mass_closed(mu, -2.0, 2.0) <= 2.0 * osc + 1e-9


def test_maximal_function_examples():
    d0 = AtomicMeasure1D(np.array([0.0]), np.array([1.0]))
    assert maximal_function(d0, 0.5) == 2.0
    assert maximal_function(d0, -0.25) == 4.0
    assert math.isinf(maximal_function(d0, 0.0))
    two = AtomicMeasure1D(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    assert maximal_function(two, 0.0) == 1.0
    empty = AtomicMeasure1D(np.zeros(0), np.zeros(0))
    assert maximal_function(empty, 1.0) == 0.0
    # a zero-mass atom at x: every interval around x has mass 0
    zero = AtomicMeasure1D(np.array([0.0]), np.array([0.0]))
    assert maximal_function(zero, 0.0) == 0.0


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus_inf"])
def test_non_finite_points_are_named(x):
    # unchecked, M mu(nan) and M mu(inf) read 0.0, and a NaN point read the last slope
    d0 = AtomicMeasure1D(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError, match=f"maximal_function needs a finite point, got {x}"):
        maximal_function(d0, x)
    with pytest.raises(ValueError, match=f"PLConvex1D needs a finite point, got {x}"):
        ABS(x)
    with pytest.raises(ValueError, match=f"PLConvex1D needs a finite point, got {x}"):
        ABS(np.array([0.5, x, 1.0]))


def test_maximal_function_against_dense_interval_oracle():
    # the oracle enumerates the limits of intervals pinched onto every atom run
    # (an independent mass summation), densified with random intervals that can
    # only approach the supremum from below
    rng = np.random.default_rng(42)

    def cases():
        for _ in range(5):
            k = int(rng.integers(1, 6))
            locs = np.sort(rng.uniform(-2.0, 2.0, size=k))
            locs = locs[np.concatenate([[True], np.diff(locs) > 1e-6])]
            yield AtomicMeasure1D(locs, rng.uniform(0.1, 2.0, size=locs.size)), rng.uniform(-2.5, 2.5, size=100)
        # zero-mass atoms, queried on them too: the value there stays finite
        yield AtomicMeasure1D(np.array([0.0]), np.array([0.0])), np.array([0.0, 0.5])
        yield AtomicMeasure1D(np.array([-1.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0])), np.array([0.0, 0.3])

    for mu, queries in cases():
        for x in queries:
            if np.any((np.abs(mu.locations - x) < 1e-9) & (mu.masses > 0.0)):
                continue
            exact = maximal_function(mu, float(x))
            best = 0.0
            for i in range(mu.count):
                for j in range(i, mu.count):
                    lo = min(mu.locations[i], float(x))
                    hi = max(mu.locations[j], float(x))
                    if hi - lo <= 0.0:
                        continue
                    best = max(best, _mass_closed(mu, lo, hi) / (hi - lo))
            assert best == pytest.approx(exact, abs=1e-9)
            for _ in range(100):
                a = x - rng.uniform(0.0, 4.5)
                b = x + rng.uniform(0.0, 4.5)
                if b - a < 1e-12:
                    continue
                assert _mass_closed(mu, a + 1e-12, b - 1e-12) / (b - a) <= exact + 1e-9


def test_superlevel_single_atom_exact():
    d0 = AtomicMeasure1D(np.array([0.0]), np.array([1.0]))
    for t in (1.0, 2.0, 4.0, 8.0):
        union = superlevel(d0, t)
        assert union == ((-1.0 / t, 1.0 / t),)
        assert measure(union) * t == 2.0


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
                assert _covers(prev, cur)
            prev = cur


def test_superlevel_membership_matches_maximal_function():
    rng = np.random.default_rng(13)
    locs = np.array([-1.5, -0.2, 0.4, 1.1])
    mu = AtomicMeasure1D(locs, np.array([0.5, 1.0, 0.25, 2.0]))
    for t in (0.5, 1.0, 3.0):
        union = superlevel(mu, t)
        for x in rng.uniform(-3.0, 3.0, size=200):
            inside = any(a < x < b for a, b in union)
            m = maximal_function(mu, float(x))
            assert inside == (m > t) or abs(m - t) < 1e-12


def test_weak_one_one_unit_atom_and_zero():
    d0 = AtomicMeasure1D(np.array([0.0]), np.array([1.0]))
    table = weak_one_one_check([d0], [1.0, 2.0, 4.0, 8.0])
    assert np.all(table["measure"] * table["t"] == 2.0)
    assert np.all(table["ok"] & table["local_ok"])
    empty = AtomicMeasure1D(np.zeros(0), np.zeros(0))
    assert weak_one_one_check([empty], [1.0])["measure"][0, 0] == 0.0


def test_weak_one_one_random_measures_constant_two():
    rng = np.random.default_rng(21)
    t_grid = np.exp(np.linspace(np.log(0.5), np.log(5.0), 9))
    measures = []
    for _ in range(100):
        k = int(rng.integers(1, 6))
        locs = np.sort(rng.uniform(-2.0, 2.0, size=k))
        locs = locs[np.concatenate([[True], np.diff(locs) > 1e-6])]
        measures.append(AtomicMeasure1D(locs, rng.uniform(0.1, 3.0, size=locs.size)))
    table = weak_one_one_check(measures, t_grid)
    assert np.all(table["ok"])
    assert np.all(table["local_ok"])
    assert np.all(table["window_measure"] <= table["local_measure"] + 1e-12)


def test_taylor_chain_abs_and_shifted_kink():
    table = convex_taylor_check([ABS], np.linspace(0.05, 1.0, 20))
    assert np.all(table["ok"])
    assert np.all(table["vacuous"])  # atom at 0 makes the maximal bound infinite
    shifted = PLConvex1D(np.array([0.5]), np.array([0.0, 1.0]))
    table = convex_taylor_check([shifted], [0.25, 1.0])
    assert np.all(table["ok"]) and not np.any(table["vacuous"])
    assert table["f_plus"][0, 1] == 0.5 and table["bound_mid_plus"][0, 1] == 1.0 and table["bound_max"][0, 1] == 2.0


def test_taylor_chain_zero_slope_line():
    f = PLConvex1D(np.zeros(0), np.array([0.0]))
    table = convex_taylor_check([f], [0.5, 1.0])
    assert np.all(table["f_plus"] == 0.0) and np.all(table["bound_mid_plus"] == 0.0) and np.all(table["ok"])


def test_taylor_chain_rejects_bad_normalization():
    tilted = PLConvex1D(np.array([0.5]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="subgradient"):
        convex_taylor_check([tilted], [0.5])
    with pytest.raises(ValueError, match="positive"):
        convex_taylor_check([ABS], [0.5, 0.0])
    # NaN passes an `h <= 0` test, and an infinite step makes every bound inf
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="h grid must be positive and finite"):
            convex_taylor_check([ABS], [0.5, bad])


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"])
def test_superlevel_levels_must_be_positive_and_finite(t):
    # NaN passes a `t <= 0` test, and its union would be silently empty
    d0 = AtomicMeasure1D(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="superlevel threshold must be positive and finite"):
        superlevel(d0, t)
    with pytest.raises(ValueError, match="superlevel thresholds must be positive and finite"):
        weak_one_one_check([d0], [1.0, t])


def _pl_reference(f, x):
    """f(x) from one searchsorted over f's own breakpoints: the antiderivative of the
    slope profile, zero at the first breakpoint, minus its value at 0."""

    def raw(z):
        bp, sl = f.breakpoints, f.slopes
        if bp.size == 0:
            return sl[0] * z
        node_vals = np.concatenate([[0.0], np.cumsum(sl[1:-1] * np.diff(bp))])
        i = int(np.searchsorted(bp, z, side="right"))
        left = max(i - 1, 0)
        return sl[0] * (z - bp[0]) if i == 0 else node_vals[left] + sl[i] * (z - bp[left])

    return float(0.0 + raw(x) - raw(0.0))


def _taylor_reference(f, h_grid, tol=1e-10):
    """The chain one h at a time, with the closed mass of each window, as the columns
    of the check's table."""
    mu = second_derivative_measure(f)
    m0 = maximal_function(mu, 0.0)
    rows = []
    for h in h_grid:
        h = float(h)
        fp = _pl_reference(f, h)
        fm = _pl_reference(f, -h)
        jp = _mass_closed(mu, 0.0, h) * h
        jm = _mass_closed(mu, -h, 0.0) * h
        vac = math.isinf(m0)
        top = math.inf if vac else m0 * h * h
        ok = (
            fp >= -tol
            and fm >= -tol
            and fp <= jp + tol
            and fm <= jm + tol
            and (vac or (jp <= top + tol and jm <= top + tol))
        )
        rows.append((h, fp, jp, fm, jm, top, ok, vac))
    names = ("h", "f_plus", "bound_mid_plus", "f_minus", "bound_mid_minus", "bound_max", "ok", "vacuous")
    return {name: list(column) for name, column in zip(names, zip(*rows))}


def test_taylor_chain_matches_per_h_reference():
    rng = np.random.default_rng(23)
    h_grid = np.linspace(0.05, 1.0, 20)
    fs = [ABS] + [random_pl_convex(rng, atom_at_zero=(k % 2 == 0)) for k in range(40)]
    # windows of 8 and more atoms, where np.sum stops adding left to right
    xs = np.linspace(-2.0, 2.0, 41)
    for p in (2, 3, 4):
        vs = np.abs(xs) ** p
        fs.append(PLConvex1D(xs[1:-1], np.diff(vs) / np.diff(xs)))  # 0 is a node of xs, so f(0) = 0
    for f in fs:
        assert repr(table_row(convex_taylor_check([f], h_grid), 0)) == repr(_taylor_reference(f, h_grid))


@pytest.mark.parametrize("seed", range(5))
def test_taylor_table_rows_match_per_h_reference(seed):
    # one table: |x| (an atom at 0, so its rows are vacuous), a line, functions of
    # 1, 7 and 39 breakpoints, one flat at slope -0.0 on [-2, 0] (f(-h) must read
    # +0.0), and random functions
    rng = np.random.default_rng(seed)
    h_grid = np.linspace(0.05, 1.0, 20)
    xs = np.linspace(-2.0, 2.0, 41)
    fs = [
        ABS,
        PLConvex1D(np.zeros(0), np.array([0.0])),
        PLConvex1D(np.array([0.5]), np.array([0.0, 1.0])),
        PLConvex1D(np.linspace(-1.5, 1.5, 7), np.array([-2.0, -1.5, -1.0, -0.25, 0.25, 1.0, 1.5, 2.0])),
        PLConvex1D(xs[1:-1], np.diff(np.abs(xs) ** 3) / np.diff(xs)),
        PLConvex1D(np.array([-2.0, -1.0, 0.0]), np.array([-1.0, -0.0, -0.0, 1.0])),
    ]
    fs += [random_pl_convex(rng, atom_at_zero=(k % 2 == 0)) for k in range(20)]
    table = convex_taylor_check(fs, h_grid)
    assert all(column.shape == (len(fs), h_grid.size) for column in table.values())
    for k, f in enumerate(fs):
        assert repr(table_row(table, k)) == repr(_taylor_reference(f, h_grid))
    assert table["vacuous"][0].all() and table["vacuous"][3].all() and not table["vacuous"][2].any()


def test_tables_name_a_bad_object_by_index():
    d0 = AtomicMeasure1D(np.array([0.0]), np.array([1.0]))
    with pytest.raises(TypeError, match="measure 1 must be an AtomicMeasure1D, got PLConvex1D"):
        weak_one_one_check([d0, ABS], [1.0])
    with pytest.raises(ValueError, match="superlevel thresholds must be positive and finite"):
        weak_one_one_check([d0, d0], [1.0, math.nan])
    tilted = PLConvex1D(np.array([0.5]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match=r"function 2: 0 is not a subgradient at 0: slopes \(1.000e\+00, 1.000e\+00\)"):
        convex_taylor_check([ABS, ABS, tilted], [0.5])
    with pytest.raises(TypeError, match="function 1 must be a PLConvex1D, got AtomicMeasure1D"):
        convex_taylor_check([ABS, d0], [0.5])
    with pytest.raises(ValueError, match="h grid must be positive and finite"):
        convex_taylor_check([ABS, ABS], [0.5, -1.0])
    # no objects: (0, levels) columns
    assert all(c.shape == (0, 2) for c in weak_one_one_check([], [1.0, 2.0]).values())
    assert all(c.shape == (0, 3) for c in convex_taylor_check([], [0.25, 0.5, 1.0]).values())


def test_checks_name_a_single_object_passed_for_a_sequence():
    # unnamed, a single measure fails with "'AtomicMeasure1D' object is not iterable"
    d0 = AtomicMeasure1D(np.array([0.0]), np.array([1.0]))
    with pytest.raises(TypeError, match="weak_one_one_check takes a sequence of AtomicMeasure1D, got AtomicMeasure1D"):
        weak_one_one_check(d0, [1.0])
    with pytest.raises(TypeError, match="convex_taylor_check takes a sequence of PLConvex1D, got PLConvex1D"):
        convex_taylor_check(ABS, [0.5])
    # a generator would be used up by the type checks and read as no objects
    with pytest.raises(TypeError, match="convex_taylor_check takes a sequence of PLConvex1D, got generator"):
        convex_taylor_check((f for f in [ABS]), [0.5])


# unnamed, a 2-D grid fails inside numpy (a scalar conversion, a broadcast), and an
# empty one gives (objects, 0) arrays, on which np.all reads True with nothing checked
@pytest.mark.parametrize(
    "grid, shown", [([[1.0, 2.0]], "[[1.0, 2.0]]"), ([], "[]"), (1.0, "1.0")], ids=["2d", "empty", "scalar"]
)
def test_checks_name_a_grid_that_is_not_a_non_empty_1d_array(grid, shown):
    d0 = AtomicMeasure1D(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError, match=re.escape(f"weak_one_one_check needs a non-empty 1-D t_grid, got {shown}")):
        weak_one_one_check([d0], grid)
    with pytest.raises(ValueError, match=re.escape(f"convex_taylor_check needs a non-empty 1-D h_grid, got {shown}")):
        convex_taylor_check([ABS], grid)


def test_taylor_chain_random_pl():
    rng = np.random.default_rng(17)
    h_grid = np.linspace(0.05, 1.0, 20)
    fs = [random_pl_convex(rng, atom_at_zero=(k % 2 == 0)) for k in range(50)]
    table = convex_taylor_check(fs, h_grid)
    assert np.all(table["ok"])
    assert np.all(table["vacuous"][::2])


def test_l1_ball_dimensions():
    assert l1_ball_containment(1).max_ratio == pytest.approx(1.0)
    rep = l1_ball_containment(4)
    assert rep.ok
    assert rep.witness_ratio == pytest.approx(2.0)
    rep2 = l1_ball_containment(2)
    assert math.sqrt(2.0) - 1e-3 <= rep2.max_ratio <= math.sqrt(2.0) + 1e-12


@pytest.mark.parametrize("n", [0, -1, 2.5, True, "3", None])
def test_l1_ball_rejects_bad_dimension_by_name(n):
    with pytest.raises(ValueError, match=r"dimension must be an integer >= 1, got "):
        l1_ball_containment(n)


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
            for i in range(n):
                offset = x0.copy()
                offset[i] = 0.0
                mu = line_measure(f, offset, i, s_grid, convexity_tol)
                maxima.append(maximal_function(mu, float(x0[i])))
            if any(m > t for m in maxima):
                probes.append(InclusionProbe(float(t), tuple(map(float, x0)), True, True, True, 0.0))
                continue
            g = f.gradient_at_coords(x0).reshape(-1)
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
        # affine along both axes, so never in the tail set, and the hull bound
        # fails at small t
        (FunctionHandle("uv", S12, lambda x: x[..., 0, 0] * x[..., 0, 1], lambda x: x[..., ::-1]), [0.02, 0.1, 0.5]),
    ],
    ids=["abs_x11", "uv"],
)
def test_inclusion_probes_match_per_h_reference(f, t_values):
    probes = _inclusion_probes(f, np.array(t_values), 6, np.random.default_rng(7))
    args = (f, np.array(t_values), np.linspace(-3.0, 3.0, 121), 0.05, 6)
    assert repr(probes) == repr(_probes_reference(*args, np.random.default_rng(7), 1e-9))
    outside = [p for p in probes if not p.in_tail_set]
    assert outside
    if f.name == "uv":
        assert not all(p.hull_bound_ok for p in outside)


def test_fubini_threshold_refusal():
    h = abs_entry(0, 0, S12)
    with pytest.raises(ValueError, match="exceed"):
        fubini_tail_experiment(h, [5.0, 60.0], lines_per_direction=4, seed=0)


# a NaN level compares false against every bound, so it would pass them all
@pytest.mark.parametrize(
    "t_grid", [[], [19.0, math.nan], [math.nan, 40.0], [19.0, math.inf]], ids=["empty", "nan", "nan_first", "inf"]
)
def test_fubini_rejects_empty_or_non_finite_levels(t_grid):
    with pytest.raises(ValueError, match="t_grid must be non-empty and finite"):
        fubini_tail_experiment(abs_entry(0, 0, S12), t_grid, lines_per_direction=4, seed=0)


def test_fubini_rejects_a_grid_of_levels_that_is_not_1d():
    # numpy would fail on the increasing-order test with an ambiguous truth value
    with pytest.raises(ValueError, match=re.escape("needs a non-empty 1-D t_grid, got [[20.0, 40.0, 80.0]]")):
        fubini_tail_experiment(abs_entry(0, 0, S12), np.array([[20.0, 40.0, 80.0]]), lines_per_direction=4)


def test_fubini_rejects_negative_probe_count():
    with pytest.raises(ValueError, match="probe_count >= 0, got -1"):
        fubini_tail_experiment(abs_entry(0, 0, S12), [19.0, 40.0], lines_per_direction=4, probe_count=-1)


def test_fubini_rejects_nonconvex_restrictions():
    shape = MatrixShape(1, 2)
    h = FunctionHandle("cave", shape, lambda x: -0.5 * np.sum(x * x, axis=(-2, -1)), lambda x: -x)
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
    assert _covers(lo, hi)
    assert measure(hi) <= measure(lo) + 1e-12
    assert measure(lo) <= 2.0 * float(np.sum(mu.masses)) / t + 1e-9


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
        tangent = f(pivot) + _slope(f, pivot, "right") * (x - pivot)
        assert float(f(x)) >= tangent - 1e-9
