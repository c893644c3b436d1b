"""The certify path against its one-object-at-a-time references, for exact equality.

`certify_reference` keeps the majorant build, the segment checks, the tail
experiment, and the superlevel union and maximal function of one measure, as
they were before their vectorisation.
Every output here must match it bit for bit: tables by `tobytes()`, reports
and unions by `repr`, which spells each float exactly.
"""

import numpy as np
import pytest

import certify_reference as ref
from roconvex import convex1d, lowerbound, verify
from roconvex.convex1d import (
    AtomicMeasure1D,
    _LineRuns,
    maximal_function,
    superlevel,
    weak_one_one_check,
)
from roconvex.core import MatrixShape, ball_samples, grid_spec
from roconvex.corpus import abs_entry, corpus, frob_norm, half_norm_sq

GENERAL = [h for h in corpus() if not h.shape.symmetric]
S12 = MatrixShape(1, 2)
TAIL_T = np.exp(np.linspace(np.log(7.0), np.log(80.0), 8))  # the certify workload's levels

@pytest.mark.parametrize("h", GENERAL, ids=[h.name for h in GENERAL])
@pytest.mark.parametrize("centred", [True, False], ids=["x0_zero", "x0_off_centre"])
def test_majorant_tables_match_reference_bitwise(h, centred):
    rng = np.random.default_rng(21)
    x0 = np.zeros(h.shape.dim) if centred else np.linspace(-0.3, 0.2, h.shape.dim)
    samples = ball_samples(h.shape, x0, 1.0, 4000, rng)
    got = lowerbound.empirical_majorant(h, x0, samples)
    want = ref.empirical_majorant(h, x0, samples)
    assert got.radii.tobytes() == want.radii.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("clip", ["cube", "ball"])
@pytest.mark.parametrize("seed", range(5))
def test_segment_reports_match_reference_bitwise(clip, seed):
    sampler = verify.SegmentSampler(direction_count=16, step_count=12, seed=seed)
    for h in corpus():
        domain = grid_spec(h.shape, 1.0, 9, clip)
        for check, reference in (
            (verify.rank_one_convexity_check, ref.rank_one_convexity_check),
            (verify.separate_convexity_check, ref.separate_convexity_check),
        ):
            got, want = check(h, domain, sampler), reference(h, domain, sampler)
            assert repr(got) == repr(want), (h.name, check.__name__)
            assert got.witness is not None and got.samples_checked > 0


TAIL_CASES = [
    (abs_entry(0, 0, S12), TAIL_T, 48, 6),
    # an atom at every interior grid point, so long runs and merged unions
    (half_norm_sq(1.0, S12), [19.0, 40.0, 80.0, 191.0], 8, 2),
    (frob_norm(S12), [19.0, 40.0, 80.0], 12, 4),
    (abs_entry(0, 1, MatrixShape(1, 3)), [19.0, 40.0, 80.0], 12, 4),
]


@pytest.mark.parametrize("f, t_grid, lines, probes", TAIL_CASES, ids=[c[0].name for c in TAIL_CASES])
@pytest.mark.parametrize("seed", range(5))
def test_tail_reports_match_reference_bitwise(f, t_grid, lines, probes, seed):
    got = convex1d.fubini_tail_experiment(f, t_grid, lines, seed, probes)
    want = ref.fubini_tail_experiment(f, t_grid, lines, seed, probes)
    assert got.measures.tobytes() == want.measures.tobytes()
    assert repr(got.fitted_slope) == repr(want.fitted_slope)
    assert repr(got.inclusion) == repr(want.inclusion)


def test_line_runs_match_superlevel_and_maximal_function():
    # Random slope jumps at a per-line density, so lines hold from 0 to ~40 atoms
    # whose superlevel intervals overlap, nest, touch [-1, 1] or leave it.
    rng = np.random.default_rng(5)
    s_grid = np.linspace(-3.0, 3.0, 121)
    density = rng.choice([0.0, 0.02, 0.08, 0.3], size=(200, 1))
    jumps = np.where(rng.random((200, 119)) < density, rng.uniform(0.0, 3.0, (200, 119)), 0.0)
    slopes = np.concatenate([np.full((200, 1), -2.0), -2.0 + np.cumsum(jumps, axis=1)], axis=1)
    vals = np.concatenate([np.zeros((200, 1)), np.cumsum(slopes * 0.05, axis=1)], axis=1)
    runs = _LineRuns.fit(vals, np.zeros((200, 1)), 0)
    measures = []
    for row in vals:
        v_slopes = np.diff(row) / np.diff(s_grid)
        jumps_row = np.maximum(np.diff(v_slopes), 0.0)
        keep = jumps_row > 1e-12 * max(1.0, float(np.max(np.abs(v_slopes))))
        measures.append(AtomicMeasure1D(s_grid[1:-1][keep], jumps_row[keep]))
    assert any(mu.count > 8 for mu in measures) and any(mu.count == 0 for mu in measures)
    for t in (0.5, 2.0, 7.0, 30.0):
        unions = [ref.superlevel(mu, t) for mu in measures]
        assert sum(len(u) > 1 for u in unions) > 0
        assert repr([superlevel(mu, t) for mu in measures]) == repr(unions)
        want = [ref.clipped_measure(u, -1.0, 1.0) for u in unions]
        assert runs.measure(t, -1.0, 1.0).tobytes() == np.array(want).tobytes()
    x = rng.uniform(-1.0, 1.0, 200)
    x[:20] = [mu.locations[0] if mu.count else 0.0 for mu in measures[:20]]  # some points on atoms
    want = [ref.maximal_function(mu, float(xk)) for mu, xk in zip(measures, x)]
    assert runs.maximal(x).tobytes() == np.array(want).tobytes()
    assert [maximal_function(mu, float(xk)) for mu, xk in zip(measures, x)] == want


def test_padded_measures_match_their_own_runs_and_reference():
    # several measures of 0 to 6 atoms in one padded run set, each row zero-padded
    rng = np.random.default_rng(11)
    measures = [AtomicMeasure1D(np.zeros(0), np.zeros(0))]
    for k in (1, 3, 6, 2, 5):
        locs = np.sort(rng.uniform(-2.0, 2.0, size=k))
        measures.append(AtomicMeasure1D(locs, rng.uniform(0.1, 3.0, size=k)))
    count = np.array([mu.count for mu in measures])
    loc, mass = np.zeros((len(measures), 6)), np.zeros((len(measures), 6))
    for row, mu in enumerate(measures):
        loc[row, : mu.count], mass[row, : mu.count] = mu.locations, mu.masses
    runs = _LineRuns.padded(loc, mass, count)
    singles = [_LineRuns.of(mu) for mu in measures]
    for t in (0.5, 2.0, 7.0):
        unions = [ref.superlevel(mu, t) for mu in measures]
        for lo, hi in ((-np.inf, np.inf), (-1.0, 1.0)):
            got = runs.measure(t, lo, hi).tobytes()
            assert got == np.concatenate([one.measure(t, lo, hi) for one in singles]).tobytes()
            assert got == np.array([ref.clipped_measure(u, lo, hi) for u in unions]).tobytes()
    x = rng.uniform(-2.5, 2.5, len(measures))
    x[2] = measures[2].locations[1]  # a point on an atom
    got = runs.maximal(x).tobytes()
    assert got == np.concatenate([one.maximal(x[k : k + 1]) for k, one in enumerate(singles)]).tobytes()
    assert got == np.array([ref.maximal_function(mu, float(xk)) for mu, xk in zip(measures, x)]).tobytes()
    assert np.isinf(runs.maximal(x)[2])


def test_maximal_function_ignores_zero_mass_atoms():
    mu = AtomicMeasure1D(np.array([-0.5, 0.0, 0.5]), np.array([1.0, 0.0, 2.0]))
    # the zero-mass atom at 0 is no +inf; the best run is [0, 0.5], mass 2 over span 1/2
    assert maximal_function(mu, 0.0) == ref.maximal_function(mu, 0.0) == 4.0
    assert maximal_function(mu, 0.5) == ref.maximal_function(mu, 0.5) == np.inf


def test_weak_one_one_rows_match_reference_bitwise():
    # measures like the appendix's random ones, some with atoms outside [-2, 2]
    rng = np.random.default_rng(9)
    t_grid = np.exp(np.linspace(np.log(0.5), np.log(5.0), 9))
    for _ in range(60):
        locs = np.unique(rng.uniform(-3.0, 3.0, size=int(rng.integers(0, 9))))
        mu = AtomicMeasure1D(locs, rng.uniform(0.1, 3.0, size=locs.size))
        assert repr(ref.table_row(weak_one_one_check([mu], t_grid), 0)) == repr(ref.weak_one_one_check(mu, t_grid))
    with pytest.raises(ValueError, match="positive"):
        weak_one_one_check([mu], [1.0, 0.0])


@pytest.mark.parametrize("seed", range(5))
def test_weak_one_one_table_rows_match_reference_bitwise(seed):
    # one table: the empty measure, one-atom measures, atoms outside [-2, 2] that
    # the truncation drops (one at 2.0, which it keeps), and random measures
    rng = np.random.default_rng(seed)
    t_grid = np.exp(np.linspace(np.log(0.5), np.log(5.0), 9))
    measures = [
        AtomicMeasure1D(np.zeros(0), np.zeros(0)),
        AtomicMeasure1D(np.array([0.0]), np.array([1.0])),
        AtomicMeasure1D(np.array([2.5]), np.array([0.7])),
        AtomicMeasure1D(np.array([-2.5, -1.0, 0.5, 2.0, 2.2]), np.array([1.0, 0.5, 2.0, 0.3, 1.5])),
    ]
    for _ in range(30):
        locs = np.unique(rng.uniform(-3.0, 3.0, size=int(rng.integers(0, 7))))
        measures.append(AtomicMeasure1D(locs, rng.uniform(0.1, 3.0, size=locs.size)))
    table = weak_one_one_check(measures, t_grid)
    assert all(column.shape == (len(measures), t_grid.size) for column in table.values())
    for k, mu in enumerate(measures):
        assert repr(ref.table_row(table, k)) == repr(ref.weak_one_one_check(mu, t_grid))
    assert table["local_bound"][2].tolist() == [0.0] * t_grid.size  # its one atom is dropped

