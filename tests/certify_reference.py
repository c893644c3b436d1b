"""Reference implementations of the certify path as it was before its
vectorisation: the majorant build with each sample kept beside its column
split, segment checks built one (matrix, label) direction at a time, the tail
experiment one line at a time, with one merged interval union per line and
level, each from the reference's own atom runs (`_runs`). The tests compare the
library against these for exact equality; nothing in `src` calls them.
"""

from __future__ import annotations

import math

import numpy as np

from roconvex.convex1d import (
    LINE_CONVEXITY_TOL,
    LINE_RESOLUTION,
    AtomicMeasure1D,
    FubiniTailReport,
    InclusionProbe,
    osc_on_cube,
)
from roconvex.core import ball_samples, cube_samples
from roconvex.lowerbound import RadialMajorant, recentered_values
from roconvex.verify import ConvexityReport, SegmentSample, _midpoint_gaps, _region


def _frob_norm(shape, coords):
    return np.sqrt(np.sum((coords * shape.frob_weights()) ** 2, axis=-1))


def empirical_majorant(f, x0, samples):
    """The samples first, then (reflection, partial) per sample and column."""
    shape = f.shape
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    pts = np.asarray(samples, dtype=float)
    x0m = shape.coords_to_matrix(x0)
    mats = (shape.coords_to_matrix(pts) - x0m)[:, None]  # (K, 1, m, n)
    n = shape.cols
    upto = np.arange(n)[None, :] <= np.arange(n)[:, None]
    partials = np.where(upto[:, None, :], mats, 0.0)  # (K, n, m, n)
    reflections = partials - 2.0 * np.where(np.eye(n, dtype=bool)[:, None, :], mats, 0.0)
    extra = np.stack([reflections, partials], axis=2) + x0m
    pts = np.concatenate([pts, shape.matrix_to_coords(extra).reshape(-1, shape.dim)], axis=0)
    vals, _, _ = recentered_values(f, x0, pts)
    dist = _frob_norm(shape, pts - x0)
    rmax = float(np.max(dist))
    bins = 50
    edges = np.linspace(rmax / bins, rmax, bins)
    idx = np.minimum(np.searchsorted(edges, dist * (1.0 - 1e-12), side="left"), bins - 1)
    binmax = np.full(bins, -math.inf)
    np.maximum.at(binmax, idx, vals)
    binmax = np.maximum(binmax, 0.0)
    profile = np.maximum.accumulate(binmax)
    return RadialMajorant(x0=x0, radii=edges, values=profile)


def factor_label(a, b):
    return f"({np.array2string(a, precision=4)})(x)({np.array2string(b, precision=4)})"


def coordinate_directions(shape):
    """One (matrix, label) per coordinate: e_i (x) e_j, or in symmetric shape
    r_ij = (e_i+e_j) (x) (e_i+e_j) and r_ii = e_i (x) e_i."""
    dirs = []
    for i, j in shape.coord_pairs():
        a = np.zeros(shape.rows)
        b = np.zeros(shape.cols)
        a[i] = b[j] = 1.0
        if shape.symmetric:
            a[j] = b[i] = 1.0
        dirs.append((np.outer(a, b), f"r_{i + 1}{j + 1}" if shape.symmetric else factor_label(a, b)))
    return dirs


def random_directions(shape, count, rng):
    """One (a (x) b, label) per draw: a then b, each normalised by np.linalg.norm."""
    dirs = []
    for _ in range(count):
        if shape.symmetric:
            a = rng.standard_normal(shape.rows)
            a /= np.linalg.norm(a)
            b = a
        else:
            a = rng.standard_normal(shape.rows)
            a /= np.linalg.norm(a)
            b = rng.standard_normal(shape.cols)
            b /= np.linalg.norm(b)
        dirs.append((np.outer(a, b), factor_label(a, b)))
    return dirs


def _segment_check(f, domain, sampler, directions, operation):
    """Bases, directions and steps written one direction block at a time."""
    region = _region(f, domain)
    shape = region.shape
    radius = region.radius
    draw = ball_samples if region.clip == "ball" else cube_samples
    rng = np.random.default_rng(sampler.seed)
    block = 2 + sampler.step_count
    base = np.empty((len(directions) * block, shape.dim))
    dirs = np.empty_like(base)
    t = np.empty(len(base))
    for k, (matrix, _) in enumerate(directions):
        lo, hi = k * block, (k + 1) * block
        dirs[lo:hi] = shape.matrix_to_coords(matrix)
        dnorm = _frob_norm(shape, dirs[lo])
        base[lo : lo + 2] = region.center.coords
        t[lo : lo + 2] = np.array([0.5, 0.25]) * radius / dnorm
        base[lo + 2 : hi] = draw(shape, region.center.coords, radius, sampler.step_count, rng)
        t[lo + 2 : hi] = rng.uniform(0.0, radius / dnorm, size=sampler.step_count)
    gaps, ok = _midpoint_gaps(f, region, base, dirs, t)
    admissible = ok & (t > 0.0)
    violations = np.where(admissible, gaps, -np.inf)
    checked = int(np.sum(admissible))
    skipped = int(admissible.size - checked)
    if checked == 0:
        return ConvexityReport(operation, float("nan"), None, 0, skipped, sampler.seed)
    k = int(np.argmax(violations))
    witness = SegmentSample(
        base=tuple(float(c) for c in base[k]),
        direction=tuple(float(c) for c in dirs[k]),
        direction_label=directions[k // block][1],
        t=float(t[k]),
    )
    return ConvexityReport(operation, float(violations[k]), witness, checked, skipped, sampler.seed)


def rank_one_convexity_check(f, domain, sampler):
    rng = np.random.default_rng(sampler.seed + 1)
    directions = coordinate_directions(f.shape)
    directions += random_directions(f.shape, sampler.direction_count, rng)
    return _segment_check(f, domain, sampler, directions, "rank_one_convexity_check")


def separate_convexity_check(f, domain, sampler):
    shape = f.shape
    directions = coordinate_directions(shape)
    if shape.symmetric:
        directions = [d for (i, j), d in zip(shape.coord_pairs(), directions) if i == j]  # r_ii
    return _segment_check(f, domain, sampler, directions, "separate_convexity_check")


def _runs(mu):
    i, j = np.triu_indices(mu.count)
    prefix = np.concatenate([[0.0], np.cumsum(mu.masses)])
    return mu.locations[i], mu.locations[j], prefix[j + 1] - prefix[i]


def maximal_function(mu, x):
    at = np.abs(mu.locations - x) == 0.0
    if np.any(at & (mu.masses > 0)):
        return math.inf
    left, right, mass = _runs(mu)
    span = np.maximum(right, x) - np.minimum(left, x)
    good = span > 0
    return float(np.max(mass[good] / span[good], initial=0.0))


def _merge(starts, ends):
    if starts.size == 0:
        return ()
    order = np.argsort(starts, kind="stable")
    s, e = starts[order], ends[order]
    out = []
    cur_s, cur_e = float(s[0]), float(e[0])
    for k in range(1, s.size):
        if s[k] <= cur_e:
            cur_e = max(cur_e, float(e[k]))
        else:
            out.append((cur_s, cur_e))
            cur_s, cur_e = float(s[k]), float(e[k])
    out.append((cur_s, cur_e))
    return tuple(out)


def superlevel(mu, t):
    left, right, mass = _runs(mu)
    if mass.size == 0:
        return ()
    ell = mass / t
    keep = (right - left) < ell
    return _merge(right[keep] - ell[keep], left[keep] + ell[keep])


def table_row(table, k):
    """Object k of a 1-D check's table, in the references' form: each key's levels as a list."""
    return {name: column[k].tolist() for name, column in table.items()}


def measure(union):
    """|union|: the lengths of its (start, end) pairs added left to right from 0."""
    return float(sum(b - a for a, b in union))


def clipped_measure(union, lo, hi):
    """|union cap [lo, hi]|: the clipped intervals' lengths added left to right from 0."""
    return float(sum(min(b, hi) - max(a, lo) for a, b in union if max(a, lo) < min(b, hi)))


def weak_one_one_check(mu, t_grid):
    """Two superlevel unions per level, one level at a time, as the columns of the
    check's table."""
    sel = (mu.locations >= -2.0) & (mu.locations <= 2.0)
    trunc = AtomicMeasure1D(mu.locations[sel], mu.masses[sel])
    total, local_total = float(np.sum(mu.masses)), float(np.sum(trunc.masses))
    rows = []
    for t in t_grid:
        t = float(t)
        full = superlevel(mu, t)
        local = superlevel(trunc, t)
        rows.append(
            {
                "t": t,
                "measure": measure(full),
                "bound": 2.0 * total / t,
                "ok": measure(full) <= 2.0 * total / t + 1e-12,
                "local_measure": measure(local),
                "local_bound": 2.0 * local_total / t,
                "local_ok": measure(local) <= 2.0 * local_total / t + 1e-12,
                "window_measure": clipped_measure(full, -1.0, 1.0),
            }
        )
    return {name: [row[name] for row in rows] for name in rows[0]}


def line_values(f, offset, direction, s_grid):
    coords = np.tile(offset, (s_grid.size, 1))
    coords[:, direction] = offset[direction] + s_grid
    return f.value_at_coords(coords)


def line_measure(f, offset, direction, s_grid, tol):
    vals = line_values(f, offset, direction, s_grid)
    slopes = np.diff(vals) / np.diff(s_grid)
    dips = np.diff(slopes)
    if dips.size and float(np.min(dips)) < -tol:
        raise ValueError(f"restriction along axis {direction} at offset {offset.tolist()} is not convex")
    jumps = np.maximum(np.diff(slopes), 0.0)
    floor = 1e-12 * max(1.0, float(np.max(np.abs(slopes))))
    keep = jumps > floor
    return AtomicMeasure1D(s_grid[1:-1][keep], jumps[keep])


def fubini_tail_experiment(f, t_grid, lines_per_direction=48, seed=0, probe_count=12):
    """One line measure per offset, one superlevel union per line and level."""
    n = f.shape.cols
    s_grid = np.linspace(-3.0, 3.0, 2 * round(3.0 / LINE_RESOLUTION) + 1)
    osc = osc_on_cube(f, 3.0)
    t_arr = np.asarray(list(t_grid), dtype=float)
    rng = np.random.default_rng(seed)
    cross_volume = 2.0 ** (n - 1)
    line_measures = []
    for i in range(n):
        offsets = rng.uniform(-1.0, 1.0, size=(lines_per_direction, n))
        offsets[:, i] = 0.0
        line_measures.append(
            [line_measure(f, offsets[k], i, s_grid, LINE_CONVEXITY_TOL) for k in range(lines_per_direction)]
        )
    measures = np.zeros(t_arr.size)
    for j, t in enumerate(t_arr):
        for i in range(n):
            meas = [clipped_measure(superlevel(mu, float(t)), -1.0, 1.0) for mu in line_measures[i]]
            measures[j] += float(np.mean(meas)) * cross_volume
    good = measures > 0
    slope = None
    if int(np.sum(good)) >= 3:
        slope = float(np.polyfit(np.log(t_arr[good]), np.log(measures[good]), 1)[0])
    inclusion = _inclusion_probes(f, t_arr, s_grid, LINE_RESOLUTION, probe_count, rng, LINE_CONVEXITY_TOL)
    return FubiniTailReport(t_arr, measures, osc, 2.0 * osc, slope, tuple(inclusion))


def _inclusion_probes(f, t_arr, s_grid, resolution, probe_count, rng, convexity_tol):
    tol = 1e-7
    n = f.shape.cols
    h_values = np.arange(resolution, 1.0, resolution)
    axis_z = h_values[:, None, None] * np.concatenate([np.eye(n), -np.eye(n)])[None]
    probes = []
    for t in t_arr:
        cap = (2.0 * t * h_values * h_values)[:, None]
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
            axis_vals = f.value_at_coords(x0 + axis_z) - f0 - axis_z @ g
            axis_ok = not (np.any(axis_vals < -tol) or np.any(axis_vals > cap + tol))
            sphere = rng.standard_normal((h_values.size, 16, n))
            sphere /= np.linalg.norm(sphere, axis=2)[..., None]
            zb = (h_values / math.sqrt(n))[:, None, None] * sphere
            ball_vals = f.value_at_coords(x0 + zb) - f0 - zb @ g
            fails = np.any(ball_vals > 2.0 * n * t * np.sum(zb * zb, axis=2) + tol, axis=1)
            hull_ok = not np.any(fails)
            worst = max(
                float(np.max(axis_vals - cap, initial=-math.inf)),
                float(np.max(-axis_vals, initial=-math.inf)),
                float(np.max((ball_vals - cap)[fails], initial=-math.inf)),
            )
            probes.append(InclusionProbe(float(t), tuple(map(float, x0)), False, axis_ok, hull_ok, worst))
    return probes

