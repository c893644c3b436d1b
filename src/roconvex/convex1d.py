"""One-dimensional machinery: piecewise-linear convex functions, their atomic
second-derivative measures, exact maximal functions and superlevel sets, the
weak (1,1) estimate, the convex Taylor chain, ell^1-ball geometry, and the
per-line tail experiment on product cubes.

Piecewise-linear representatives make every object here exactly computable:
second derivatives are finite sums of atoms, the maximal function is a maximum
over O(k^2) atom runs, and superlevel sets are finite unions of open intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .corpus import FunctionHandle


@dataclass(frozen=True)
class PLConvex1D:
    """Piecewise-linear convex function: breakpoints, interval slopes, one anchor value."""

    breakpoints: np.ndarray  # strictly increasing, possibly empty
    slopes: np.ndarray  # len(breakpoints) + 1, non-decreasing
    anchor_x: float = 0.0
    anchor_value: float = 0.0

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=float).reshape(-1)
        sl = np.asarray(self.slopes, dtype=float).reshape(-1)
        if sl.size != bp.size + 1:
            raise ValueError("need one slope per interval (breakpoints + 1)")
        if bp.size and np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if sl.size > 1 and np.any(np.diff(sl) < -1e-12 * max(1.0, float(np.max(np.abs(sl))))):
            raise ValueError("slopes must be non-decreasing (convexity)")
        sl = np.maximum.accumulate(sl)  # absorb roundoff-scale dips
        bp.flags.writeable = False
        sl.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", sl)

    @classmethod
    def from_samples(cls, xs: np.ndarray, vs: np.ndarray, tol: float = 1e-9) -> "PLConvex1D":
        """Interpolate samples of a convex function; secant slopes must be non-decreasing."""
        xs = np.asarray(xs, dtype=float)
        vs = np.asarray(vs, dtype=float)
        if xs.size < 2 or np.any(np.diff(xs) <= 0):
            raise ValueError("need at least two strictly increasing sample points")
        slopes = np.diff(vs) / np.diff(xs)
        dips = np.diff(slopes)
        if dips.size and float(np.min(dips)) < -tol:
            raise ValueError(f"samples are not convex: slope dip {float(np.min(dips)):.3e}")
        return cls(
            breakpoints=xs[1:-1],
            slopes=np.maximum.accumulate(slopes),
            anchor_x=float(xs[0]),
            anchor_value=float(vs[0]),
        )

    def _raw(self, z: np.ndarray) -> np.ndarray:
        """Antiderivative of the slope profile, zero at the first breakpoint."""
        bp = self.breakpoints
        sl = self.slopes
        if bp.size == 0:
            return sl[0] * z
        node_vals = np.concatenate([[0.0], np.cumsum(sl[1:-1] * np.diff(bp))]) if bp.size > 1 else np.array([0.0])
        idx = np.searchsorted(bp, z, side="right")
        below = sl[0] * (z - bp[0])
        left_bp = np.clip(idx - 1, 0, bp.size - 1)
        above = node_vals[left_bp] + sl[idx] * (z - bp[left_bp])
        return np.where(idx == 0, below, above)

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        scalar = np.isscalar(x)
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        vals = self.anchor_value + self._raw(xq) - self._raw(np.array([self.anchor_x]))[0]
        return float(vals[0]) if scalar else vals

    def left_slope(self, x: float) -> float:
        idx = int(np.searchsorted(self.breakpoints, x, side="left"))
        return float(self.slopes[idx])

    def right_slope(self, x: float) -> float:
        idx = int(np.searchsorted(self.breakpoints, x, side="right"))
        return float(self.slopes[idx])


@dataclass(frozen=True)
class AtomicMeasure1D:
    """Finite non-negative atomic measure: sorted distinct locations with masses."""

    locations: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        loc = np.asarray(self.locations, dtype=float).reshape(-1)
        mass = np.asarray(self.masses, dtype=float).reshape(-1)
        if loc.size != mass.size:
            raise ValueError("locations and masses must align")
        if loc.size and np.any(np.diff(loc) <= 0):
            raise ValueError("locations must be strictly increasing")
        if np.any(mass < 0):
            raise ValueError("masses must be non-negative")
        loc.flags.writeable = False
        mass.flags.writeable = False
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "masses", mass)

    @property
    def count(self) -> int:
        return self.locations.size

    def total(self) -> float:
        return float(np.sum(self.masses))

    def mass_closed(self, a: float, b: float) -> float:
        """Mass of the closed interval [a, b]."""
        sel = (self.locations >= a) & (self.locations <= b)
        return float(np.sum(self.masses[sel]))

    def restrict(self, a: float, b: float) -> "AtomicMeasure1D":
        sel = (self.locations >= a) & (self.locations <= b)
        return AtomicMeasure1D(self.locations[sel], self.masses[sel])

    @cached_property
    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All contiguous atom runs as (left_loc, right_loc, mass); O(k^2) of them."""
        i, j = np.triu_indices(self.count)
        prefix = np.concatenate([[0.0], np.cumsum(self.masses)])
        runs = self.locations[i], self.locations[j], prefix[j + 1] - prefix[i]
        for arr in runs:
            arr.flags.writeable = False
        return runs


def second_derivative_measure(f: PLConvex1D) -> AtomicMeasure1D:
    """One atom per breakpoint, mass = slope jump; zero jumps are dropped."""
    jumps = np.diff(f.slopes)
    keep = jumps > 0
    return AtomicMeasure1D(f.breakpoints[keep], jumps[keep])


def maximal_function(mu: AtomicMeasure1D, x: float) -> float:
    """sup over open intervals I containing x of mu(I)/|I|, exactly.

    The supremum over intervals pinching a contiguous atom run [a_i, a_j] and x
    equals run mass / span(run, x); it is +inf exactly at atoms.
    """
    if mu.count == 0:
        return 0.0
    at = np.abs(mu.locations - x) == 0.0
    if np.any(at & (mu.masses > 0)):
        return math.inf
    left, right, mass = mu.runs
    span = np.maximum(right, x) - np.minimum(left, x)
    good = span > 0
    if not np.any(good):
        return math.inf
    return float(np.max(mass[good] / span[good]))


@dataclass(frozen=True)
class IntervalUnion:
    """Disjoint sorted open intervals; endpoints touching at a point are merged."""

    intervals: tuple[tuple[float, float], ...]

    @property
    def measure(self) -> float:
        return float(sum(b - a for a, b in self.intervals))

    def intersect(self, lo: float, hi: float) -> "IntervalUnion":
        out = []
        for a, b in self.intervals:
            a2, b2 = max(a, lo), min(b, hi)
            if a2 < b2:
                out.append((a2, b2))
        return IntervalUnion(tuple(out))

    def contains_point(self, x: float) -> bool:
        return any(a < x < b for a, b in self.intervals)

    def covers(self, other: "IntervalUnion") -> bool:
        """True when every interval of `other` lies inside one interval of self."""
        for a, b in other.intervals:
            if not any(a2 <= a and b <= b2 for a2, b2 in self.intervals):
                return False
        return True


def _merge(starts: np.ndarray, ends: np.ndarray) -> IntervalUnion:
    if starts.size == 0:
        return IntervalUnion(())
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
    return IntervalUnion(tuple(out))


def superlevel(mu: AtomicMeasure1D, t: float) -> IntervalUnion:
    """{M mu > t} as an exact union of open intervals."""
    if t <= 0:
        raise ValueError("superlevel threshold must be positive")
    left, right, mass = mu.runs
    if mass.size == 0:
        return IntervalUnion(())
    ell = mass / t
    keep = (right - left) < ell
    starts = right[keep] - ell[keep]
    ends = left[keep] + ell[keep]
    return _merge(starts, ends)


@dataclass(frozen=True)
class WeakOneOneRow:
    t: float
    measure: float
    bound: float  # 2 mu(R) / t
    ok: bool
    local_measure: float  # |{M mu~ > t}| for the [-2,2] truncation
    local_bound: float  # 2 mu[-2,2] / t
    local_ok: bool
    window_measure: float  # |{M mu > t} cap [-1,1]|


def weak_one_one_check(mu: AtomicMeasure1D, t_grid: Sequence[float]) -> list[WeakOneOneRow]:
    """The maximal-function distribution bound with explicit constant 2, plus the
    localized variant through the [-2,2] truncation."""
    trunc = mu.restrict(-2.0, 2.0)
    total, local_total = mu.total(), trunc.total()
    rows = []
    for t in t_grid:
        t = float(t)
        full = superlevel(mu, t)
        local = superlevel(trunc, t)
        rows.append(
            WeakOneOneRow(
                t=t,
                measure=full.measure,
                bound=2.0 * total / t,
                ok=full.measure <= 2.0 * total / t + 1e-12,
                local_measure=local.measure,
                local_bound=2.0 * local_total / t,
                local_ok=local.measure <= 2.0 * local_total / t + 1e-12,
                window_measure=full.intersect(-1.0, 1.0).measure,
            )
        )
    return rows


@dataclass(frozen=True)
class TaylorChainRow:
    h: float
    f_plus: float
    bound_mid_plus: float  # f''[0,h] * h
    f_minus: float
    bound_mid_minus: float  # f''[-h,0] * h
    bound_max: float  # M f''(0) * h^2, inf when vacuous
    ok: bool
    vacuous: bool


def convex_taylor_check(
    f: PLConvex1D, h_grid: Sequence[float], tol: float = 1e-10
) -> list[TaylorChainRow]:
    """The chain 0 <= f(h) <= f''[0,h] h <= M f''(0) h^2 and its mirror, per h.

    Requires the normalization f(0) = 0 with 0 in the subdifferential at 0.
    The interval masses use closed endpoints; an atom exactly at 0 makes the
    maximal bound infinite and the final inequality vacuous (flagged).
    """
    if abs(f(0.0)) > tol:
        raise ValueError(f"normalization f(0) = 0 violated: f(0) = {f(0.0):.3e}")
    if f.left_slope(0.0) > tol or f.right_slope(0.0) < -tol:
        raise ValueError(
            f"0 is not a subgradient at 0: slopes ({f.left_slope(0.0):.3e}, {f.right_slope(0.0):.3e})"
        )
    h = np.asarray(list(h_grid), dtype=float)
    if np.any(h <= 0):
        raise ValueError("h grid must be positive")
    mu = second_derivative_measure(f)
    m0 = maximal_function(mu, 0.0)
    vac = math.isinf(m0)
    loc, mass = mu.locations, mu.masses
    # The atoms in [0, h] and in [-h, 0] are contiguous runs; each distinct run
    # is summed once by np.sum, as mass_closed sums it.
    lo0, hi0 = np.searchsorted(loc, 0.0, "left"), np.searchsorted(loc, 0.0, "right")
    plus = np.array([np.sum(mass[lo0:j]) for j in range(lo0, loc.size + 1)])
    minus = np.array([np.sum(mass[i:hi0]) for i in range(hi0 + 1)])
    jp = plus[np.searchsorted(loc, h, "right") - lo0] * h
    jm = minus[np.searchsorted(loc, -h, "left")] * h
    fp, fm = f(h), f(-h)
    top = np.full(h.size, math.inf) if vac else m0 * h * h  # vacuous: inf bounds everything
    ok = (fp >= -tol) & (fm >= -tol) & (fp <= jp + tol) & (fm <= jm + tol)
    ok &= (jp <= top + tol) & (jm <= top + tol)
    cols = (h, fp, jp, fm, jm, top, ok)
    return [TaylorChainRow(*row, vac) for row in zip(*(c.tolist() for c in cols))]


@dataclass(frozen=True)
class L1BallReport:
    max_ratio: float
    bound: float
    witness: np.ndarray
    witness_ratio: float

    @property
    def ok(self) -> bool:
        return self.max_ratio <= self.bound + 1e-12


def l1_ball_containment(n: int, sample_count: int = 100_000, seed: int = 0) -> L1BallReport:
    """max |x|_1 / |x|_2 over random unit vectors, with the flat witness included.

    The bound sqrt(n) is the containment radius: the hull of {±h e_j} holds the
    ball of radius h / sqrt(n), and membership is |x|_1 <= h.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((sample_count, n))
    x /= np.linalg.norm(x, axis=1)[:, None]
    witness = np.full(n, 1.0 / math.sqrt(n))
    x = np.concatenate([x, witness[None, :]], axis=0)
    ratios = np.sum(np.abs(x), axis=1)
    k = int(np.argmax(ratios))
    return L1BallReport(
        max_ratio=float(ratios[k]),
        bound=math.sqrt(n),
        witness=x[k],
        witness_ratio=float(np.sum(np.abs(witness))),
    )


def in_coordinate_hull(x: np.ndarray, h: float) -> np.ndarray:
    """Membership in conv{+-h e_j}: the ell^1 ball of radius h."""
    return np.sum(np.abs(np.atleast_2d(x)), axis=1) <= h


def osc_on_cube(f: FunctionHandle, half_width: float, points_per_axis: int = 41) -> float:
    """max - min of f over a dense lattice of the coordinate cube."""
    n = f.shape.dim
    axes = [np.linspace(-half_width, half_width, points_per_axis)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    vals = f.value_at_coords(coords)
    return float(np.max(vals) - np.min(vals))


@dataclass(frozen=True)
class InclusionProbe:
    t: float
    x0: tuple[float, ...]
    in_tail_set: bool
    axis_bound_ok: bool
    hull_bound_ok: bool
    worst_excess: float


@dataclass(frozen=True)
class FubiniTailReport:
    t_grid: np.ndarray
    measures: np.ndarray  # per t: sum_i mean_y |E_y| * cross-section volume
    oscillation: float
    threshold: float
    fitted_slope: float | None
    inclusion: tuple[InclusionProbe, ...]


def _line_values(f: FunctionHandle, offset: np.ndarray, direction: int, s_grid: np.ndarray) -> np.ndarray:
    coords = np.tile(offset, (s_grid.size, 1))
    coords[:, direction] = offset[direction] + s_grid
    return f.value_at_coords(coords)


def _line_measure(
    f: FunctionHandle, offset: np.ndarray, direction: int, s_grid: np.ndarray, tol: float
) -> AtomicMeasure1D:
    vals = _line_values(f, offset, direction, s_grid)
    slopes = np.diff(vals) / np.diff(s_grid)
    dips = np.diff(slopes)
    if dips.size and float(np.min(dips)) < -tol:
        raise ValueError(
            f"restriction along axis {direction} at offset {offset.tolist()} is not convex"
        )
    jumps = np.maximum(np.diff(slopes), 0.0)
    # roundoff floor: secant slopes of affine restrictions jitter at ~1e-16
    floor = 1e-12 * max(1.0, float(np.max(np.abs(slopes))))
    keep = jumps > floor
    return AtomicMeasure1D(s_grid[1:-1][keep], jumps[keep])


def fubini_tail_experiment(
    f: FunctionHandle,
    t_grid: Sequence[float],
    lines_per_direction: int = 48,
    resolution: float = 0.05,
    seed: int = 0,
    probe_count: int = 12,
    convexity_tol: float = 1e-9,
) -> FubiniTailReport:
    """Per-line superlevel tail of axis restrictions over the unit cube.

    For each axis direction and sampled offsets in the perpendicular slice of
    the unit cube, the restriction is fitted piecewise-linearly on [-3, 3] at
    `resolution`, its second-derivative measure extracted, and the superlevel
    set {M f_y'' > t} cap [-1, 1] computed exactly. Aggregates estimate the
    tail-set measure; probes outside the tail set verify the axis Taylor bound
    0 <= f~(h e_i) <= 2 t h^2 and the paraboloid bound of opening 4 n t on the
    inscribed balls of the coordinate hulls.
    """
    shape = f.shape
    if shape.rows != 1 or shape.symmetric:
        raise ValueError("the tail experiment runs on row-vector shapes (1 x n)")
    n = shape.cols
    steps = round(3.0 / resolution)
    if abs(steps * resolution - 3.0) > 1e-9:
        raise ValueError("resolution must divide 3")
    s_grid = np.linspace(-3.0, 3.0, 2 * steps + 1)

    osc = osc_on_cube(f, 3.0)
    threshold = 2.0 * osc
    t_arr = np.asarray(list(t_grid), dtype=float)
    if np.any(np.diff(t_arr) <= 0):
        raise ValueError("t_grid must be increasing")
    if t_arr[0] <= threshold:
        raise ValueError(f"t values must exceed 2 osc(f, Q_3) = {threshold}")

    rng = np.random.default_rng(seed)
    cross_volume = 2.0 ** (n - 1)
    line_measures: list[list[AtomicMeasure1D]] = []
    for i in range(n):
        offsets = rng.uniform(-1.0, 1.0, size=(lines_per_direction, n))
        offsets[:, i] = 0.0
        line_measures.append(
            [_line_measure(f, offsets[k], i, s_grid, convexity_tol) for k in range(lines_per_direction)]
        )

    measures = np.zeros(t_arr.size)
    for j, t in enumerate(t_arr):
        for i in range(n):
            meas = [superlevel(mu, float(t)).intersect(-1.0, 1.0).measure for mu in line_measures[i]]
            measures[j] += float(np.mean(meas)) * cross_volume

    good = measures > 0
    slope = None
    if int(np.sum(good)) >= 3:
        fit = np.polyfit(np.log(t_arr[good]), np.log(measures[good]), 1)
        slope = float(fit[0])

    inclusion = _inclusion_probes(f, t_arr, s_grid, resolution, probe_count, rng, convexity_tol)
    return FubiniTailReport(
        t_grid=t_arr,
        measures=measures,
        oscillation=osc,
        threshold=threshold,
        fitted_slope=slope,
        inclusion=tuple(inclusion),
    )


def _inclusion_probes(
    f: FunctionHandle,
    t_arr: np.ndarray,
    s_grid: np.ndarray,
    resolution: float,
    probe_count: int,
    rng: np.random.Generator,
    convexity_tol: float,
    tol: float = 1e-7,
) -> list[InclusionProbe]:
    """At probes off the tail set, check the axis chain and the hull paraboloid bound."""
    n = f.shape.cols
    h_values = np.arange(resolution, 1.0, resolution)
    # Points stay stacked as (H, k, n), so `@` multiplies one (k, n) block per h.
    axis_z = h_values[:, None, None] * np.concatenate([np.eye(n), -np.eye(n)])[None]
    probes = []
    for t in t_arr:
        cap = (2.0 * t * h_values * h_values)[:, None]
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
            axis_vals = f.value_at_coords(x0 + axis_z) - f0 - axis_z @ g
            axis_ok = not (np.any(axis_vals < -tol) or np.any(axis_vals > cap + tol))
            # the same normals, in the same order, as one (16, n) draw per h
            sphere = rng.standard_normal((h_values.size, 16, n))
            sphere /= np.linalg.norm(sphere, axis=2)[..., None]
            zb = (h_values / math.sqrt(n))[:, None, None] * sphere
            ball_vals = f.value_at_coords(x0 + zb) - f0 - zb @ g
            # opening 4 n t paraboloid dominates on |z| = h / sqrt(n)
            fails = np.any(ball_vals > 2.0 * n * t * np.sum(zb * zb, axis=2) + tol, axis=1)
            hull_ok = not np.any(fails)
            worst = max(
                float(np.max(axis_vals - cap, initial=-math.inf)),
                float(np.max(-axis_vals, initial=-math.inf)),
                float(np.max((ball_vals - cap)[fails], initial=-math.inf)),
            )
            probes.append(
                InclusionProbe(float(t), tuple(map(float, x0)), False, axis_ok, hull_ok, worst)
            )
    return probes


def random_pl_convex(
    rng: np.random.Generator,
    max_breakpoints: int = 6,
    span: float = 2.0,
    atom_at_zero: bool = False,
) -> PLConvex1D:
    """Random convex PL function normalized to f(0) = 0 with 0 in the subdifferential."""
    k = int(rng.integers(1, max_breakpoints + 1))
    bp = np.sort(rng.uniform(-span, span, size=k))
    bp = bp[np.abs(bp) > 1e-3]
    if bp.size > 1:
        bp = bp[np.concatenate([[True], np.diff(bp) > 1e-6])]
    if atom_at_zero:
        bp = np.sort(np.append(bp, 0.0))
    if bp.size == 0:
        bp = np.array([0.5])
    jumps = rng.uniform(0.1, 2.0, size=bp.size)
    mass_left = float(np.sum(jumps[bp < 0.0]))
    if atom_at_zero:
        j0 = float(jumps[bp == 0.0][0])
        s0 = -mass_left - float(rng.uniform(0.1, 0.9)) * j0
    else:
        s0 = -mass_left  # the interval containing 0 gets slope exactly 0
    slopes = np.concatenate([[s0], s0 + np.cumsum(jumps)])
    return PLConvex1D(breakpoints=bp, slopes=slopes, anchor_x=0.0, anchor_value=0.0)
