"""One-dimensional machinery: piecewise-linear convex functions, their atomic
second-derivative measures, exact maximal functions and superlevel sets, the
weak (1,1) estimate, the convex Taylor chain, ell^1-ball geometry, and the
per-line tail experiment on product cubes.

Piecewise-linear representatives make every object here exactly computable:
second derivatives are finite sums of atoms, the maximal function is a maximum
over O(k^2) atom runs, and superlevel sets are finite unions of open intervals.
PL convex functions are zero at the origin, and every atom-run set, of one
measure or of lines fitted on the fixed LINE_GRID, comes from one padded builder.

Each of the weak (1,1) and Taylor checks is one batched function:
weak_one_one_check and convex_taylor_check take a sequence of measures or
functions and a 1-D grid of levels, check them together on padded arrays, and
return a dict of (objects, levels) arrays. Interval masses keep np.sum's
rounding, so an object's row has the bits of the same object checked alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import loglog_fit, seeded_rng
from .corpus import FunctionHandle

LINE_RESOLUTION = 0.05  # step of LINE_GRID and of the inclusion probes' h values
LINE_CONVEXITY_TOL = 1e-9  # largest secant-slope dip a fitted line may show
LINE_GRID = np.linspace(-3.0, 3.0, 2 * round(3.0 / LINE_RESOLUTION) + 1)  # every line's fit grid
LINE_GRID.flags.writeable = False


@dataclass(frozen=True)
class PLConvex1D:
    """Piecewise-linear convex function with f(0) = 0: breakpoints and interval slopes."""

    breakpoints: np.ndarray  # strictly increasing, possibly empty
    slopes: np.ndarray  # len(breakpoints) + 1, non-decreasing

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=float).reshape(-1)
        sl = np.asarray(self.slopes, dtype=float).reshape(-1)
        for name, v in (("breakpoints", bp), ("slopes", sl)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite, got {np.asarray(v).tolist()}")
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

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        scalar = np.isscalar(x)
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.all(np.isfinite(xq)):
            raise ValueError(f"PLConvex1D needs a finite point, got {float(xq[~np.isfinite(xq)][0])}")
        vals = _pl_values(*_pl_rows([self]), xq.reshape(1, -1)).reshape(xq.shape)
        return float(vals[0]) if scalar else vals


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
        for name, v in (("locations", loc), ("masses", mass)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite, got {v.tolist()}")
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


def _packed(rows: Sequence[np.ndarray], width: int = 0) -> np.ndarray:
    """1-D arrays as the rows of one array, each zero-padded to the longest (or `width`)."""
    count = np.array([r.size for r in rows], dtype=np.intp)
    out = np.zeros((len(rows), max(width, int(np.max(count, initial=0)))))
    out[np.arange(out.shape[1]) < count[:, None]] = np.concatenate([np.zeros(0), *rows])
    return out


def _kept(keep: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """How many entries of each row `keep` holds, then each array's kept entries
    moved to the front of their row, in order, and zero-padded."""
    first = np.argsort(~keep, axis=1, kind="stable")
    return np.sum(keep, axis=1), *(np.take_along_axis(np.where(keep, a, 0.0), first, axis=1) for a in arrays)


def _window_sums(values: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """np.sum(values[k, start[k, w]:stop[k, w]]) for each row k and window w, with
    np.sum's own rounding: it adds 8 or more terms pairwise, not left to right, so
    the windows of each length are gathered as the rows of one array and summed."""
    rows = np.broadcast_to(np.arange(len(values))[:, None], start.shape)
    length = stop - start
    out = np.zeros(length.shape)
    for n in np.unique(length[length > 0]).tolist():
        sel = length == n
        out[sel] = np.sum(values[rows[sel][:, None], start[sel][:, None] + np.arange(n)], axis=1)
    return out


def _pl_rows(functions: Sequence[PLConvex1D]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Breakpoints (F, K) and slopes (F, K + 1) of PL functions, zero-padded past each
    row's own, and the breakpoint counts. K >= 1, so a row without breakpoints
    reads the padding breakpoint 0.0."""
    bp = _packed([f.breakpoints for f in functions], 1)
    sl = _packed([f.slopes for f in functions], bp.shape[1] + 1)
    return bp, sl, np.array([f.breakpoints.size for f in functions], dtype=np.intp)


def _pl_values(bp: np.ndarray, sl: np.ndarray, count: np.ndarray, z: np.ndarray) -> np.ndarray:
    """f_k(z[k]) of each row's function, as `_pl_rows` packs them: the antiderivative
    of the slope profile, zero at the first breakpoint, minus its value at 0. Left
    of the first breakpoint the antiderivative reads 0.0 + s_0 (z - b_0), which
    differs from s_0 (z - b_0) only in the sign of a zero, and the final 0.0 +
    makes every zero +0.0."""
    z = np.concatenate([np.zeros((len(z), 1)), z], axis=1)  # column 0 is the origin
    valid = np.arange(bp.shape[1]) < count[:, None]
    idx = np.sum(valid[:, None, :] & (bp[:, None, :] <= z[:, :, None]), axis=2)  # breakpoints <= z
    left = np.maximum(idx - 1, 0)
    node = np.zeros(bp.shape)
    np.cumsum(sl[:, 1:-1] * np.diff(bp, axis=1), axis=1, out=node[:, 1:])
    raw = np.take_along_axis(node, left, 1)
    raw += np.take_along_axis(sl, idx, 1) * (z - np.take_along_axis(bp, left, 1))
    return 0.0 + raw[:, 1:] - raw[:, :1]  # 0.0 + turns -0.0 into 0.0


def second_derivative_measure(f: PLConvex1D) -> AtomicMeasure1D:
    """One atom per breakpoint, mass = slope jump; zero jumps are dropped."""
    jumps = np.diff(f.slopes)
    keep = jumps > 0
    return AtomicMeasure1D(f.breakpoints[keep], jumps[keep])


@dataclass(frozen=True)
class _LineRuns:
    """Every contiguous atom run of one atomic measure per line, built by `padded`, as
    (lines, runs) arrays padded past each line's own runs (`valid` false there)."""

    left: np.ndarray
    right: np.ndarray
    mass: np.ndarray
    valid: np.ndarray

    @classmethod
    def padded(cls, loc: np.ndarray, mass: np.ndarray, count: np.ndarray) -> _LineRuns:
        """The runs of one measure per row of (lines, atoms) arrays: row k holds
        its count[k] atoms left to right, and is zero-padded past them. Columns
        past every row's count are dropped."""
        width = int(np.max(count, initial=0))
        loc, mass = loc[:, :width], mass[:, :width]
        prefix = np.zeros((len(mass), mass.shape[1] + 1))
        np.cumsum(mass, axis=1, out=prefix[:, 1:])
        i, j = np.triu_indices(mass.shape[1])
        return cls(loc[:, i], loc[:, j], prefix[:, j + 1] - prefix[:, i], j < count[:, None])

    @classmethod
    def of(cls, mu: AtomicMeasure1D) -> _LineRuns:
        """The one line of a measure."""
        return cls.padded(mu.locations[None], mu.masses[None], np.array([mu.count]))

    @classmethod
    def fit(cls, vals: np.ndarray, offsets: np.ndarray, direction: int) -> _LineRuns:
        """The PL fit of each row of `vals` on LINE_GRID: one atom per slope jump above
        the row's roundoff floor; a slope dip below -LINE_CONVEXITY_TOL names its line."""
        slopes = np.diff(vals, axis=1) / np.diff(LINE_GRID)
        dips = np.diff(slopes, axis=1)
        bent = np.min(dips, axis=1, initial=math.inf) < -LINE_CONVEXITY_TOL
        if np.any(bent):
            k = int(np.argmax(bent))
            raise ValueError(
                f"restriction along axis {direction} at offset {offsets[k].tolist()} is not convex"
            )
        jumps = np.maximum(dips, 0.0)
        # roundoff floor: secant slopes of affine restrictions jitter at ~1e-16
        floor = 1e-12 * np.fmax(1.0, np.max(np.abs(slopes), axis=1))
        keep = jumps > floor[:, None]
        count, loc, mass = _kept(keep, np.broadcast_to(LINE_GRID[1:-1], keep.shape), jumps)
        return cls.padded(loc, mass, count)

    def intervals(self, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """{M mu > t} per line, exactly: (start, end, last) over the runs sorted by
        start, where `last` marks the run that closes an open interval of the
        union, and start, end there are that interval's endpoints. A (lines, 1)
        column of levels gives line k the level t[k]."""
        ell = self.mass / t
        keep = self.valid & ((self.right - self.left) < ell)
        starts = np.where(keep, self.right - ell, np.inf)
        order = np.argsort(starts, axis=1, kind="stable")
        s = np.take_along_axis(starts, order, axis=1)
        end = np.maximum.accumulate(
            np.take_along_axis(np.where(keep, self.left + ell, -np.inf), order, axis=1), axis=1
        )
        # a run opens an interval when it starts past every end before it
        opens = np.ones(s.shape, dtype=bool)
        opens[:, 1:] = s[:, 1:] > end[:, :-1]
        last = np.ones(s.shape, dtype=bool)
        last[:, :-1] = opens[:, 1:]
        last &= np.isfinite(s)  # the runs kept sort first
        first = np.maximum.accumulate(np.where(opens, np.arange(s.shape[1]), 0), axis=1)
        return np.take_along_axis(s, first, axis=1), end, last

    def measure(
        self, t: float | np.ndarray, lo: float | np.ndarray = -math.inf, hi: float | np.ndarray = math.inf
    ) -> np.ndarray:
        """|{M mu > t} cap [lo, hi]| per line: its intervals clipped to [lo, hi], then
        their lengths added left to right from 0, as Python's sum adds them over the
        (start, end) pairs of `superlevel`. Like t, lo and hi may be (lines, 1)
        columns, one bound per line."""
        start, end, last = self.intervals(t)
        a, b = np.maximum(start, lo), np.minimum(end, hi)
        lengths = np.zeros((len(a), a.shape[1] + 1))  # a leading 0: each sum starts from 0
        lengths[:, 1:] = np.where(last & (a < b), b - a, 0.0)
        return np.cumsum(lengths, axis=1)[:, -1]

    def maximal(self, x: np.ndarray) -> np.ndarray:
        """M mu(x_k) of each line k at its own point x_k, exactly.

        The supremum over intervals pinching a contiguous atom run [a_i, a_j] and
        x equals run mass / span(run, x); it is +inf exactly at atoms of positive
        mass. A zero span is a zero-mass atom at x, which adds nothing.
        """
        span = np.maximum(self.right, x[:, None]) - np.minimum(self.left, x[:, None])
        ratio = np.divide(self.mass, span, out=np.zeros(span.shape), where=self.valid & (span > 0))
        atom = self.valid & (self.left == self.right) & (self.mass > 0)
        at_atom = np.any(atom & (self.left == x[:, None]), axis=1)
        return np.where(at_atom, math.inf, np.max(ratio, axis=1, initial=0.0))


def maximal_function(mu: AtomicMeasure1D, x: float) -> float:
    """sup over open intervals I containing x of mu(I)/|I|, exactly; +inf at atoms."""
    if not math.isfinite(x):
        raise ValueError(f"maximal_function needs a finite point, got {x}")
    return float(_LineRuns.of(mu).maximal(np.array([float(x)]))[0])


def superlevel(mu: AtomicMeasure1D, t: float) -> tuple[tuple[float, float], ...]:
    """{M mu > t} as an exact union of open intervals: disjoint, sorted (start, end)
    pairs, with endpoints touching at a point merged."""
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"superlevel threshold must be positive and finite, got {t}")
    start, end, last = _LineRuns.of(mu).intervals(t)
    return tuple(zip(start[last].tolist(), end[last].tolist()))


def _grid(check: str, objects: Sequence, kind: type, name: str, grid: Sequence[float]) -> np.ndarray:
    """A check's grid as a non-empty 1-D float array. A single object passed for the
    sequence `objects`, or a grid of another shape, fails with the check's name."""
    if not isinstance(objects, Sequence):
        raise TypeError(f"{check} takes a sequence of {kind.__name__}, got {type(objects).__name__}")
    arr = np.array(grid, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{check} needs a non-empty 1-D {name}, got {arr.tolist()}")
    return arr


def weak_one_one_check(measures: Sequence[AtomicMeasure1D], t_grid: Sequence[float]) -> dict[str, np.ndarray]:
    """The maximal-function distribution bound with explicit constant 2, plus the
    localized variant through the [-2,2] truncation, for every measure and level at
    once. Each key holds a (measures, levels) array:

    - t: the level;
    - measure, bound, ok: |{M mu > t}|, 2 mu(R) / t, and measure <= bound + 1e-12;
    - local_measure, local_bound, local_ok: the same for the truncation mu~ of mu
      to [-2, 2], with bound 2 mu[-2, 2] / t;
    - window_measure: |{M mu > t} cap [-1, 1]|.

    The measures, their truncations and the measures again (clipped to [-1, 1])
    are one padded run set, measured one level at a time: a line per measure
    and level would hold levels times the memory.
    """
    t_arr = _grid("weak_one_one_check", measures, AtomicMeasure1D, "t_grid", t_grid)
    if not np.all((t_arr > 0) & np.isfinite(t_arr)):
        raise ValueError(f"superlevel thresholds must be positive and finite, got {t_arr.tolist()}")
    for k, mu in enumerate(measures):
        if not isinstance(mu, AtomicMeasure1D):
            raise TypeError(f"measure {k} must be an AtomicMeasure1D, got {type(mu).__name__}")
    count = np.array([mu.count for mu in measures], dtype=np.intp)
    loc, mass = _packed([mu.locations for mu in measures]), _packed([mu.masses for mu in measures])
    inside = (np.arange(loc.shape[1]) < count[:, None]) & (loc >= -2.0) & (loc <= 2.0)
    local_count, local_loc, local_mass = _kept(inside, loc, mass)
    n, levels = len(count), t_arr.size
    sets = ((loc, local_loc, loc), (mass, local_mass, mass), (count, local_count, count))
    runs = _LineRuns.padded(*(np.concatenate(s) for s in sets))
    lo = np.repeat([-math.inf, -math.inf, -1.0], n)[:, None]
    hi = np.repeat([math.inf, math.inf, 1.0], n)[:, None]
    measured = np.array([runs.measure(t, lo, hi) for t in t_arr.tolist()]).reshape(levels, 3, n)
    measure, local_measure, window_measure = measured.transpose(1, 2, 0)
    stop = np.concatenate([count, local_count])[:, None]
    totals = _window_sums(np.concatenate([mass, local_mass]), np.zeros_like(stop), stop)
    total, local_total = totals.reshape(2, n, 1)
    bound, local_bound = 2.0 * total / t_arr, 2.0 * local_total / t_arr
    return {
        "t": np.broadcast_to(t_arr, (n, levels)),
        "measure": measure,
        "bound": bound,
        "ok": measure <= bound + 1e-12,
        "local_measure": local_measure,
        "local_bound": local_bound,
        "local_ok": local_measure <= local_bound + 1e-12,
        "window_measure": window_measure,
    }


def convex_taylor_check(functions: Sequence[PLConvex1D], h_grid: Sequence[float]) -> dict[str, np.ndarray]:
    """The chain 0 <= f(h) <= f''[0,h] h <= M f''(0) h^2 and its mirror, for every
    function and h at once. Each key holds a (functions, h) array:

    - h: the step;
    - f_plus, bound_mid_plus: f(h) and f''[0, h] h;
    - f_minus, bound_mid_minus: f(-h) and f''[-h, 0] h;
    - bound_max: M f''(0) h^2, inf when vacuous;
    - ok: every link of both chains, to a 1e-10 roundoff slack;
    - vacuous: f'' has an atom at 0, so bound_max is inf.

    Every PLConvex1D has f(0) = 0; this also requires 0 in the subdifferential
    at 0. The interval masses use closed endpoints; an atom exactly at 0 makes
    the maximal bound infinite and the final inequality vacuous (flagged).
    """
    tol = 1e-10  # roundoff slack
    h = _grid("convex_taylor_check", functions, PLConvex1D, "h_grid", h_grid)
    if not np.all((h > 0) & np.isfinite(h)):
        raise ValueError(f"h grid must be positive and finite, got {h.tolist()}")
    for k, f in enumerate(functions):
        if not isinstance(f, PLConvex1D):
            raise TypeError(f"function {k} must be a PLConvex1D, got {type(f).__name__}")
    bp, sl, count = _pl_rows(functions)
    valid = np.arange(bp.shape[1]) < count[:, None]
    left = np.take_along_axis(sl, np.sum(valid & (bp < 0.0), axis=1)[:, None], 1)[:, 0]
    right = np.take_along_axis(sl, np.sum(valid & (bp <= 0.0), axis=1)[:, None], 1)[:, 0]
    bent = (left > tol) | (right < -tol)
    if np.any(bent):
        k = int(np.argmax(bent))
        raise ValueError(f"function {k}: 0 is not a subgradient at 0: slopes ({left[k]:.3e}, {right[k]:.3e})")
    # f'' as one padded row of atoms per function: its positive slope jumps
    jumps = np.diff(sl, axis=1)
    atoms, loc, mass = _kept(valid & (jumps > 0), bp, jumps)
    m0 = _LineRuns.padded(loc, mass, atoms).maximal(np.zeros(len(atoms)))
    # The atoms in [0, h] and in [-h, 0] are contiguous windows of each row: the
    # columns (h..., -h...) hold the windows [0, h], then [-h, 0].
    a = np.where(np.arange(loc.shape[1]) < atoms[:, None], loc, math.inf)[:, None, :]  # padding sorts last
    hh = np.broadcast_to(np.concatenate([h, -h]), (len(atoms), 2 * h.size))
    plus = np.arange(2 * h.size) < h.size
    start = np.where(plus, np.sum(a < 0.0, axis=2), np.sum(a < hh[:, :, None], axis=2))
    stop = np.where(plus, np.sum(a <= hh[:, :, None], axis=2), np.sum(a <= 0.0, axis=2))
    jp, jm = np.split(_window_sums(mass, start, stop) * np.abs(hh), 2, axis=1)
    fp, fm = np.split(_pl_values(bp, sl, count, hh), 2, axis=1)
    top = m0[:, None] * h * h  # inf when vacuous: inf bounds everything
    ok = (fp >= -tol) & (fm >= -tol) & (fp <= jp + tol) & (fm <= jm + tol)
    ok &= (jp <= top + tol) & (jm <= top + tol)
    shape = ok.shape
    return {
        "h": np.broadcast_to(h, shape),
        "f_plus": fp,
        "bound_mid_plus": jp,
        "f_minus": fm,
        "bound_mid_minus": jm,
        "bound_max": top,
        "ok": ok,
        "vacuous": np.broadcast_to(np.isinf(m0)[:, None], shape),
    }


@dataclass(frozen=True)
class L1BallReport:
    max_ratio: float  # max |x|_1 / |x|_2 over x != 0, attained by the witness
    bound: float  # sqrt(n)
    witness: np.ndarray  # the flat foot point (1/n, ..., 1/n) of the facet x_1 + ... + x_n = 1
    witness_ratio: float
    ok: bool  # the witness lies on its facet and n |witness|^2 <= 1, decided in exact arithmetic


def l1_ball_containment(n: int) -> L1BallReport:
    """The ball inside the ell^1 ball, as an exact statement on the hull's facets.

    The hull of {±h e_j} is {|x|_1 <= h}. Its 2^n facets s.x = h, s in {±1}^n,
    have foot points h s / n at distance h / sqrt(n) from 0, so the ball of
    radius rho lies inside iff n rho^2 <= h^2: max |x|_1 / |x|_2 = sqrt(n). With
    h = 1 the flat foot point is the witness; it attains the bound, and the
    report checks it in rational arithmetic, with no slack.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {n!r}")
    foot = [Fraction(1, n)] * n
    rho_sq = sum(v * v for v in foot)
    ratio = math.sqrt(sum(foot) ** 2 / rho_sq)
    return L1BallReport(
        max_ratio=ratio,
        bound=math.sqrt(n),
        witness=np.array(foot, dtype=float),
        witness_ratio=ratio,
        ok=sum(foot) == 1 and n * rho_sq <= 1,
    )


def osc_on_cube(f: FunctionHandle, half_width: float) -> float:
    """max - min of f over a 41-point-per-axis lattice of the coordinate cube."""
    n = f.shape.dim
    axes = [np.linspace(-half_width, half_width, 41)] * n
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


def _line_values(f: FunctionHandle, offsets: np.ndarray, direction: int) -> np.ndarray:
    """f on LINE_GRID along the axis `direction` through each offset row: one (lines, S) array."""
    coords = np.repeat(offsets[:, None, :], LINE_GRID.size, axis=1)
    coords[:, :, direction] = offsets[:, direction, None] + LINE_GRID
    return f.value_at_coords(coords)


def fubini_tail_experiment(
    f: FunctionHandle,
    t_grid: Sequence[float],
    lines_per_direction: int = 48,
    seed: int = 0,
    probe_count: int = 12,
) -> FubiniTailReport:
    """Per-line superlevel tail of axis restrictions over the unit cube.

    For each axis direction and sampled offsets in the perpendicular slice of
    the unit cube, the restriction is fitted piecewise-linearly on LINE_GRID,
    its second-derivative measure extracted, and the superlevel
    set {M f_y'' > t} cap [-1, 1] computed exactly. Aggregates estimate the
    tail-set measure; probes outside the tail set verify the axis Taylor bound
    0 <= f~(h e_i) <= 2 t h^2 and the paraboloid bound of opening 4 n t on the
    inscribed balls of the coordinate hulls. Each axis's lines are evaluated as
    one array, and their atom runs are held as one padded array set.
    """
    shape = f.shape
    if shape.rows != 1 or shape.symmetric:
        raise ValueError("the tail experiment runs on row-vector shapes (1 x n)")
    if lines_per_direction < 1:
        raise ValueError(f"fubini_tail_experiment needs lines_per_direction >= 1, got {lines_per_direction}")
    if probe_count < 0:
        raise ValueError(f"fubini_tail_experiment needs probe_count >= 0, got {probe_count}")
    if f.gradient is None:  # the probes recentre f at its exact gradient
        raise ValueError(f"fubini_tail_experiment needs an exact gradient, and handle {f.name!r} has none")
    n = shape.cols

    osc = osc_on_cube(f, 3.0)
    threshold = 2.0 * osc
    t_arr = np.asarray(list(t_grid), dtype=float)
    if t_arr.ndim != 1:
        raise ValueError(f"fubini_tail_experiment needs a non-empty 1-D t_grid, got {t_arr.tolist()}")
    if t_arr.size == 0 or not np.all(np.isfinite(t_arr)):
        raise ValueError(f"t_grid must be non-empty and finite, got {t_arr.tolist()}")
    if np.any(np.diff(t_arr) <= 0):
        raise ValueError("t_grid must be increasing")
    if t_arr[0] <= threshold:
        raise ValueError(f"t values must exceed 2 osc(f, Q_3) = {threshold}")

    rng = seeded_rng(seed)
    cross_volume = 2.0 ** (n - 1)
    line_runs: list[_LineRuns] = []
    for i in range(n):
        offsets = rng.uniform(-1.0, 1.0, size=(lines_per_direction, n))
        offsets[:, i] = 0.0
        line_runs.append(_LineRuns.fit(_line_values(f, offsets, i), offsets, i))

    measures = np.zeros(t_arr.size)
    for j, t in enumerate(t_arr):
        for runs in line_runs:
            measures[j] += float(np.mean(runs.measure(float(t), -1.0, 1.0))) * cross_volume

    fit = loglog_fit(t_arr, measures, 3)
    inclusion = _inclusion_probes(f, t_arr, probe_count, rng)
    return FubiniTailReport(
        t_grid=t_arr,
        measures=measures,
        oscillation=osc,
        threshold=threshold,
        fitted_slope=None if fit is None else fit[0],
        inclusion=tuple(inclusion),
    )


def _inclusion_probes(
    f: FunctionHandle, t_arr: np.ndarray, probe_count: int, rng: np.random.Generator
) -> list[InclusionProbe]:
    """At probes off the tail set, check the axis chain and the hull paraboloid bound.

    A level's probe_count x n axis lines are fitted as one array per axis, and
    each probe is recentred at the handle's exact gradient.
    """
    tol = 1e-7  # slack of the axis and hull bounds
    n = f.shape.cols
    h_values = np.arange(LINE_RESOLUTION, 1.0, LINE_RESOLUTION)
    # Points stay stacked as (H, k, n), so `@` multiplies one (k, n) block per h.
    axis_z = h_values[:, None, None] * np.concatenate([np.eye(n), -np.eye(n)])[None]
    probes = []
    for t in t_arr:
        cap = (2.0 * t * h_values * h_values)[:, None]
        pts = rng.uniform(-1.0, 1.0, size=(probe_count, n))
        in_tail = np.zeros(probe_count, dtype=bool)
        for i in range(n):
            offsets = pts.copy()
            offsets[:, i] = 0.0
            in_tail |= _LineRuns.fit(_line_values(f, offsets, i), offsets, i).maximal(pts[:, i]) > t
        for x0, tail in zip(pts, in_tail):
            if tail:
                probes.append(InclusionProbe(float(t), tuple(map(float, x0)), True, True, True, 0.0))
                continue
            g = f.gradient_at_coords(x0).reshape(-1)
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


def random_pl_convex(rng: np.random.Generator, atom_at_zero: bool = False) -> PLConvex1D:
    """Random convex PL function normalized to f(0) = 0 with 0 in the subdifferential:
    1 to 6 breakpoints in [-2, 2]."""
    k = int(rng.integers(1, 7))
    bp = np.sort(rng.uniform(-2.0, 2.0, size=k))
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
    return PLConvex1D(breakpoints=bp, slopes=slopes)
