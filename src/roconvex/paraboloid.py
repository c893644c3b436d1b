"""Least-opening touching paraboloids and the superlevel tail experiment.

The opening at a point x0 against a finite constraint cloud {y} is

    a(p) = max(0, max_y c_y - B_y.p),  c_y = 2 (f(y) - f(x0)) / |y - x0|^2,
                                       B_y = 2 (y - x0) / |y - x0|^2,

a convex piecewise-affine function of the slope p, so its minimum is a linear
program in at most five variables. The solver runs a revised simplex on its dual

    max sum_y lam_y c_y  s.t.  sum_y lam_y B_y = 0,  lam_0 + sum_y lam_y = 1,  lam >= 0,

where lam_0 weighs the row t >= 0 (c = 0, B = 0) that is the clamp max(0, .).
The optimal basis gives the slope (its simplex multipliers) and a certificate:
support points with weights lam whose value sum lam c bounds every opening over
the cloud from below. `replay_lower_bound` checks that certificate from f alone.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .core import (GridSpec, MatrixShape, SampledField, ball_samples, ball_volume, evaluate, loglog_fit,
                   make_grid, seeded_rng)
from .corpus import FunctionHandle

MAX_PIVOTS = 500  # an opening LP has at most 5 rows; a solve past this cap raises
BLAND_AFTER = 8  # consecutive degenerate pivots before Bland's rule replaces Dantzig's
OPT_RTOL = 1e-12  # reduced costs up to OPT_RTOL * max|c| count as optimal
GAP_RTOL = 1e-9  # converged: opening - lower bound <= GAP_RTOL * max(1, opening)
DUAL_RTOL = 1e-9  # replay: |sum lam B| <= DUAL_RTOL * max(1, max|B|)
# the tail levels t: eight log-spaced over one decade, from 2 to 20; read-only
TAIL_T_GRID = np.exp(np.linspace(math.log(2.0), math.log(20.0), 8))
TAIL_T_GRID.flags.writeable = False
# LAPACK gesv as the gufuncs that np.linalg.solve wraps, the same bits without its
# Python wrapper: one right-hand side vector, and stacks of (m, n) right-hand sides.
# `_solve_dual` sets the error state np.linalg.solve sets around them.
_solve1 = _umath_linalg.solve1
_solve = _umath_linalg.solve


@dataclass(frozen=True)
class ParaboloidTouch:
    """A paraboloid P(y) = f(x0) + p.(y-x0) + (a/2)|y-x0|^2 with P >= f on the cloud."""

    x0: tuple[float, ...]  # coordinates in storage order
    slope: np.ndarray  # (m, n) matrix
    opening: float
    value_at_x0: float
    converged: bool  # opening - lower_bound <= GAP_RTOL * max(1, opening)
    iterations: int  # simplex pivots
    support: np.ndarray  # (k, dim) constraint nodes carrying the dual weights
    weights: np.ndarray  # (k,) their weights; the rest, 1 - sum, sits on the row t >= 0
    lower_bound: float  # sum of weights * c over the support


@dataclass(frozen=True)
class ThetaField:
    """Least openings at sampled evaluation points against a fixed constraint grid."""

    region_radius: float
    eval_coords: np.ndarray
    theta: np.ndarray
    converged: np.ndarray
    touches: tuple[ParaboloidTouch, ...]

    @property
    def count(self) -> int:
        return self.eval_coords.shape[0]


@dataclass(frozen=True)
class TailReport:
    t_grid: np.ndarray
    measure: np.ndarray
    scale: float  # the level is scale * t, scale = sup|f|
    region_volume: float
    fitted_epsilon: float | None
    fit_residual: float | None
    nonzero_count: int

    def rows(self) -> list[tuple[float, float]]:
        return [(float(t), float(m)) for t, m in zip(self.t_grid, self.measure)]


def _cloud(
    f: FunctionHandle | SampledField, x0: np.ndarray, constraints: GridSpec, support: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The grid's node set for an opening at x0: the masked constraint nodes y
    (K, dim), f(y), the offsets d = y - x0 of their flattened matrices
    transposed, (rows*cols, K), and |d|^2. Given `support` points, the set is
    those nodes alone, in their order, found by `Grid.cloud_positions`.

    The nodes, the transposed matrices and f(y) are read-only and computed
    once per grid (f(y) once per handle or field on it, by `_node_values`);
    only the offsets from x0 are computed per call, one contiguous row per
    matrix entry. Flattened matrices, not storage coordinates, so |d|^2 is the
    Frobenius norm. It adds the squares entry by entry, ((d_0^2 + d_1^2) +
    d_2^2) + d_3^2: the order np.sum(d * d, axis=1) takes over fewer than 8
    columns of the (K, rows*cols) layout. Every operation is element-wise in
    the node, so a node's offsets and |d|^2 get the same bits in either layout
    and at any cloud size.
    """
    grid = make_grid(constraints)
    fy = _node_values(f, constraints)
    coords, mats_t = grid.cloud
    if support is not None:
        at = grid.cloud_positions(support)
        coords, fy, mats_t = coords[at], fy[at], mats_t[:, at]
    d = mats_t - constraints.shape.coords_to_matrix(x0).reshape(-1, 1)
    sq = d * d
    q = sq[0]
    for row in sq[1:]:
        q += row
    return coords, fy, d, q


def _node_values(f: FunctionHandle | SampledField, constraints: GridSpec) -> np.ndarray:
    """f at the masked nodes of the constraint grid, in cloud order; read-only.

    A field supplies its own values, so it must be sampled on `constraints`. A
    handle's values are a pure function of the handle and the grid, like the
    grid's cloud, so they are cached per handle object and grid, in a cache
    as small as `make_grid`'s.
    """
    if isinstance(f, SampledField):
        if f.grid != constraints:
            raise ValueError("field constraints must use the field's own grid")
        return f.valid_values()
    return _handle_node_values(_ByIdentity(f), constraints)


class _ByIdentity:
    """A cache key that stands for its object alone: two distinct objects never share an entry."""

    __slots__ = ("obj",)

    def __init__(self, obj: object):
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ByIdentity) and other.obj is self.obj


@functools.lru_cache(maxsize=8)
def _handle_node_values(key: _ByIdentity, constraints: GridSpec) -> np.ndarray:
    # The key holds the handle, so its id is not reused while the entry lives.
    values = np.array(key.obj.value_at_coords(make_grid(constraints).cloud[0]), dtype=float)
    values.flags.writeable = False
    return values


@functools.cache
def _slope_map(shape: MatrixShape) -> np.ndarray:
    """Columns map storage coordinates to flattened matrices, read-only.

    For symmetric shapes the slope p = P s is then symmetric by construction.
    """
    P = shape.coords_to_matrix(np.eye(shape.dim)).reshape(shape.dim, -1).T
    P.flags.writeable = False
    return P


class _TouchProblem:
    """Constraint data for one evaluation point: c_y and B_y with a(p) = max(0, max(c - B p)).

    The one builder of an opening's rows: the solver and the certificate replays read them.
    It takes a node set in the form `_cloud` returns, (nodes y, f(y), offsets d = y - x0 in the
    (rows*cols, K) layout, |d|^2), with x0, f(x0), the matrix shape and the radius within which a
    node counts as x0 itself; the node source supplies all of them. `on_grid` is the grid's source.

    The rows are written where the solver reads them: `lp_c` (K+1,) and `lp_B` (K+1, rows*cols),
    C order, whose row 0 is the clamp row t >= 0 (c = 0, B = 0); `c` and `B` are their rows 1 and on.
    """

    def __init__(self, x0: np.ndarray, fx0: float, cloud: tuple[np.ndarray, ...], shape: MatrixShape, cut: float):
        coords, fy, d, q = cloud
        if not q.min(initial=math.inf) > cut**2:  # x0 sits on a node; drop it
            keep = q > cut**2
            coords, fy, d, q = coords[keep], fy[keep], d[:, keep], q[keep]
        self.x0 = x0
        self.fx0 = fx0
        self.coords = coords
        # Element-wise, so any subset of rows keeps its bits, and so does any
        # layout. One division by q/2 gives 2a/q bit for bit, since doubling a
        # and halving q are exact. B is written through the transposed view of
        # its C-order rows: the matrix-vector products over B read rows, and
        # their bits follow the layout.
        q = q / 2.0
        self.lp_c = np.empty(q.shape[0] + 1)
        self.lp_c[0] = 0.0
        self.c = self.lp_c[1:]
        np.subtract(fy, fx0, out=self.c)
        self.c /= q
        self.lp_B = np.empty((q.shape[0] + 1, d.shape[0]))
        self.lp_B[0] = 0.0
        self.B = self.lp_B[1:]
        np.divide(d, q, out=self.B.T)
        self.P = _slope_map(shape)

    @classmethod
    def on_grid(
        cls, f: FunctionHandle | SampledField, x0: np.ndarray, constraints: GridSpec, support: np.ndarray | None = None
    ) -> _TouchProblem:
        """The problem over the nodes of the constraint grid, less x0 when it is one of them;
        or over the `support` points alone, in their order, each of which must be such a node."""
        x0 = _finite_x0(x0)
        cloud = _cloud(f, x0, constraints, support)
        vals, ok = evaluate(f, x0[None, :])
        if not ok[0]:
            raise ValueError("x0 is not interpolable on the constraint grid")
        cut = 1e-9 * constraints.spacing
        if support is not None and not cloud[3].min(initial=math.inf) > cut**2:
            point = cloud[0][int(cloud[3].argmin())]
            raise ValueError(f"point {point.tolist()} is not a constraint node: it is x0")
        prob = cls(x0, float(vals[0]), cloud, constraints.shape, cut)
        if support is None and not prob.c.size:
            raise ValueError("constraint cloud is empty after removing x0")
        return prob

    def opening(self, p: np.ndarray, what: str) -> float:
        """a(p) = max(0, max(c - B p)), refusing a non-finite slope p or objective by name."""
        if not np.isfinite(p).all():
            raise ValueError(f"the {what} at x0 = {self.x0.tolist()} is not finite: {p.tolist()}")
        value = float(np.max(self.c - self.B @ p))
        if not math.isfinite(value):
            raise ValueError(f"the opening at x0 = {self.x0.tolist()} is {value} at the {what}")
        return max(0.0, value)


def _finite_x0(x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if not np.isfinite(x0).all():
        raise ValueError(f"the opening needs a finite x0, got {x0.tolist()}")
    return x0


def _touch_slope(touch: ParaboloidTouch, shape: MatrixShape) -> np.ndarray:
    """The touch's slope, flattened, once it is a finite (rows, cols) matrix."""
    slope = np.asarray(touch.slope, dtype=float)
    if slope.shape != (shape.rows, shape.cols):
        raise ValueError(f"the touch's slope has shape {slope.shape}, not ({shape.rows}, {shape.cols})")
    if not np.isfinite(slope).all():
        raise ValueError(f"the touch's slope at x0 = {list(touch.x0)} is not finite: {slope.tolist()}")
    return slope.reshape(-1)


def _solve_dual(prob: _TouchProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Revised simplex on the dual LP of the opening, in storage coordinates.

    Column 0 is the row t >= 0; column j >= 1 is cloud row j - 1. A column's
    entries are (B_y P, 1) against the right-hand side (0, ..., 0, 1). Returns
    the slope (flattened matrix), the basic cloud rows, their weights, and the
    pivot count. A singular or non-finite basis system raises LinAlgError.
    """

    def singular(err: str, flag: int) -> None:
        raise np.linalg.LinAlgError(f"opening LP at x0 = {prob.x0.tolist()} has a singular or non-finite basis system")

    # np.linalg.solve's error state around its gufunc, here around the whole solve
    with np.errstate(call=singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _simplex(prob)


def _simplex(prob: _TouchProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    # row j of A is column j of the LP without its last entry 1
    A, c = prob.lp_B, prob.lp_c
    n, k = c.shape[0] - 1, prob.P.shape[1]
    if prob.P.shape[0] != k:  # a symmetric shape: the rows in storage coordinates
        A = np.empty((n + 1, k))
        A[0] = 0.0
        np.matmul(prob.B, prob.P, out=A[1:])
    tol = OPT_RTOL * float(max(c.max(), -c.min()))
    eye = np.eye(k + 1)
    # lam solves M lam = e_k and pi solves M^T pi = c_B, as one stack of
    # single right-hand sides: a 2-column right-hand side can change bits.
    # A pivot writes its column of M, its row of M^T and its entry of c_B.
    systems = np.empty((2, k + 1, k + 1))
    M, Mt = systems
    rhs = np.zeros((2, k + 1, 1))
    rhs[0, k, 0] = 1.0
    # Start from the unit basis: slack columns for the k slope rows, column 0
    # (weight 1) for the last row. Crash each slack out with a degenerate pivot
    # on the cloud column of largest pivot element.
    basis = np.zeros(k + 1, dtype=np.intp)
    M[...] = eye
    span_tol = 1e-9 * float(max(A.max(), -A.min()))
    for row in range(k):
        if row == 0:  # M is the identity, so w = e_0 and the pivot elements are |A[:, 0]| exactly
            r = np.abs(A[:, 0])
        else:
            w = _solve1(M.T, eye[row])
            r = np.abs(A @ w[:k] + w[k])
        j = int(r.argmax())
        if not r[j] > span_tol:
            raise ValueError("constraint cloud does not span the slope space")
        basis[row] = j
        M[:k, row] = A[j]
        M[k, row] = 1.0
    Mt[...] = M.T
    rhs[1, :, 0] = c[basis]
    pivots = k
    degenerate = 0
    d = np.empty(n + 1)  # reduced costs
    col = np.empty(k + 1)  # the entering column
    col[k] = 1.0
    while True:
        lam, pi = _solve(systems, rhs)[:, :, 0]
        np.matmul(A, pi[:k], out=d)
        np.subtract(c, d, out=d)
        d -= pi[k]
        d[basis] = 0.0
        bland = degenerate >= BLAND_AFTER
        j = int((d > tol).argmax()) if bland else int(d.argmax())
        if not d[j] > tol:
            break
        if pivots >= MAX_PIVOTS:
            raise RuntimeError(f"opening LP at x0 = {prob.x0.tolist()} exceeded {MAX_PIVOTS} pivots")
        col[:k] = A[j]
        u = _solve1(M, col).tolist()
        # Ratio test on k + 1 <= 5 floats. The last row of every column is 1,
        # so sum(u) = 1 and some u_i > 0; min and max keep the first extremum.
        cut = 1e-11 * max(map(abs, u))
        ratios = [
            (lam_i if lam_i > 1e-13 else 0.0) / u_i if u_i > cut else math.inf
            for lam_i, u_i in zip(lam.tolist(), u)
        ]
        least = min(ratios)
        ties = [i for i, ratio in enumerate(ratios) if ratio == least]
        leave = min(ties, key=basis.__getitem__) if bland else max(ties, key=u.__getitem__)
        degenerate = degenerate + 1 if least == 0.0 else 0
        basis[leave] = j
        M[:, leave] = col
        Mt[leave] = col
        rhs[1, leave, 0] = c[j]
        pivots += 1
    cloud = (basis > 0) & (lam > 0.0)
    return prob.P @ pi[:k], basis[cloud] - 1, lam[cloud], pivots


def _certified(opening: float, lower_bound: float) -> bool:
    return opening - lower_bound <= GAP_RTOL * max(1.0, opening)


def theta_upper(
    f: FunctionHandle | SampledField,
    x0: np.ndarray,
    constraints: GridSpec,
) -> ParaboloidTouch:
    """Least opening of a paraboloid tangent from above at x0 over the constraint grid.

    At a node x0 on the boundary sphere of a ball cloud the opening is 0: every
    other cloud node lies in the open half-space behind x0, so tilting the slope
    makes every constraint slack.
    """
    prob = _TouchProblem.on_grid(f, x0, constraints)
    p, rows, weights, pivots = _solve_dual(prob)
    lower_bound = float(weights @ prob.c[rows])
    # Store the opening exactly as the certificate replay recomputes it.
    opening = None
    if isinstance(f, FunctionHandle) and f.gradient is not None:
        # Keep the exact gradient when the certificate proves it optimal too.
        p_grad = f.gradient_at_coords(prob.x0).reshape(-1)
        grad_opening = prob.opening(p_grad, "gradient")
        if _certified(grad_opening, lower_bound):
            p, opening = p_grad, grad_opening
    if opening is None:
        opening = prob.opening(p, "LP slope")
    return ParaboloidTouch(
        x0=tuple(float(v) for v in prob.x0),
        slope=p.reshape(constraints.shape.rows, constraints.shape.cols),
        opening=opening,
        value_at_x0=prob.fx0,
        converged=_certified(opening, lower_bound),
        iterations=pivots,
        support=prob.coords[rows],
        weights=weights,
        lower_bound=lower_bound,
    )


def replay_opening(
    f: FunctionHandle | SampledField, touch: ParaboloidTouch, constraints: GridSpec
) -> float:
    """Re-evaluate the constraint maximum at the certified slope."""
    slope = _touch_slope(touch, constraints.shape)
    return _TouchProblem.on_grid(f, touch.x0, constraints).opening(slope, "touch's slope")


def replay_lower_bound(
    f: FunctionHandle | SampledField, touch: ParaboloidTouch, constraints: GridSpec
) -> float:
    """Recompute the certified lower bound sum lam_y c_y from f at the support points.

    Checks first that the weights are dual feasible: one weight per support
    point, lam >= 0, sum lam <= 1 (the rest weighs the row t >= 0), every
    support point a constraint node (an unmasked grid node other than x0), and
    sum lam_y B_y = 0 up to DUAL_RTOL. Raises ValueError when one fails. The
    rows of c and B are built from the support nodes alone by the solver's row
    builder; each row is element-wise in its node, so the replay repeats the
    solver's bits.
    """
    x0 = _finite_x0(touch.x0)
    points = np.asarray(touch.support, dtype=float).reshape(-1, constraints.shape.dim)
    w = np.asarray(touch.weights, dtype=float)
    if w.shape != (points.shape[0],):
        raise ValueError(f"certificate weights have shape {w.shape}, not one per support point ({points.shape[0]},)")
    if not (np.all(w >= 0.0) and np.sum(w) <= 1.0 + 1e-12):  # a NaN weight fails both
        raise ValueError("certificate weights are not a sub-probability vector")
    prob = _TouchProblem.on_grid(f, x0, constraints, points)
    residual = float(np.max(np.abs(w @ prob.B), initial=0.0))
    if residual > DUAL_RTOL * max(1.0, float(np.max(np.abs(prob.B), initial=0.0))):
        raise ValueError(f"certificate weights leave sum lam B = {residual:.3e}, not 0")
    return float(w @ prob.c)


def touch_feasibility_gap(
    f: FunctionHandle | SampledField, touch: ParaboloidTouch, constraints: GridSpec
) -> float:
    """max_y f(y) - P(y); <= 0 up to roundoff by construction."""
    slope = _touch_slope(touch, constraints.shape)
    for what, value in (("opening", touch.opening), ("value at x0", touch.value_at_x0)):
        if not math.isfinite(value):
            raise ValueError(f"the touch's {what} at x0 = {list(touch.x0)} is not finite: {value}")
    _, fy, d, q = _cloud(f, _finite_x0(touch.x0), constraints)
    # d @ slope over C-order rows, the layout whose bits the artifacts hold
    pvals = touch.value_at_x0 + d.T.copy() @ slope + 0.5 * touch.opening * q
    return float(np.max(fy - pvals))


def theta_field(
    f: FunctionHandle | SampledField,
    constraints: GridSpec,
    count: int = 500,
    seed: int = 0,
    threads: int = 1,
) -> ThetaField:
    """Least openings at `count` random points of the half-radius ball."""
    if count < 1:
        raise ValueError(f"theta_field needs count >= 1 evaluation points, got {count}")
    if threads < 1:
        raise ValueError(f"theta_field needs threads >= 1, got {threads}")
    shape = constraints.shape
    region_radius = constraints.radius / 2.0
    rng = seeded_rng(seed)
    pts = ball_samples(shape, constraints.center.coords, region_radius, count, rng)

    def solve(k: int) -> ParaboloidTouch:
        return theta_upper(f, pts[k], constraints)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            touches = list(pool.map(solve, range(count)))
    else:
        touches = [solve(k) for k in range(count)]
    theta = np.array([t.opening for t in touches])
    converged = np.array([t.converged for t in touches])
    return ThetaField(
        region_radius=float(region_radius),
        eval_coords=pts,
        theta=theta,
        converged=converged,
        touches=tuple(touches),
    )


def tail_experiment(theta: ThetaField, f_sup: float) -> TailReport:
    """Estimated measure of {opening > f_sup * t} inside the evaluation ball, per t in TAIL_T_GRID."""
    if not (f_sup > 0.0 and math.isfinite(f_sup)):  # a NaN scale would make every level empty
        raise ValueError(f"tail_experiment needs a positive, finite f_sup, got {f_sup}")
    t_arr = TAIL_T_GRID
    vol = ball_volume(theta.eval_coords.shape[1], theta.region_radius)
    fractions = np.array([float(np.mean(theta.theta > f_sup * t)) for t in t_arr])
    measure = fractions * vol
    fit = loglog_fit(t_arr, measure, 3)
    return TailReport(
        t_grid=t_arr,
        measure=measure,
        scale=float(f_sup),
        region_volume=float(vol),
        fitted_epsilon=None if fit is None else -fit[0],
        fit_residual=None if fit is None else fit[1],
        nonzero_count=int(np.sum(measure > 0.0)),
    )
