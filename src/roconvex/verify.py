"""First-order verification: rank-one/separate convexity, the Lipschitz bound,
discrete subharmonicity, the symmetric-space operator, and mollification.

All checks are sampling-based certificates: a nonpositive worst violation
certifies the property at the sampled resolution, a positive one is a concrete
counterexample that replays deterministically under the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    GridSpec,
    MatrixShape,
    RankOneDirection,
    SampledField,
    ball_samples,
    coordinate_directions,
    cube_samples,
    evaluate,
    grid_spec,
    make_grid,
    random_directions,
)
from .corpus import FunctionHandle

IDENTITY_TOL = 1e-12
ANALYTIC_TOL = 1e-9


@dataclass(frozen=True)
class SegmentSampler:
    """Sampling plan for segment-based convexity checks."""

    direction_count: int = 16
    step_count: int = 12
    seed: int = 0


@dataclass(frozen=True)
class SegmentSample:
    """One midpoint test: base x, direction matrix D, step t."""

    base: tuple[float, ...]
    direction: tuple[float, ...]
    direction_label: str
    t: float


@dataclass(frozen=True)
class ConvexityReport:
    operation: str
    worst_violation: float
    witness: SegmentSample | None
    samples_checked: int
    samples_skipped: int
    seed: int
    tolerance: float | None = None  # attached by the caller that classifies the report

    def passes(self, tol: float) -> bool:
        return self.worst_violation <= tol


class _Evaluator:
    """Uniform evaluation of a FunctionHandle or a SampledField over coordinates."""

    def __init__(self, f: FunctionHandle | SampledField, domain: GridSpec | None):
        self.f = f
        if isinstance(f, SampledField):
            self.domain = f.grid
        else:
            self.domain = domain if domain is not None else grid_spec(f.shape)
        self.shape = self.domain.shape

    def __call__(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vals, ok = evaluate(self.f, coords)
        return vals, ok & self.domain.contains(coords)

    def draw_bases(self, count: int, rng: np.random.Generator) -> np.ndarray:
        spec = self.domain
        if spec.clip == "ball":
            return ball_samples(self.shape, spec.center.coords, spec.radius, count, rng)
        return cube_samples(self.shape, spec.center.coords, spec.radius, count, rng)


def _direction_coords(shape: MatrixShape, d: RankOneDirection) -> np.ndarray:
    return shape.matrix_to_coords(d.matrix)


def _segment_check(
    f: FunctionHandle | SampledField,
    domain: GridSpec | None,
    sampler: SegmentSampler,
    directions: Sequence[RankOneDirection],
    operation: str,
) -> ConvexityReport:
    ev = _Evaluator(f, domain)
    shape = ev.shape
    rng = np.random.default_rng(sampler.seed)
    radius = ev.domain.radius

    bases: list[np.ndarray] = []
    dirs: list[np.ndarray] = []
    labels: list[str] = []
    ts: list[float] = []
    for d in directions:
        dc = _direction_coords(shape, d)
        dnorm = shape.frob_norm_coords(dc)
        # Deterministic center probes at half and quarter radius catch unit-scale
        # concavity regardless of the random stream.
        for frac in (0.5, 0.25):
            bases.append(ev.domain.center.coords.copy())
            dirs.append(dc)
            labels.append(d.label())
            ts.append(frac * radius / dnorm)
        base_draw = ev.draw_bases(sampler.step_count, rng)
        t_draw = rng.uniform(0.0, radius / dnorm, size=sampler.step_count)
        for k in range(sampler.step_count):
            bases.append(base_draw[k])
            dirs.append(dc)
            labels.append(d.label())
            ts.append(float(t_draw[k]))

    base_arr = np.asarray(bases)
    dir_arr = np.asarray(dirs)
    t_arr = np.asarray(ts)
    plus = base_arr + t_arr[:, None] * dir_arr
    minus = base_arr - t_arr[:, None] * dir_arr

    v0, ok0 = ev(base_arr)
    vp, okp = ev(plus)
    vm, okm = ev(minus)
    admissible = ok0 & okp & okm & (t_arr > 0.0)

    violations = v0 - 0.5 * vp - 0.5 * vm
    violations = np.where(admissible, violations, -np.inf)
    checked = int(np.sum(admissible))
    skipped = int(admissible.size - checked)
    if checked == 0:
        return ConvexityReport(operation, float("nan"), None, 0, skipped, sampler.seed)
    k = int(np.argmax(violations))
    witness = SegmentSample(
        base=tuple(float(c) for c in base_arr[k]),
        direction=tuple(float(c) for c in dir_arr[k]),
        direction_label=labels[k],
        t=float(t_arr[k]),
    )
    return ConvexityReport(operation, float(violations[k]), witness, checked, skipped, sampler.seed)


def rank_one_convexity_check(
    f: FunctionHandle | SampledField,
    domain: GridSpec | None = None,
    sampler: SegmentSampler = SegmentSampler(),
) -> ConvexityReport:
    """Midpoint convexity along rank-one segments; positive violations are counterexamples."""
    rng = np.random.default_rng(sampler.seed + 1)
    directions = coordinate_directions(f.shape)
    directions += random_directions(f.shape, sampler.direction_count, rng)
    return _segment_check(f, domain, sampler, directions, "rank_one_convexity_check")


def separate_convexity_check(
    f: FunctionHandle | SampledField,
    domain: GridSpec | None = None,
    sampler: SegmentSampler = SegmentSampler(),
) -> ConvexityReport:
    """Midpoint convexity along the coordinate axes only."""
    shape = f.shape
    if shape.symmetric:
        directions = [RankOneDirection(shape, pair=(i, i)) for i in range(shape.rows)]
    else:
        directions = coordinate_directions(shape)
    return _segment_check(f, domain, sampler, directions, "separate_convexity_check")


def replay_violation(
    f: FunctionHandle | SampledField,
    witness: SegmentSample,
    domain: GridSpec | None = None,
) -> float:
    """Recompute the witness violation; must reproduce the report exactly."""
    ev = _Evaluator(f, domain)
    base = np.asarray(witness.base)
    d = np.asarray(witness.direction)
    pts = np.stack([base, base + witness.t * d, base - witness.t * d])
    vals, ok = ev(pts)
    if not np.all(ok):
        raise ValueError("witness segment is no longer admissible")
    return float(vals[0] - 0.5 * vals[1] - 0.5 * vals[2])


@dataclass(frozen=True)
class LipschitzReport:
    lip_lhs: float
    osc_rhs: float
    ratio: float
    ok: bool
    pairs_used: int


def lipschitz_estimate_check(
    f: FunctionHandle,
    x: np.ndarray,
    r: float,
    pair_count: int = 10_000,
    seed: int = 0,
    domain_radius: float = 1.0,
    tol: float = 1e-9,
) -> LipschitzReport:
    """Sampled difference quotients on B_r(x) against n * osc(f, B_2r(x)) / r."""
    x = np.asarray(x, dtype=float).reshape(-1)
    shape = f.shape
    if float(shape.frob_norm_coords(x)) + 2.0 * r > domain_radius * (1.0 + 1e-12):
        raise ValueError(f"B_2r(x) leaves the domain ball of radius {domain_radius}")
    rng = np.random.default_rng(seed)
    p1 = ball_samples(shape, x, r, pair_count, rng)
    p2 = ball_samples(shape, x, r, pair_count, rng)
    v1 = f.value_at_coords(p1)
    v2 = f.value_at_coords(p2)
    gaps = shape.frob_norm_coords(p1 - p2)
    use = gaps > 1e-12
    quotients = np.abs(v1[use] - v2[use]) / gaps[use]
    lip_lhs = float(np.max(quotients)) if quotients.size else 0.0

    wide = ball_samples(shape, x, 2.0 * r, pair_count, rng)
    vals = np.concatenate([f.value_at_coords(wide), v1, v2])
    osc = float(np.max(vals) - np.min(vals))
    osc_rhs = shape.cols * osc / r
    if osc_rhs == 0.0:
        ratio = 0.0 if lip_lhs == 0.0 else math.inf
    else:
        ratio = lip_lhs / osc_rhs
    return LipschitzReport(lip_lhs, osc_rhs, ratio, lip_lhs <= osc_rhs + tol, int(np.sum(use)))


@dataclass(frozen=True)
class NodeMinReport:
    min_value: float
    witness: tuple[float, ...]
    nodes_checked: int


def viscosity_subharmonic_check(fld: SampledField) -> NodeMinReport:
    """Minimum discrete Laplacian over interior nodes; >= -tol for rank-one convex inputs."""
    if fld.shape.symmetric:
        raise ValueError("symmetric fields use symmetric_operator_check")
    dim = fld.shape.dim
    ppa = fld.grid.points_per_axis
    h = fld.grid.spacing
    v = fld.values_nd()
    core = (slice(1, -1),) * dim
    acc = np.zeros((ppa - 2,) * dim)
    for axis in range(dim):
        sl_p = tuple(slice(2, None) if a == axis else slice(1, -1) for a in range(dim))
        sl_m = tuple(slice(0, -2) if a == axis else slice(1, -1) for a in range(dim))
        acc = acc + v[sl_p] + v[sl_m] - 2.0 * v[core]
    lap = acc / (h * h)
    finite = np.isfinite(lap)
    if not np.any(finite):
        raise ValueError("no interior nodes with a complete stencil")
    flat = np.where(finite, lap, np.inf).reshape(-1)
    k = int(np.argmin(flat))
    idx = np.unravel_index(k, lap.shape)
    witness = tuple(float(fld.grid.axis_values(a)[idx[a] + 1]) for a in range(dim))
    return NodeMinReport(float(flat[k]), witness, int(np.sum(finite)))


@dataclass(frozen=True)
class SymmetricOperator:
    """Coefficient tensor a = sum_ij r_ij (x) r_ij over symmetric n-by-n space."""

    n: int
    tensor: np.ndarray  # (n, n, n, n)

    def min_eigenvalue(self) -> float:
        m = self.tensor.reshape(self.n * self.n, self.n * self.n)
        return float(np.min(np.linalg.eigvalsh(0.5 * (m + m.T))))


def assemble_symmetric_operator(n: int) -> SymmetricOperator:
    shape = MatrixShape(n, n, symmetric=True)
    tensor = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            r = RankOneDirection(shape, pair=(i, j)).matrix
            tensor += np.einsum("kl,mn->klmn", r, r)
    return SymmetricOperator(n, tensor)


def symmetric_basis_identity_residual(n: int) -> float:
    """Max entrywise error of 2 sym(e_i (x) e_j) = r_ij - r_ii - r_jj (i != j),
    together with the diagonal representation e_ii = r_ii."""
    shape = MatrixShape(n, n, symmetric=True)
    r = {(i, j): RankOneDirection(shape, pair=(i, j)).matrix for i in range(n) for j in range(n)}
    worst = 0.0
    for i in range(n):
        lhs = np.zeros((n, n))
        lhs[i, i] = 1.0
        worst = max(worst, float(np.max(np.abs(lhs - r[i, i]))))
        for j in range(n):
            if i == j:
                continue
            lhs = np.zeros((n, n))
            lhs[i, j] += 1.0
            lhs[j, i] += 1.0
            rhs = r[i, j] - r[i, i] - r[j, j]
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def symmetric_operator_check(fld: SampledField) -> NodeMinReport:
    """Minimum of the r_ij second-difference operator over interior nodes."""
    if not fld.shape.symmetric:
        raise ValueError("symmetric_operator_check requires a symmetric shape")
    n = fld.shape.rows
    dim = fld.shape.dim
    ppa = fld.grid.points_per_axis
    h = fld.grid.spacing
    coord_index = {pair: k for k, pair in enumerate(fld.shape.coord_pairs())}
    v = fld.values_nd()
    pad = np.pad(v, 1, constant_values=np.nan)

    def shifted(step: np.ndarray) -> np.ndarray:
        sl = tuple(slice(1 + int(s), 1 + int(s) + ppa) for s in step)
        return pad[sl]

    total = np.zeros_like(v)
    for i in range(n):
        for j in range(i, n):
            step = np.zeros(dim, dtype=int)
            if i == j:
                step[coord_index[(i, i)]] = 1
                weight = 1.0
            else:
                step[coord_index[(i, i)]] = 1
                step[coord_index[(i, j)]] = 1
                step[coord_index[(j, j)]] = 1
                weight = 2.0  # r_ij and r_ji coincide
            second = (shifted(step) + shifted(-step) - 2.0 * v) / (h * h)
            total = total + weight * second

    finite = np.isfinite(total)
    if not np.any(finite):
        raise ValueError("no interior nodes with a complete stencil")
    flat = np.where(finite, total, np.inf).reshape(-1)
    k = int(np.argmin(flat))
    idx = np.unravel_index(k, total.shape)
    witness = tuple(float(fld.grid.axis_values(a)[idx[a]]) for a in range(dim))
    return NodeMinReport(float(flat[k]), witness, int(np.sum(finite)))


def apply_symmetric_operator_quadratic(n: int) -> float:
    """Closed form of the operator on |x|^2/2: sum of squared direction norms."""
    shape = MatrixShape(n, n, symmetric=True)
    acc = 0.0
    for i in range(n):
        for j in range(n):
            acc += float(np.sum(RankOneDirection(shape, pair=(i, j)).matrix ** 2))
    return acc


def mollify(fld: SampledField, kernel_radius: int) -> SampledField:
    """Normalized triangular product-kernel average; the domain shrinks by
    kernel_radius nodes per side."""
    if kernel_radius < 1:
        raise ValueError("kernel_radius must be >= 1")
    ppa = fld.grid.points_per_axis
    new_ppa = ppa - 2 * kernel_radius
    if new_ppa < 3:
        raise ValueError("mollified domain is empty at this kernel radius")
    ramp = np.arange(1, kernel_radius + 2, dtype=float)
    weights = np.concatenate([ramp, ramp[-2::-1]])
    weights /= weights.sum()
    v = fld.values_nd()
    for axis in range(fld.shape.dim):
        windows = np.lib.stride_tricks.sliding_window_view(v, weights.size, axis=axis)
        v = np.tensordot(windows, weights, axes=([-1], [0]))
    h = fld.grid.spacing
    new_spec = GridSpec(
        fld.shape,
        fld.grid.center,
        fld.grid.radius - kernel_radius * h,
        new_ppa,
        fld.grid.clip,
    )
    values = v.reshape(-1)
    mask = np.isfinite(values) & make_grid(new_spec).mask
    return SampledField(new_spec, values, mask)
