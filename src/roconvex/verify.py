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
    RankOneDirection,
    SampledField,
    ball_samples,
    coordinate_directions,
    cube_samples,
    evaluate,
    grid_spec,
    make_grid,
    random_directions,
    shifted,
)
from .corpus import FunctionHandle


@dataclass(frozen=True)
class SegmentSampler:
    """Sampling plan for segment-based convexity checks."""

    direction_count: int = 16
    step_count: int = 12
    seed: int = 0

    def __post_init__(self) -> None:
        if self.direction_count < 0 or self.step_count < 0:
            raise ValueError(
                "direction_count and step_count must be >= 0, "
                f"got {self.direction_count} and {self.step_count}"
            )


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


def _region(f: FunctionHandle | SampledField, domain: GridSpec | None) -> GridSpec:
    """The checked region: a field's own grid, else `domain`, else the unit cube."""
    if isinstance(f, SampledField):
        if domain is not None and domain != f.grid:
            raise ValueError("a sampled field is checked on its own grid, and `domain` differs from it")
        return f.grid
    return domain if domain is not None else grid_spec(f.shape)


def _midpoint_gaps(
    f: FunctionHandle | SampledField, region: GridSpec, base: np.ndarray, d: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """f(x) - f(x + tD)/2 - f(x - tD)/2 per row, and where all three points lie in the region."""
    step = t[:, None] * d
    pts = np.concatenate([base, base + step, base - step])
    vals, ok = evaluate(f, pts)
    v0, vp, vm = vals.reshape(3, -1)
    return v0 - 0.5 * vp - 0.5 * vm, (ok & region.contains(pts)).reshape(3, -1).all(axis=0)


def _segment_check(
    f: FunctionHandle | SampledField,
    domain: GridSpec | None,
    sampler: SegmentSampler,
    directions: Sequence[RankOneDirection],
    operation: str,
) -> ConvexityReport:
    region = _region(f, domain)
    shape = region.shape
    radius = region.radius
    draw = ball_samples if region.clip == "ball" else cube_samples
    rng = np.random.default_rng(sampler.seed)

    # One block of rows per direction: two deterministic center probes at half and
    # quarter radius, which catch unit-scale concavity regardless of the random
    # stream, then `step_count` random bases and steps.
    block = 2 + sampler.step_count
    base = np.empty((len(directions) * block, shape.dim))
    dirs = np.empty_like(base)
    t = np.empty(len(base))
    for k, d in enumerate(directions):
        lo, hi = k * block, (k + 1) * block
        dirs[lo:hi] = shape.matrix_to_coords(d.matrix)
        dnorm = shape.frob_norm_coords(dirs[lo])
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
        direction_label=directions[k // block].label(),
        t=float(t[k]),
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
    gap, ok = _midpoint_gaps(
        f, _region(f, domain), np.array([witness.base]), np.array([witness.direction]), np.array([witness.t])
    )
    if not ok[0]:
        raise ValueError("witness segment is no longer admissible")
    return float(gap[0])


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
) -> LipschitzReport:
    """Sampled difference quotients on B_r(x) against n * osc(f, B_2r(x)) / r,
    with B_2r(x) inside the unit ball."""
    x = np.asarray(x, dtype=float).reshape(-1)
    shape = f.shape
    if float(shape.frob_norm_coords(x)) + 2.0 * r > 1.0 + 1e-12:
        raise ValueError("B_2r(x) leaves the domain ball of radius 1.0")
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
    return LipschitzReport(lip_lhs, osc_rhs, ratio, lip_lhs <= osc_rhs + 1e-9, int(np.sum(use)))


@dataclass(frozen=True)
class NodeMinReport:
    min_value: float
    witness: tuple[float, ...]
    nodes_checked: int


def _node_min(fld: SampledField, total: np.ndarray) -> NodeMinReport:
    """The least finite node value of `total`, at its first node in C order."""
    finite = np.isfinite(total)
    if not np.any(finite):
        raise ValueError("no interior nodes with a complete stencil")
    flat = np.where(finite, total, np.inf).reshape(-1)
    k = int(np.argmin(flat))
    idx = np.unravel_index(k, total.shape)
    witness = tuple(float(fld.grid.axis_values(a)[i]) for a, i in enumerate(idx))
    return NodeMinReport(float(flat[k]), witness, int(np.sum(finite)))


def viscosity_subharmonic_check(fld: SampledField) -> NodeMinReport:
    """Minimum discrete Laplacian over interior nodes; >= -tol for rank-one convex inputs."""
    if fld.shape.symmetric:
        raise ValueError("symmetric fields use symmetric_operator_check")
    h = fld.grid.spacing
    v = fld.values_nd()
    acc = np.zeros_like(v)
    for e in np.eye(fld.shape.dim, dtype=int):
        acc = acc + shifted(v, e) + shifted(v, -e) - 2.0 * v
    return _node_min(fld, acc / (h * h))


def symmetric_operator_check(fld: SampledField) -> NodeMinReport:
    """Minimum of the r_ij second-difference operator over interior nodes."""
    if not fld.shape.symmetric:
        raise ValueError("symmetric_operator_check requires a symmetric shape")
    shape = fld.shape
    h = fld.grid.spacing
    v = fld.values_nd()
    total = np.zeros_like(v)
    for d in coordinate_directions(shape):
        step = shape.matrix_to_coords(d.matrix).astype(int)
        weight = 1.0 if d.pair[0] == d.pair[1] else 2.0  # r_ij and r_ji coincide
        second = (shifted(v, step) + shifted(v, -step) - 2.0 * v) / (h * h)
        total = total + weight * second
    return _node_min(fld, total)


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
