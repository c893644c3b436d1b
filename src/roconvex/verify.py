"""First-order verification: rank-one/separate convexity, discrete
subharmonicity, the symmetric-space operator, and mollification.

All checks are sampling-based certificates: a nonpositive worst violation
certifies the property at the sampled resolution, a positive one is a concrete
counterexample that replays deterministically under the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    GridSpec,
    MatrixShape,
    SampledField,
    ball_samples,
    coordinate_directions,
    cube_samples,
    evaluate,
    grid_spec,
    make_grid,
    random_directions,
    seeded_rng,
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def _labeller(
    shape: MatrixShape, pairs: Sequence[tuple[int, int]], a: np.ndarray = (), b: np.ndarray = ()
) -> Callable[[int], str]:
    """label(k) for the coordinate directions of `pairs` followed by the a[j] (x) b[j]:
    r_ij for a symmetric coordinate direction, else ({a})(x)({b}) from its factors."""

    def label(k: int) -> str:
        if k < len(pairs):
            i, j = pairs[k]
            if shape.symmetric:
                return f"r_{i + 1}{j + 1}"
            u, v = np.eye(shape.rows)[i], np.eye(shape.cols)[j]
        else:
            u, v = a[k - len(pairs)], b[k - len(pairs)]
        return f"({np.array2string(u, precision=4)})(x)({np.array2string(v, precision=4)})"

    return label


def _segment_check(
    f: FunctionHandle | SampledField,
    domain: GridSpec | None,
    sampler: SegmentSampler,
    matrices: np.ndarray,
    label: Callable[[int], str],
    operation: str,
) -> ConvexityReport:
    """Midpoint gaps along the direction matrices (count, rows, cols); `label(k)`
    names the k-th one, and is called only for the witness."""
    region = _region(f, domain)
    shape = region.shape
    radius = region.radius
    draw = ball_samples if region.clip == "ball" else cube_samples
    rng = seeded_rng(sampler.seed)

    # One block of rows per direction: two deterministic center probes at half and
    # quarter radius, which catch unit-scale concavity regardless of the random
    # stream, then `step_count` random bases and steps. The loop holds only the
    # two draws per direction that define the stream.
    count, block = len(matrices), 2 + sampler.step_count
    dirs = shape.matrix_to_coords(matrices)
    dnorm = shape.frob_norm_coords(dirs)
    base = np.empty((count, block, shape.dim))
    t = np.empty((count, block))
    base[:, :2] = region.center.coords
    t[:, :2] = np.array([0.5, 0.25]) * radius / dnorm[:, None]
    reach = radius / dnorm
    for k in range(count):
        base[k, 2:] = draw(shape, region.center.coords, radius, sampler.step_count, rng)
        t[k, 2:] = rng.uniform(0.0, reach[k], size=sampler.step_count)
    base, t = base.reshape(-1, shape.dim), t.reshape(-1)
    dirs = np.repeat(dirs, block, axis=0)

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
        direction_label=label(k // block),
        t=float(t[k]),
    )
    return ConvexityReport(operation, float(violations[k]), witness, checked, skipped, sampler.seed)


def rank_one_convexity_check(
    f: FunctionHandle | SampledField,
    domain: GridSpec | None = None,
    sampler: SegmentSampler = SegmentSampler(),
) -> ConvexityReport:
    """Midpoint convexity along rank-one segments; positive violations are counterexamples."""
    shape = f.shape
    rng = seeded_rng(sampler.seed + 1)
    a, b = random_directions(shape, sampler.direction_count, rng)
    matrices = np.concatenate([coordinate_directions(shape), a[:, :, None] * b[:, None, :]])
    label = _labeller(shape, shape.coord_pairs(), a, b)
    return _segment_check(f, domain, sampler, matrices, label, "rank_one_convexity_check")


def separate_convexity_check(
    f: FunctionHandle | SampledField,
    domain: GridSpec | None = None,
    sampler: SegmentSampler = SegmentSampler(),
) -> ConvexityReport:
    """Midpoint convexity along the coordinate axes only."""
    shape = f.shape
    # symmetric shapes keep the diagonal r_ii = e_i (x) e_i only
    pairs = shape.coord_pairs()
    keep = [k for k, (i, j) in enumerate(pairs) if i == j or not shape.symmetric]
    matrices = coordinate_directions(shape)[keep]
    label = _labeller(shape, [pairs[k] for k in keep])
    return _segment_check(f, domain, sampler, matrices, label, "separate_convexity_check")


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
    for (i, j), d in zip(shape.coord_pairs(), coordinate_directions(shape)):
        step = shape.matrix_to_coords(d).astype(int)
        weight = 1.0 if i == j else 2.0  # r_ij and r_ji coincide
        second = (shifted(v, step) + shifted(v, -step) - 2.0 * v) / (h * h)
        total = total + weight * second
    return _node_min(fld, total)


def mollify(fld: SampledField) -> SampledField:
    """Product-kernel average with weights (1/4, 1/2, 1/4) per axis; the domain
    shrinks by one node per side."""
    new_ppa = fld.grid.points_per_axis - 2
    if new_ppa < 3:
        raise ValueError("mollified domain is empty: mollify needs at least 5 points per axis")
    weights = np.array([0.25, 0.5, 0.25])
    v = fld.values_nd()
    for axis in range(fld.shape.dim):
        windows = np.lib.stride_tricks.sliding_window_view(v, weights.size, axis=axis)
        v = np.tensordot(windows, weights, axes=([-1], [0]))
    new_spec = GridSpec(fld.shape, fld.grid.center, fld.grid.radius - fld.grid.spacing, new_ppa, fld.grid.clip)
    values = v.reshape(-1)
    mask = np.isfinite(values) & make_grid(new_spec).mask
    return SampledField(new_spec, values, mask)
