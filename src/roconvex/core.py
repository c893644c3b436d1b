"""Matrix-space geometry: shapes, rank-one directions, grids, and sampled fields.

Everything downstream works on tensor grids over a cube (optionally masked to
the Frobenius ball) in a space of m-by-n matrices, or in the subspace of
symmetric n-by-n matrices stored by their upper triangle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .corpus import FunctionHandle

# Desk-scale budgets. Larger requests fail loudly instead of thrashing.
MAX_GRID_DIM = 4
MAX_POINTS_PER_AXIS = 13
MAX_GRID_NODES = 30_000

_BALL_SLACK = 1e-12


class CapacityError(ValueError):
    """A grid request exceeds the desk-scale budget (dim, axis points, or nodes)."""


@dataclass(frozen=True)
class MatrixShape:
    """Shape of the matrix space: m-by-n, or symmetric n-by-n (upper-triangle storage)."""

    rows: int
    cols: int
    symmetric: bool = False

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"matrix shape must be positive, got {self.rows}x{self.cols}")
        if self.symmetric and self.rows != self.cols:
            raise ValueError("symmetric shape requires rows == cols")

    @property
    def dim(self) -> int:
        if self.symmetric:
            return self.rows * (self.rows + 1) // 2
        return self.rows * self.cols

    def coord_pairs(self) -> tuple[tuple[int, int], ...]:
        """Matrix index (i, j) of each stored coordinate, row-major."""
        if self.symmetric:
            return tuple((i, j) for i in range(self.rows) for j in range(i, self.cols))
        return tuple((i, j) for i in range(self.rows) for j in range(self.cols))

    def coord_names(self) -> tuple[str, ...]:
        return tuple(f"x_{i + 1}{j + 1}" for i, j in self.coord_pairs())

    def frob_weights(self) -> np.ndarray:
        """Per-coordinate weights w with |X|_F = |w * coords|_2 (off-diagonals count twice)."""
        if not self.symmetric:
            return np.ones(self.dim)
        return np.array([1.0 if i == j else math.sqrt(2.0) for i, j in self.coord_pairs()])

    def coords_to_matrix(self, coords: np.ndarray) -> np.ndarray:
        """Map coordinate vectors (..., dim) to full matrices (..., rows, cols)."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape[-1] != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {coords.shape[-1]}")
        if not self.symmetric:
            return coords.reshape(coords.shape[:-1] + (self.rows, self.cols))
        out = np.zeros(coords.shape[:-1] + (self.rows, self.cols))
        for k, (i, j) in enumerate(self.coord_pairs()):
            out[..., i, j] = coords[..., k]
            out[..., j, i] = coords[..., k]
        return out

    def matrix_to_coords(self, mat: np.ndarray) -> np.ndarray:
        mat = np.asarray(mat, dtype=float)
        if mat.shape[-2:] != (self.rows, self.cols):
            raise ValueError(f"expected trailing shape {(self.rows, self.cols)}, got {mat.shape[-2:]}")
        if not self.symmetric:
            return mat.reshape(mat.shape[:-2] + (self.dim,))
        cols = [mat[..., i, j] for i, j in self.coord_pairs()]
        return np.stack(cols, axis=-1)

    def frob_norm_coords(self, coords: np.ndarray) -> np.ndarray:
        """Frobenius norm of the represented matrices, from coordinates (..., dim)."""
        coords = np.asarray(coords, dtype=float)
        w = self.frob_weights()
        return np.sqrt(np.sum((coords * w) ** 2, axis=-1))


@dataclass(frozen=True, eq=False)
class MatrixPoint:
    """A point of the matrix space, stored by coordinates."""

    shape: MatrixShape
    coords: np.ndarray

    def __post_init__(self) -> None:
        # + 0.0 turns -0.0 into 0.0, so points that compare equal hash equal.
        coords = np.asarray(self.coords, dtype=float).reshape(-1) + 0.0
        if coords.size != self.shape.dim:
            raise ValueError(f"expected {self.shape.dim} coordinates, got {coords.size}")
        if not np.all(np.isfinite(coords)):
            raise ValueError("point coordinates must be finite")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixPoint):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.coords, other.coords))

    def __hash__(self) -> int:
        return hash((self.shape, self.coords.tobytes()))

    @classmethod
    def zero(cls, shape: MatrixShape) -> "MatrixPoint":
        return cls(shape, np.zeros(shape.dim))



@dataclass(frozen=True)
class RankOneDirection:
    """A rank-one direction: a (x) b in general shape, or r_ij in symmetric shape.

    Symmetric convention: r_ij = (e_i+e_j) (x) (e_i+e_j) for i != j, and
    r_ii = e_i (x) e_i, so that 2 sym(e_i (x) e_j) = r_ij - r_ii - r_jj exactly.
    """

    shape: MatrixShape
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    pair: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.shape.symmetric:
            if self.pair is None or self.a is not None or self.b is not None:
                raise ValueError("symmetric directions are given by an index pair")
            i, j = self.pair
            if not (0 <= i < self.shape.rows and 0 <= j < self.shape.cols):
                raise ValueError(f"index pair {self.pair} out of range")
        else:
            if self.pair is not None or self.a is None or self.b is None:
                raise ValueError("general directions are given by vectors a and b")
            a = np.asarray(self.a, dtype=float).reshape(-1)
            b = np.asarray(self.b, dtype=float).reshape(-1)
            if a.size != self.shape.rows or b.size != self.shape.cols:
                raise ValueError("direction vectors do not match the shape")
            if np.linalg.norm(a) == 0.0 or np.linalg.norm(b) == 0.0:
                raise ValueError("direction vectors must be nonzero")
            a.flags.writeable = False
            b.flags.writeable = False
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)

    @property
    def matrix(self) -> np.ndarray:
        if self.shape.symmetric:
            i, j = self.pair  # type: ignore[misc]
            e = np.zeros(self.shape.rows)
            if i == j:
                e[i] = 1.0
            else:
                e[i] = 1.0
                e[j] = 1.0
            return np.outer(e, e)
        return np.outer(self.a, self.b)

    @property
    def frob_norm(self) -> float:
        return float(np.linalg.norm(self.matrix))

    def label(self) -> str:
        if self.shape.symmetric:
            i, j = self.pair  # type: ignore[misc]
            return f"r_{i + 1}{j + 1}"
        return f"({np.array2string(self.a, precision=4)})(x)({np.array2string(self.b, precision=4)})"


def coordinate_directions(shape: MatrixShape) -> list[RankOneDirection]:
    """The deterministic direction set: e_i (x) e_j, or r_ij = (e_i+e_j)(x)(e_i+e_j)."""
    if shape.symmetric:
        return [
            RankOneDirection(shape, pair=(i, j))
            for i in range(shape.rows)
            for j in range(i, shape.cols)
        ]
    dirs = []
    for i in range(shape.rows):
        for j in range(shape.cols):
            a = np.zeros(shape.rows)
            a[i] = 1.0
            b = np.zeros(shape.cols)
            b[j] = 1.0
            dirs.append(RankOneDirection(shape, a=a, b=b))
    return dirs


def random_directions(shape: MatrixShape, count: int, rng: np.random.Generator) -> list[RankOneDirection]:
    """Rank-one directions with unit-sphere factors; symmetric shapes use v (x) v."""
    dirs: list[RankOneDirection] = []
    for _ in range(count):
        if shape.symmetric:
            v = rng.standard_normal(shape.rows)
            v /= np.linalg.norm(v)
            # v (x) v expressed through the nearest index pair is lossy; keep the raw
            # matrix by routing through the general constructor on the full square shape.
            dirs.append(RankOneDirection(MatrixShape(shape.rows, shape.cols), a=v, b=v))
        else:
            a = rng.standard_normal(shape.rows)
            a /= np.linalg.norm(a)
            b = rng.standard_normal(shape.cols)
            b /= np.linalg.norm(b)
            dirs.append(RankOneDirection(shape, a=a, b=b))
    return dirs


@dataclass(frozen=True)
class GridSpec:
    """Tensor grid over the coordinate cube Q_radius(center), optionally ball-clipped."""

    shape: MatrixShape
    center: MatrixPoint
    radius: float
    points_per_axis: int
    clip: str = "cube"

    def __post_init__(self) -> None:
        if self.center.shape != self.shape:
            raise ValueError("grid center shape mismatch")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("grid radius must be positive and finite")
        if self.points_per_axis < 3 or self.points_per_axis % 2 == 0:
            raise ValueError("points_per_axis must be an odd integer >= 3")
        if self.clip not in ("cube", "ball"):
            raise ValueError(f"unknown clip region {self.clip!r}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.radius / (self.points_per_axis - 1)

    def axis_values(self, k: int) -> np.ndarray:
        return self.center.coords[k] + np.linspace(-self.radius, self.radius, self.points_per_axis)

    def contains(self, coords: np.ndarray) -> np.ndarray:
        """True where coordinates (..., dim) lie in the clip region, up to relative _BALL_SLACK."""
        rel = coords - self.center.coords
        bound = self.radius * (1.0 + _BALL_SLACK)
        if self.clip == "ball":
            return self.shape.frob_norm_coords(rel) <= bound
        return np.all(np.abs(rel) <= bound, axis=-1)

    def to_dict(self) -> dict:
        return {
            "rows": self.shape.rows,
            "cols": self.shape.cols,
            "symmetric": self.shape.symmetric,
            "center": [float(c) for c in self.center.coords],
            "radius": float(self.radius),
            "points_per_axis": int(self.points_per_axis),
            "clip": self.clip,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        shape = MatrixShape(int(d["rows"]), int(d["cols"]), bool(d["symmetric"]))
        center = MatrixPoint(shape, np.asarray(d["center"], dtype=float))
        return cls(shape, center, float(d["radius"]), int(d["points_per_axis"]), str(d["clip"]))


def grid_spec(
    shape: MatrixShape,
    radius: float = 1.0,
    points_per_axis: int = 9,
    clip: str = "cube",
    center: MatrixPoint | None = None,
) -> GridSpec:
    if center is None:
        center = MatrixPoint.zero(shape)
    return GridSpec(shape, center, radius, points_per_axis, clip)


@dataclass(frozen=True)
class Grid:
    """Materialized grid nodes in C order (first coordinate varies slowest)."""

    spec: GridSpec
    coords: np.ndarray  # (N, dim)
    mask: np.ndarray  # (N,) True when the node lies in the clip region

    @property
    def node_count(self) -> int:
        return self.coords.shape[0]

    def matrices(self) -> np.ndarray:
        return self.spec.shape.coords_to_matrix(self.coords)

    @functools.cached_property
    def cloud(self) -> tuple[np.ndarray, np.ndarray]:
        """The masked nodes (K, dim) and their flattened matrices (K, rows*cols), read-only.

        Built on first use; for general shapes the matrices are a view of the nodes.
        """
        coords = self.coords[self.mask]
        coords.flags.writeable = False
        mats = self.spec.shape.coords_to_matrix(coords).reshape(coords.shape[0], -1)
        mats.flags.writeable = False
        return coords, mats


def make_grid(spec: GridSpec, max_nodes: int | None = None) -> Grid:
    """Build the tensor grid for `spec`, masking nodes outside the clip region.

    Grids are read-only, so the few most recently used ones are cached and shared.
    """
    return _make_grid(spec, MAX_GRID_NODES if max_nodes is None else max_nodes)


@functools.lru_cache(maxsize=8)
def _make_grid(spec: GridSpec, budget: int) -> Grid:
    dim = spec.shape.dim
    if dim > MAX_GRID_DIM:
        raise CapacityError(f"grid dimension {dim} exceeds budget {MAX_GRID_DIM}")
    if spec.points_per_axis > MAX_POINTS_PER_AXIS:
        raise CapacityError(
            f"points_per_axis {spec.points_per_axis} exceeds budget {MAX_POINTS_PER_AXIS}"
        )
    total = spec.points_per_axis**dim
    if total > budget:
        raise CapacityError(f"node count {total} exceeds budget {budget}")
    axes = [spec.axis_values(k) for k in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    mask = spec.contains(coords) if spec.clip == "ball" else np.ones(total, dtype=bool)
    coords.flags.writeable = False
    mask.flags.writeable = False
    return Grid(spec, coords, mask)


@dataclass(frozen=True)
class SampledField:
    """Values on the valid nodes of a grid; NaN on masked-out nodes."""

    grid: GridSpec
    values: np.ndarray  # (N,)
    mask: np.ndarray  # (N,) bool

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float).reshape(-1)
        mask = np.asarray(self.mask, dtype=bool).reshape(-1)
        n = self.grid.points_per_axis**self.grid.shape.dim
        if values.size != n or mask.size != n:
            raise ValueError("field arrays do not match the grid size")
        if not np.all(np.isfinite(values[mask])):
            raise ValueError("field values must be finite on valid nodes")
        values = values.copy()
        values[~mask] = np.nan
        values.flags.writeable = False
        mask = mask.copy()
        mask.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @property
    def shape(self) -> MatrixShape:
        return self.grid.shape

    @property
    def nd_shape(self) -> tuple[int, ...]:
        return (self.grid.points_per_axis,) * self.grid.shape.dim

    def values_nd(self) -> np.ndarray:
        return self.values.reshape(self.nd_shape)

    def node_coords(self) -> np.ndarray:
        return make_grid(self.grid).coords

    def valid_coords(self) -> np.ndarray:
        return self.node_coords()[self.mask]

    def valid_values(self) -> np.ndarray:
        return self.values[self.mask]

    def sup_abs(self) -> float:
        return float(np.max(np.abs(self.valid_values())))

    def interpolate(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Multilinear interpolation at query coordinates (K, dim).

        Returns (values, ok); ok is False where the query leaves the grid cube or
        the surrounding cell touches an invalid node.
        """
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        spec = self.grid
        dim = spec.shape.dim
        h = spec.spacing
        lo = spec.center.coords - spec.radius
        rel = (coords - lo) / h
        inside = np.all((rel >= -1e-9) & (rel <= spec.points_per_axis - 1 + 1e-9), axis=1)
        cell = np.clip(np.floor(rel).astype(int), 0, spec.points_per_axis - 2)
        frac = np.clip(rel - cell, 0.0, 1.0)
        # Per axis, the weight factor of the lower (bit 0) and upper (bit 1) node.
        factors = [(1.0 - frac[:, k], frac[:, k]) for k in range(dim)]
        strides = [spec.points_per_axis ** (dim - 1 - k) for k in range(dim)]  # C order
        base = cell @ np.array(strides)  # flat index of each cell's lowest corner
        out = np.zeros(coords.shape[0])
        ok = inside.copy()
        for corner in range(2**dim):
            bits = [(corner >> k) & 1 for k in range(dim)]
            weight = factors[0][bits[0]]
            for k in range(1, dim):
                weight = weight * factors[k][bits[k]]
            corner_vals = self.values[base + sum(b * s for b, s in zip(bits, strides))]
            contrib = weight * corner_vals
            # A NaN corner with zero weight must not poison the cell.
            bad = ~np.isfinite(corner_vals)
            ok &= ~(bad & (weight > 0.0))
            contrib = np.where(bad, 0.0, contrib)
            out += contrib
        out[~ok] = np.nan
        return out, ok


def evaluate(f: FunctionHandle | SampledField, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of a handle or a field at coordinates (K, dim), with a validity mask.

    A field is interpolated and `ok` marks the queries it can answer; a handle
    answers every query.
    """
    if isinstance(f, SampledField):
        return f.interpolate(coords)
    vals = f.value_at_coords(coords)
    return vals, np.ones(vals.shape, dtype=bool)


def sample(f: FunctionHandle, spec: GridSpec) -> SampledField:
    """Evaluate `f` at all valid grid nodes of `spec`."""
    grid = make_grid(spec)
    values = np.full(grid.node_count, np.nan)
    mats = grid.matrices()[grid.mask]
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names the node
        vals = np.asarray(f.value(mats), dtype=float)
    if not np.all(np.isfinite(vals)):
        k = int(np.flatnonzero(~np.isfinite(vals))[0])
        where = grid.coords[grid.mask][k]
        raise ValueError(f"non-finite value of {getattr(f, 'name', 'function')} at node {where}")
    values[grid.mask] = vals
    return SampledField(spec, values, grid.mask)


def shifted(v: np.ndarray, step: np.ndarray | tuple[int, ...]) -> np.ndarray:
    """The nd node values `v` read `step` nodes away, NaN where that node is off the grid.

    Masked nodes already hold NaN, so an off-grid and an off-mask neighbour read alike.
    """
    out = np.full(v.shape, np.nan)
    dst, src = [], []
    for s, n in zip(step, v.shape):
        s = int(s)
        dst.append(slice(min(n, max(0, -s)), max(0, min(n, n - s))))
        src.append(slice(min(n, max(0, s)), max(0, min(n, n + s))))
    out[tuple(dst)] = v[tuple(src)]
    return out


def gradient_field(fld: SampledField) -> list[SampledField]:
    """Per-coordinate derivative fields by central differences.

    One-sided second-order stencils are used where a neighbor is missing (cube
    boundary or ball mask); nodes with no admissible stencil are masked out.
    """
    h = fld.grid.spacing
    v = fld.values_nd()
    out: list[SampledField] = []
    for e in np.eye(fld.grid.shape.dim, dtype=int):
        p1, p2, m1, m2 = (shifted(v, s * e) for s in (1, 2, -1, -2))
        central = (p1 - m1) / (2.0 * h)
        fwd = (-3.0 * v + 4.0 * p1 - p2) / (2.0 * h)
        bwd = (3.0 * v - 4.0 * m1 + m2) / (2.0 * h)
        g = np.where(np.isfinite(central), central, fwd)
        g = np.where(np.isfinite(g), g, bwd).reshape(-1)
        out.append(SampledField(fld.grid, g, np.isfinite(g)))
    return out


def ball_samples(
    shape: MatrixShape,
    center: np.ndarray,
    radius: float,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform samples (count, dim) from the Frobenius ball, by rejection from the cube."""
    if not (radius > 0.0 and math.isfinite(radius)):
        raise ValueError(f"ball radius must be positive and finite, got {radius}")
    center = np.asarray(center, dtype=float).reshape(-1)
    out = np.empty((count, shape.dim))
    have = 0
    while have < count:
        draw = rng.uniform(-radius, radius, size=(max(count, 64), shape.dim))
        with np.errstate(over="ignore"):
            norms = shape.frob_norm_coords(draw)
        if not np.any(np.isfinite(norms)):  # every norm overflows: no draw would ever land
            raise ValueError(f"ball_samples cannot sample radius {radius}: every norm overflows")
        keep = norms <= radius
        take = min(count - have, int(np.sum(keep)))
        out[have : have + take] = draw[keep][:take]
        have += take
    return out + center


def cube_samples(
    shape: MatrixShape,
    center: np.ndarray,
    radius: float,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    center = np.asarray(center, dtype=float).reshape(-1)
    return center + rng.uniform(-radius, radius, size=(count, shape.dim))


def ball_volume(dim: int, radius: float) -> float:
    """Lebesgue volume of the Euclidean ball in `dim` coordinates."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0) * radius**dim
