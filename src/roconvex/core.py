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
        """Frobenius norm of the represented matrices, from coordinates (..., dim).

        The weighted squares are added one coordinate at a time, the order
        np.sum takes over fewer than 8 coordinates, so each row's bits depend
        only on that row and no (..., dim) temporary is built.
        """
        coords = np.asarray(coords, dtype=float)
        w = self.frob_weights()
        c = coords[..., 0] * w[0]
        q = c * c
        for j in range(1, self.dim):
            c = coords[..., j] * w[j]
            q += c * c
        return np.sqrt(q)


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


def coordinate_directions(shape: MatrixShape) -> np.ndarray:
    """The deterministic rank-one directions as (k, rows, cols) matrices, one per
    coordinate in `shape.coord_pairs()` order: e_i (x) e_j in general shape; in
    symmetric shape r_ij = (e_i+e_j) (x) (e_i+e_j) for i != j and r_ii = e_i (x) e_i,
    so that 2 sym(e_i (x) e_j) = r_ij - r_ii - r_jj exactly."""
    pairs = shape.coord_pairs()
    a = np.zeros((len(pairs), shape.rows))
    b = np.zeros((len(pairs), shape.cols))
    for k, (i, j) in enumerate(pairs):
        a[k, i] = b[k, j] = 1.0
        if shape.symmetric:
            a[k, j] = b[k, i] = 1.0
    return a[:, :, None] * b[:, None, :]


def random_directions(shape: MatrixShape, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Unit factors (a, b) of `count` random rank-one directions a (x) b, as
    (count, rows) and (count, cols) arrays; symmetric shapes use v (x) v, so b is a.

    One standard-normal draw holds, row by row, the draws of a then b (v alone
    for symmetric shapes). Each factor is divided by sqrt(z . z) formed by a
    stacked matmul, the arithmetic of the 1-D np.linalg.norm, so every row has
    the bits of a direction drawn and normalised on its own.
    """
    rows = shape.rows
    z = rng.standard_normal((count, rows if shape.symmetric else rows + shape.cols))
    factors = [z] if shape.symmetric else [z[:, :rows], z[:, rows:]]
    for u in factors:
        u /= np.sqrt(np.matmul(u[:, None, :], u[:, :, None]))[:, 0]
    return factors[0], factors[-1]


def seeded_rng(seed: int) -> np.random.Generator:
    """np.random.default_rng(seed), after naming a negative seed (numpy's error names no input)."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


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

    @functools.cached_property
    def cloud(self) -> tuple[np.ndarray, np.ndarray]:
        """The masked nodes (K, dim) and their flattened matrices transposed,
        (rows*cols, K) in C order; both read-only.

        Built on first use. The transposed matrices hold one contiguous row of
        K nodes per matrix entry, so the opening path's element-wise offsets
        run along rows. A copy moves values, not bits: every node reads the
        same entries in either layout.
        """
        coords = self.coords[self.mask]
        coords.flags.writeable = False
        mats_t = np.ascontiguousarray(self.spec.shape.coords_to_matrix(coords).reshape(coords.shape[0], -1).T)
        mats_t.flags.writeable = False
        return coords, mats_t

    def cloud_positions(self, points: np.ndarray) -> np.ndarray:
        """Positions in `cloud` of the nodes at coordinates `points` (k, dim), in their order.

        A point is a node when each coordinate equals one of that axis's values
        exactly, so the lookup reads no node but its own. Raises ValueError
        naming the first point that is off the grid or on a masked node.
        """
        points = np.asarray(points, dtype=float).reshape(-1, self.spec.shape.dim)
        n = self.spec.points_per_axis
        flat = np.zeros(points.shape[0], dtype=np.intp)
        on_grid = np.ones(points.shape[0], dtype=bool)
        for k, column in enumerate(points.T):
            axis = self.spec.axis_values(k)
            i = np.searchsorted(axis, column).clip(max=n - 1)
            on_grid &= axis[i] == column
            flat = flat * n + i
        positions = self._cloud_rank[flat]
        bad = ~on_grid | (positions < 0)
        if bad.any():
            j = int(bad.argmax())
            cause = "the grid masks it" if on_grid[j] else "it is off the grid"
            raise ValueError(f"point {points[j].tolist()} is not a constraint node: {cause}")
        return positions

    @functools.cached_property
    def _cloud_rank(self) -> np.ndarray:
        """Each node's position in `cloud`, -1 on masked nodes; read-only."""
        rank = np.cumsum(self.mask) - 1
        rank[~self.mask] = -1
        rank.flags.writeable = False
        return rank


@functools.lru_cache(maxsize=8)
def make_grid(spec: GridSpec) -> Grid:
    """Build the tensor grid for `spec`, masking nodes outside the clip region.

    Grids are read-only, so the few most recently used ones are cached and shared.
    """
    dim = spec.shape.dim
    if dim > MAX_GRID_DIM:
        raise CapacityError(f"grid dimension {dim} exceeds budget {MAX_GRID_DIM}")
    if spec.points_per_axis > MAX_POINTS_PER_AXIS:
        raise CapacityError(
            f"points_per_axis {spec.points_per_axis} exceeds budget {MAX_POINTS_PER_AXIS}"
        )
    total = spec.points_per_axis**dim
    if total > MAX_GRID_NODES:
        raise CapacityError(f"node count {total} exceeds budget {MAX_GRID_NODES}")
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

    def valid_values(self) -> np.ndarray:
        """The values on the valid nodes, in node order; computed once, read-only."""
        return self._valid_values

    @functools.cached_property
    def _valid_values(self) -> np.ndarray:
        values = self.values[self.mask]
        values.flags.writeable = False
        return values

    def sup_abs(self) -> float:
        vals = self.valid_values()
        if vals.size == 0:
            raise ValueError("sup_abs: field has no valid nodes")
        return float(np.max(np.abs(vals)))

    def interpolate(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Multilinear interpolation at query coordinates (K, dim).

        Returns (values, ok); ok is False where the query leaves the grid cube or
        the surrounding cell touches an invalid node. Corner c has bit k of c set
        when it takes the upper node on axis k; its weight multiplies the axis
        factors in axis order, and the corner terms are added in corner order by
        a running sum. Each query's value reads only its own row, in an order
        that does not depend on K, so a query gets the same bits alone or in a
        batch (np.sum would add the 2^dim terms pairwise for one query).

        A node's own coordinates give (node - lo) / h off its integer by the
        roundings of linspace, the centre shift, lo, the difference and the
        quotient: at most u (6.5 (n - 1) + 2 |c| / h) to first order, with
        u = eps / 2. An offset that small would give a masked neighbour a
        weight of about 1e-16, so lattice positions within 4 eps (n + |c| / h)
        of an integer snap to it, and a node answers with its own value.
        """
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        spec = self.grid
        dim = spec.shape.dim
        h = spec.spacing
        lo = spec.center.coords - spec.radius
        rel = (coords - lo) / h
        near = np.rint(rel)
        tol = 4.0 * np.finfo(float).eps * (spec.points_per_axis + np.abs(spec.center.coords) / h)
        rel = np.where(np.abs(rel - near) <= tol, near, rel)
        inside = np.all((rel >= -1e-9) & (rel <= spec.points_per_axis - 1 + 1e-9), axis=1)
        cell = np.clip(np.floor(rel).astype(int), 0, spec.points_per_axis - 2)
        frac = np.clip(rel - cell, 0.0, 1.0)
        # factors[:, k, b]: the weight factor on axis k of the lower (b = 0) or upper (b = 1) node.
        factors = np.stack([1.0 - frac, frac], axis=2)
        bits = (np.arange(2**dim)[:, None] >> np.arange(dim)) & 1  # (2^dim, dim)
        weight = factors[:, 0, bits[:, 0]]
        for k in range(1, dim):
            weight = weight * factors[:, k, bits[:, k]]
        strides = spec.points_per_axis ** np.arange(dim - 1, -1, -1)  # C order
        corner_vals = self.values[(cell @ strides)[:, None] + bits @ strides]
        # A NaN corner with zero weight must not poison the cell.
        bad = ~np.isfinite(corner_vals)
        ok = inside & ~np.any(bad & (weight > 0.0), axis=1)
        contrib = np.where(bad, 0.0, weight * corner_vals)
        # + 0.0 turns a -0.0 total into 0.0, as a running sum started from 0.0 gives.
        out = np.cumsum(contrib, axis=1)[:, -1] + 0.0
        out[~ok] = np.nan
        return out, ok


def evaluate(f: FunctionHandle | SampledField, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of a handle or a field at coordinates (K, dim), with a validity mask.

    The one way for code that takes either: a field is interpolated and `ok`
    marks the queries it can answer; a handle answers every query.
    """
    if isinstance(f, SampledField):
        return f.interpolate(coords)
    vals = f.value_at_coords(coords)
    return vals, np.ones(vals.shape, dtype=bool)


def sample(f: FunctionHandle, spec: GridSpec) -> SampledField:
    """Evaluate `f` at all valid grid nodes of `spec`."""
    grid = make_grid(spec)
    values = np.full(grid.node_count, np.nan)
    coords = grid.coords[grid.mask]
    # The check below names the node, so numpy warnings would only repeat it.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = np.asarray(f.value_at_coords(coords), dtype=float)
    if not np.all(np.isfinite(vals)):
        k = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise ValueError(f"non-finite value of {f.name} at node {coords[k]}")
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
    if count < 0:
        raise ValueError(f"ball_samples needs count >= 0, got {count}")
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


def loglog_fit(x: np.ndarray, y: np.ndarray, min_points: int) -> tuple[float, float] | None:
    """Least-squares line of log y on log x over the points with y > 0: its slope and
    largest absolute residual, or None with fewer than `min_points` such points."""
    good = y > 0
    if int(np.sum(good)) < min_points:
        return None
    lx, ly = np.log(x[good]), np.log(y[good])
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(np.max(np.abs(ly - (slope * lx + intercept))))
