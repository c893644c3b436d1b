"""Cone sup/inf-convolutions of derivative fields, their order, Lipschitz and
idempotence checks, and the second-order Taylor remainder.

The discrete envelopes are exact minima/maxima over valid source nodes:

    w-(x) = min_y  src(y) + L |x - y|        w+(x) = max_y  src(y) - L |x - y|

so ordering w- <= src <= w+ holds exactly at nodes (y = x is admissible), both
envelopes are L-Lipschitz, and re-enveloping with the same L changes nothing.
Since y = x bounds w-(x) by max src (and w+(x) by min src), no y with
L |x - y| > osc src can decide either envelope: only offsets within osc/L count.

The stencil passes spend their time on the envelope arithmetic. Distances come
from one (n, slots) table per axis, since grid coordinates are a tensor
product; each call allocates one chunk workspace and fills it in place; and a
slot off the grid or off the mask reads a sentinel appended to the values
(+inf for w-, -inf for w+, NaN for the Lipschitz check, which fmax skips), so
no reduction needs a mask. Every value is bit-identical to a full pairwise scan,
except that where -0.0 and +0.0 tie for the max, numpy's reduction picks one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import GridSpec, SampledField, seeded_rng
from .corpus import FunctionHandle

_CHUNK = 256
OUTPUT_RADIUS_FRACTION = 2.0 / 3.0  # the envelopes' inner ball: the 3/4 -> 1/2 domain shrink


@dataclass(frozen=True)
class ConeEnvelopePair:
    """L-Lipschitz lower/upper cone envelopes of a source field."""

    L: float
    w_minus: SampledField
    w_plus: SampledField
    source: SampledField


def _check_slope(L: float) -> None:
    if not (L > 0.0 and math.isfinite(L)):
        raise ValueError("cone slope L must be positive and finite")


def _osc(vals: np.ndarray) -> float:
    return float(np.ptp(vals)) if vals.size else 0.0


def _lattice_offsets(spec: GridSpec, radius: float) -> np.ndarray:
    """Integer node offsets d with h |d|_F <= radius, in lexicographic order.

    The relative and absolute margins keep float rounding from dropping a pair
    that could tie or win; the zero offset is always kept.
    """
    h = spec.spacing
    w = spec.shape.frob_weights()
    reach = radius * (1.0 + 1e-6) + 1e-12 * h
    bound = np.minimum(np.floor(reach / (h * w)), spec.points_per_axis - 1).astype(int)
    axes = [np.arange(-b, b + 1) for b in bound]
    d = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return d[h * np.sqrt(np.sum((d * w) ** 2, axis=1)) <= reach]


def _stencil_chunks(
    spec: GridSpec, rows: np.ndarray, col_mask: np.ndarray, radius: float, half: bool = False
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (lo, hi, cols, dist, buf) for the nodes rows[lo:hi] (flat indices).

    Slot j of a row holds the node at lattice offset j of the stencil of
    `radius`; `half` keeps only the offsets that are lexicographically >= 0.
    cols holds the rank of that node among the nodes of `col_mask` (node
    order), or -1 off them, so a value array with one sentinel appended reads
    the sentinel there through `np.take(..., mode="wrap")`. dist holds the
    Frobenius distances (finite in every slot) and buf is free scratch. All
    three are views of one workspace allocated per call: the next chunk
    overwrites them.

    Grid coordinates are a tensor product, so the weighted square on axis k of
    slot j depends only on the row's index i_k and on offsets[j, k]. One
    (n, slots) table per axis holds it, and a chunk's squares are the table
    rows of its indices, added in axis order: the same floats, added in the
    same order, as a full pairwise scan adds them, so every distance is
    bit-identical to it.
    """
    n, dim = spec.points_per_axis, spec.shape.dim
    offsets = _lattice_offsets(spec, radius)
    if half:
        # The stencil is symmetric and sorted, so its zero offset sits in the middle.
        offsets = offsets[offsets.shape[0] // 2 :]
    # Column ranks on the grid padded by the stencil reach; -1 off the columns.
    pad = np.max(np.abs(offsets), axis=0)
    ranks = np.full(tuple(n + 2 * pad), -1, dtype=np.intp)
    ranks[tuple(slice(p, p + n) for p in pad)] = np.where(
        col_mask, np.cumsum(col_mask) - 1, -1
    ).reshape((n,) * dim)
    strides = np.array(ranks.strides) // ranks.itemsize
    index = np.stack(np.unravel_index(rows, (n,) * dim))  # (dim, rows): axis indices
    row_at = (index.T + pad) @ strides
    off_at = offsets @ strides
    ranks = ranks.reshape(-1)
    w = spec.shape.frob_weights()
    tables = []
    for k in range(dim):
        wc = spec.axis_values(k) * w[k]
        # Off the axis the clipped neighbour stands in: those slots read a sentinel.
        nbr = np.clip(np.arange(n)[:, None] + offsets[:, k], 0, n - 1)
        tables.append((wc[:, None] - wc[nbr]) ** 2)
    # A chunk never holds more pairs than _CHUNK rows of a full scan would.
    slots = offsets.shape[0]
    step = max(1, min(_CHUNK, _CHUNK * int(np.count_nonzero(col_mask)) // slots, rows.size))
    cols = np.empty((step, slots), dtype=np.intp)
    dist, buf = np.empty((step, slots)), np.empty((step, slots))
    at = buf.view(np.intp)  # the slots' positions in `ranks`, read before buf serves the distances
    for lo in range(0, rows.size, step):
        hi = min(lo + step, rows.size)
        m = hi - lo
        # Every index is in range; mode="clip" spares the copy of `out` that "raise" makes.
        np.add(row_at[lo:hi, None], off_at, out=at[:m])
        np.take(ranks, at[:m], out=cols[:m], mode="clip")
        np.take(tables[0], index[0, lo:hi], axis=0, out=dist[:m], mode="clip")
        for k in range(1, dim):
            dist[:m] += np.take(tables[k], index[k, lo:hi], axis=0, out=buf[:m], mode="clip")
        yield lo, hi, cols[:m], np.sqrt(dist[:m], out=dist[:m]), buf[:m]


def _envelope_pass(
    spec: GridSpec,
    rows: np.ndarray,
    col_mask: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    L: float,
    radius: float,
) -> tuple[np.ndarray, np.ndarray]:
    """min_y lower(y) + L |x - y| and max_y upper(y) - L |x - y| at the nodes
    `rows`, over the nodes y of `col_mask` within `radius`; every row must be
    one of those nodes. A +inf (-inf) sentinel stands in for the slots off
    them, so the reductions need no mask."""
    lower = np.append(lower, np.inf)
    upper = np.append(upper, -np.inf)
    w_lo, w_hi = np.empty(rows.size), np.empty(rows.size)
    for lo, hi, cols, dist, buf in _stencil_chunks(spec, rows, col_mask, radius):
        cone = np.multiply(dist, L, out=dist)
        np.add(np.take(lower, cols, out=buf, mode="wrap"), cone, out=buf)
        np.min(buf, axis=1, out=w_lo[lo:hi])
        np.subtract(np.take(upper, cols, out=buf, mode="wrap"), cone, out=buf)
        np.max(buf, axis=1, out=w_hi[lo:hi])
    return w_lo, w_hi


def cone_convolutions(source: SampledField, L: float) -> ConeEnvelopePair:
    """Exact discrete cone envelopes of `source`, evaluated on the inner ball.

    Every output node pairs with the valid source nodes within osc(source)/L
    of it, and each chunk of pairs serves both envelopes. The inner ball has
    OUTPUT_RADIUS_FRACTION of the grid radius.
    """
    _check_slope(L)
    spec = source.grid
    if not np.any(source.mask):
        raise ValueError("source field has no valid nodes")
    coords = source.node_coords()
    dist_center = spec.shape.frob_norm_coords(coords - spec.center.coords)
    out_mask = source.mask & (dist_center <= spec.radius * OUTPUT_RADIUS_FRACTION * (1.0 + 1e-12))
    if not np.any(out_mask):
        raise ValueError("output region contains no valid nodes")
    src_vals = source.values[source.mask]
    lo_vals, hi_vals = _envelope_pass(
        spec, np.flatnonzero(out_mask), source.mask, src_vals, src_vals, L, _osc(src_vals) / L
    )

    def as_field(vals: np.ndarray) -> SampledField:
        full = np.full(coords.shape[0], np.nan)
        full[out_mask] = vals
        return SampledField(spec, full, out_mask)

    return ConeEnvelopePair(
        L=float(L),
        w_minus=as_field(lo_vals),
        w_plus=as_field(hi_vals),
        source=source,
    )


def envelope_lipschitz_violation(fld: SampledField, L: float) -> float:
    """max over valid node pairs of |w(x1) - w(x2)| - L |x1 - x2|; <= ~1e-12 for envelopes.

    Pairs farther apart than osc(w)/L have a negative gap and x1 = x2 gives 0,
    so only the stencil pairs count; the gap is symmetric, so half of them do.
    A NaN sentinel stands in for the slots off the valid nodes, and fmax skips it.
    """
    _check_slope(L)
    vals = fld.valid_values()
    if vals.size == 0:  # else no pair is scanned and -inf passes any bound
        raise ValueError("envelope_lipschitz_violation: field has no valid nodes")
    padded = np.append(vals, np.nan)
    worst = -math.inf
    rows = np.flatnonzero(fld.mask)
    radius = _osc(vals) / L
    for lo, hi, cols, dist, gap in _stencil_chunks(fld.grid, rows, fld.mask, radius, half=True):
        np.subtract(vals[lo:hi, None], np.take(padded, cols, out=gap, mode="wrap"), out=gap)
        np.subtract(np.abs(gap, out=gap), np.multiply(dist, L, out=dist), out=gap)
        worst = max(worst, float(np.fmax.reduce(gap, axis=None)))
    return worst


def envelope_idempotence_gap(pair: ConeEnvelopePair) -> float:
    """max |envelope(envelope)| deviation when re-enveloping on the same node set;
    the two envelopes share their output nodes, so one stencil serves both."""
    lower, upper = pair.w_minus, pair.w_plus
    if lower.grid != upper.grid or not np.array_equal(lower.mask, upper.mask):
        raise ValueError("w_minus and w_plus must share one grid and output mask")
    _check_slope(pair.L)
    lo_vals, hi_vals = lower.valid_values(), upper.valid_values()
    if lo_vals.size == 0:  # else the max of no deviation fails inside numpy
        raise ValueError("envelope_idempotence_gap: the envelopes have no valid nodes")
    radius = max(_osc(lo_vals), _osc(hi_vals)) / pair.L
    rows = np.flatnonzero(lower.mask)
    redone_lo, redone_hi = _envelope_pass(
        lower.grid, rows, lower.mask, lo_vals, hi_vals, pair.L, radius
    )
    lo_gap = float(np.max(np.abs(redone_lo - lo_vals)))
    hi_gap = float(np.max(np.abs(redone_hi - hi_vals)))
    return max(0.0, lo_gap, hi_gap)


@dataclass(frozen=True)
class SandwichReport:
    global_order_violation: float


def sandwich_check(pair: ConeEnvelopePair) -> SandwichReport:
    """Ordering w- <= source <= w+ at nodes."""
    mask = pair.w_minus.mask & pair.w_plus.mask & pair.source.mask
    lo = pair.w_minus.values[mask]
    hi = pair.w_plus.values[mask]
    src = pair.source.values[mask]
    if src.size == 0:  # else the max of no violation fails inside numpy
        raise ValueError("sandwich_check: w_minus, w_plus and the source share no valid node")
    return SandwichReport(max(0.0, float(np.max(lo - src)), float(np.max(src - hi))))


@dataclass(frozen=True)
class RemainderProfile:
    """Quadratic-model remainder sup |f(x0+z) - model(z)| / |z|^2 per radius."""

    x0: tuple[float, ...]
    hessian: np.ndarray  # (dim, dim) symmetric
    asymmetry: float
    radii: np.ndarray
    ratios: np.ndarray

    @property
    def second_order_differentiable(self) -> bool:
        """The ratios do not grow (up to 10%) and the smallest radius's is <= 0.05."""
        r = self.ratios
        decreasing = bool(np.all(np.diff(r) <= 1e-12 + 0.1 * np.abs(r[:-1])))
        return decreasing and bool(r[-1] <= 0.05)


def second_order_remainder(
    f: FunctionHandle,
    x0: np.ndarray,
    radii: Sequence[float],
    seed: int = 0,
) -> RemainderProfile:
    """Assemble a symmetrized difference Hessian of the handle's exact gradient at x0
    and profile the Taylor remainder along the +-axis directions and 32 random
    unit directions.
    """
    if isinstance(f, SampledField):
        raise ValueError("second_order_remainder needs a handle with an exact gradient, not a SampledField")
    radii_arr = np.asarray(list(radii), dtype=float)
    if radii_arr.size == 0 or not np.all(np.isfinite(radii_arr) & (radii_arr > 0)):
        raise ValueError(f"radii must be non-empty, finite and positive, got {radii_arr.tolist()}")
    if np.any(np.diff(radii_arr) >= 0):
        raise ValueError("radii must be strictly decreasing")
    shape = f.shape
    if shape.symmetric:
        raise ValueError("second_order_remainder supports general m-by-n shapes")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"second_order_remainder needs a finite x0, got {x0.tolist()}")
    h = max(1e-4, 0.05 * float(np.min(radii_arr)))

    def grad(c: np.ndarray) -> np.ndarray:  # fails by name on a handle without a gradient
        return f.gradient_at_coords(c[None, :]).reshape(-1)

    g0 = grad(x0)
    eye = np.eye(shape.dim)
    hess = np.zeros((shape.dim, shape.dim))
    for k in range(shape.dim):
        hess[:, k] = (grad(x0 + h * eye[k]) - grad(x0 - h * eye[k])) / (2.0 * h)
    asymmetry = float(np.max(np.abs(hess - hess.T)))
    hess = 0.5 * (hess + hess.T)

    rng = seeded_rng(seed)
    dirs = rng.standard_normal((32, shape.dim))
    dirs /= shape.frob_norm_coords(dirs)[:, None]
    dirs = np.concatenate([eye, -eye, dirs], axis=0)

    f0 = float(f.value_at_coords(x0[None, :])[0])
    ratios = np.zeros(radii_arr.size)
    for i, r in enumerate(radii_arr):
        z = r * dirs
        pts = x0 + z
        vals = f.value_at_coords(pts)
        lin = z @ g0
        quad = 0.5 * np.einsum("ki,ij,kj->k", z, hess, z)
        rem = np.abs(vals - f0 - lin - quad)
        ratios[i] = float(np.max(rem / (r * r)))
    return RemainderProfile(
        x0=tuple(float(v) for v in x0),
        hessian=hess,
        asymmetry=asymmetry,
        radii=radii_arr,
        ratios=ratios,
    )
