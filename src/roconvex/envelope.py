"""Cone sup/inf-convolutions of derivative fields, touch sets, and the
second-order Taylor remainder.

The discrete envelopes are exact minima/maxima over valid source nodes:

    w-(x) = min_y  src(y) + L |x - y|        w+(x) = max_y  src(y) - L |x - y|

so ordering w- <= src <= w+ holds exactly at nodes (y = x is admissible), both
envelopes are L-Lipschitz, and re-enveloping with the same L changes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import SampledField, evaluate
from .corpus import FunctionHandle
from .paraboloid import ThetaField

_CHUNK = 256


@dataclass(frozen=True)
class ConeEnvelopePair:
    """L-Lipschitz lower/upper cone envelopes of a source field."""

    L: float
    w_minus: SampledField
    w_plus: SampledField
    source: SampledField


def _distance_chunks(
    x: np.ndarray, y: np.ndarray, w: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (lo, hi, dist): Frobenius distances from rows lo:hi of `x` to every row of `y`.

    `w` holds the Frobenius weights of the storage coordinates. The weighted
    squares are added one coordinate at a time, in coordinate order, which is
    the order `np.sum` uses for so few terms; no (chunk, len(y), dim)
    temporary is built.
    """
    wx = x * w
    wy = y * w
    for lo in range(0, x.shape[0], _CHUNK):
        hi = min(lo + _CHUNK, x.shape[0])
        sq = np.zeros((hi - lo, y.shape[0]))
        for k in range(w.size):
            sq += (wx[lo:hi, k, None] - wy[:, k]) ** 2
        yield lo, hi, np.sqrt(sq)


def cone_convolutions(
    source: SampledField,
    L: float,
    output_radius: float | None = None,
) -> ConeEnvelopePair:
    """Exact discrete cone envelopes of `source`, evaluated on the inner ball.

    Every output node scans every valid source node, and each chunk of
    distances serves both envelopes. `output_radius` defaults to two thirds
    of the grid radius (the 3/4 -> 1/2 domain shrink).
    """
    if L <= 0.0:
        raise ValueError("cone slope L must be positive")
    spec = source.grid
    if not np.any(source.mask):
        raise ValueError("source field has no valid nodes")
    if output_radius is None:
        output_radius = spec.radius * (2.0 / 3.0)
    coords = source.node_coords()
    w = spec.shape.frob_weights()
    dist_center = spec.shape.frob_norm_coords(coords - spec.center.coords)
    out_mask = source.mask & (dist_center <= output_radius * (1.0 + 1e-12))
    if not np.any(out_mask):
        raise ValueError("output region contains no valid nodes")
    src_coords = coords[source.mask]
    src_vals = source.values[source.mask]
    out_coords = coords[out_mask]

    lo_vals = np.empty(out_coords.shape[0])
    hi_vals = np.empty(out_coords.shape[0])
    for lo, hi, dist in _distance_chunks(out_coords, src_coords, w):
        cone = L * dist
        lo_vals[lo:hi] = np.min(src_vals + cone, axis=1)
        hi_vals[lo:hi] = np.max(src_vals - cone, axis=1)

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
    """max over valid node pairs of |w(x1) - w(x2)| - L |x1 - x2|; <= ~1e-12 for envelopes."""
    coords = fld.valid_coords()
    vals = fld.valid_values()
    worst = -math.inf
    for lo, hi, dist in _distance_chunks(coords, coords, fld.shape.frob_weights()):
        gap = np.abs(vals[lo:hi, None] - vals) - L * dist
        worst = max(worst, float(np.max(gap)))
    return worst


def envelope_idempotence_gap(pair: ConeEnvelopePair) -> float:
    """max |envelope(envelope)| deviation when re-enveloping on the same node set;
    the two envelopes share their output nodes, so one scan serves both."""
    lower, upper = pair.w_minus, pair.w_plus
    if lower.grid != upper.grid or not np.array_equal(lower.mask, upper.mask):
        raise ValueError("w_minus and w_plus must share one grid and output mask")
    coords, lo_vals, hi_vals = lower.valid_coords(), lower.valid_values(), upper.valid_values()
    worst = 0.0
    for lo, hi, dist in _distance_chunks(coords, coords, lower.shape.frob_weights()):
        cone = pair.L * dist
        lo_gap = np.abs(np.min(lo_vals + cone, axis=1) - lo_vals[lo:hi])
        hi_gap = np.abs(np.max(hi_vals - cone, axis=1) - hi_vals[lo:hi])
        worst = max(worst, float(np.max(lo_gap)), float(np.max(hi_gap)))
    return worst


@dataclass(frozen=True)
class TouchSet:
    """Evaluation points with opening <= A, minus points flagged by the kink detector."""

    A: float
    coords: np.ndarray  # (K, dim) accepted points
    theta: np.ndarray  # (K,) their openings
    excluded_coords: np.ndarray  # points with small opening rejected by the kink detector
    kink_threshold: float

    @property
    def count(self) -> int:
        return self.coords.shape[0]


def _kink_indicator(
    f: FunctionHandle | SampledField, coords: np.ndarray, h: float, threshold: float
) -> np.ndarray:
    """True where one-sided difference quotients disagree by more than `threshold`."""

    def ev(c: np.ndarray) -> np.ndarray:
        vals, ok = evaluate(f, c)
        return np.where(ok, vals, np.nan)

    shape = f.shape
    out = np.zeros(coords.shape[0], dtype=bool)
    base = ev(coords)
    for k in range(shape.dim):
        e = np.zeros(shape.dim)
        e[k] = h
        fwd = (ev(coords + e) - base) / h
        bwd = (base - ev(coords - e)) / h
        jump = np.abs(fwd - bwd)
        out |= np.where(np.isfinite(jump), jump > threshold, True)
    return out


def touch_set(
    theta: ThetaField,
    A: float,
    kink_threshold: float | None = None,
) -> TouchSet:
    """Filter the theta field to {opening <= A}, excluding detected gradient kinks."""
    h = theta.constraints.spacing
    if kink_threshold is None:
        kink_threshold = 10.0 * h
    ok_level = theta.theta <= A
    pts = theta.eval_coords[ok_level]
    kinky = (
        _kink_indicator(theta.source, pts, h, kink_threshold)
        if pts.shape[0]
        else np.zeros(0, dtype=bool)
    )
    return TouchSet(
        A=float(A),
        coords=pts[~kinky],
        theta=theta.theta[ok_level][~kinky],
        excluded_coords=pts[kinky],
        kink_threshold=float(kink_threshold),
    )


@dataclass(frozen=True)
class SlopeBoundReport:
    """Per-point bound max_x |Df(x) - Df(x0)| / |x - x0| over r < 1/4 neighborhoods."""

    ratios: np.ndarray
    bound: float
    ok: bool
    samples_skipped: int


def cone_touch_check(
    f: FunctionHandle,
    tset: TouchSet,
    C_probe: float,
    sample_count: int = 64,
    seed: int = 0,
    max_radius: float = 0.25,
) -> SlopeBoundReport:
    """Check the gradient slope bound C_probe * A around every touch-set point."""
    rng = np.random.default_rng(seed)
    shape = f.shape
    skipped = 0
    ratios = np.zeros(tset.count)
    for k in range(tset.count):
        x0 = tset.coords[k]
        radii = rng.uniform(0.05 * max_radius, max_radius, size=sample_count)
        dirs = rng.standard_normal((sample_count, shape.dim))
        dirs /= shape.frob_norm_coords(dirs)[:, None]
        pts = x0 + radii[:, None] * dirs
        if f.gradient is not None:
            g = f.gradient_at_coords(pts)
            g0 = f.gradient_at_coords(x0)
        else:
            g = f.fd_gradient(shape.coords_to_matrix(pts))
            g0 = f.fd_gradient(shape.coords_to_matrix(x0))
        diff = np.sqrt(np.sum((g - g0) ** 2, axis=(-2, -1)))
        ok = np.isfinite(diff)
        skipped += int(np.sum(~ok))
        ratios[k] = float(np.max(np.where(ok, diff / radii, 0.0))) if np.any(ok) else 0.0
    bound = C_probe * tset.A
    return SlopeBoundReport(
        ratios=ratios,
        bound=float(bound),
        ok=bool(np.all(ratios <= bound + 1e-9)),
        samples_skipped=skipped,
    )


@dataclass(frozen=True)
class SandwichReport:
    global_order_violation: float
    max_gap_on_touch_set: float
    points_skipped: int


def sandwich_check(pair: ConeEnvelopePair, tset: TouchSet | None = None) -> SandwichReport:
    """Ordering w- <= source <= w+ at nodes, and the envelope gap on touch points."""
    mask = pair.w_minus.mask & pair.w_plus.mask & pair.source.mask
    lo = pair.w_minus.values[mask]
    hi = pair.w_plus.values[mask]
    src = pair.source.values[mask]
    violation = max(0.0, float(np.max(lo - src)), float(np.max(src - hi)))
    gap = 0.0
    skipped = 0
    if tset is not None and tset.count:
        lo_i, ok_lo = pair.w_minus.interpolate(tset.coords)
        hi_i, ok_hi = pair.w_plus.interpolate(tset.coords)
        ok = ok_lo & ok_hi
        skipped = int(np.sum(~ok))
        if np.any(ok):
            gap = float(np.max(hi_i[ok] - lo_i[ok]))
    return SandwichReport(violation, gap, skipped)


@dataclass(frozen=True)
class RemainderProfile:
    """Quadratic-model remainder sup |f(x0+z) - model(z)| / |z|^2 per radius."""

    x0: tuple[float, ...]
    hessian: np.ndarray  # (dim, dim) symmetric
    asymmetry: float
    radii: np.ndarray
    ratios: np.ndarray
    decision_threshold: float

    @property
    def second_order_differentiable(self) -> bool:
        r = self.ratios
        decreasing = bool(np.all(np.diff(r) <= 1e-12 + 0.1 * np.abs(r[:-1])))
        return decreasing and bool(r[-1] <= self.decision_threshold)

    def loglog_slope(self) -> float | None:
        good = self.ratios > 0
        if int(np.sum(good)) < 2:
            return None
        slope, _ = np.polyfit(np.log(self.radii[good]), np.log(self.ratios[good]), 1)
        return float(slope)


def second_order_remainder(
    f: FunctionHandle | SampledField,
    x0: np.ndarray,
    radii: Sequence[float],
    direction_count: int = 32,
    seed: int = 0,
    hessian_step: float | None = None,
    decision_threshold: float = 0.05,
) -> RemainderProfile:
    """Assemble a symmetrized difference Hessian at x0 and profile the Taylor remainder.

    For sampled fields the radii must stay above the grid resolution; analytic
    handles may be probed at any radius.
    """
    radii_arr = np.asarray(list(radii), dtype=float)
    if np.any(np.diff(radii_arr) >= 0):
        raise ValueError("radii must be strictly decreasing")
    shape = f.shape
    if shape.symmetric:
        raise ValueError("second_order_remainder supports general m-by-n shapes")
    if isinstance(f, SampledField):
        if np.min(radii_arr) < f.grid.spacing:
            raise ValueError("radii below the grid resolution are not admissible for fields")
        grad_ev = None
    else:
        grad_ev = f.gradient_at_coords if f.gradient is not None else None

    def ev(c: np.ndarray) -> np.ndarray:
        vals, ok = evaluate(f, c)
        if not np.all(ok):
            raise ValueError("remainder probe left the valid field region")
        return vals

    x0 = np.asarray(x0, dtype=float).reshape(-1)
    h = hessian_step if hessian_step is not None else max(1e-4, 0.05 * float(np.min(radii_arr)))
    if isinstance(f, SampledField):
        # sub-cell steps would difference the interpolation kinks at grid nodes
        h = max(h, f.grid.spacing)

    def grad_flat(c: np.ndarray) -> np.ndarray:
        if grad_ev is not None:
            return grad_ev(c).reshape(c.shape[:-1] + (shape.dim,))
        # central differences of the evaluator, coordinate by coordinate
        out = np.zeros(c.shape[:-1] + (shape.dim,))
        for k in range(shape.dim):
            e = np.zeros(shape.dim)
            e[k] = h
            out[..., k] = (ev(c + e) - ev(c - e)) / (2.0 * h)
        return out

    g0 = grad_flat(x0[None, :])[0]
    hess = np.zeros((shape.dim, shape.dim))
    for k in range(shape.dim):
        e = np.zeros(shape.dim)
        e[k] = h
        gp = grad_flat((x0 + e)[None, :])[0]
        gm = grad_flat((x0 - e)[None, :])[0]
        hess[:, k] = (gp - gm) / (2.0 * h)
    asymmetry = float(np.max(np.abs(hess - hess.T)))
    hess = 0.5 * (hess + hess.T)

    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((direction_count, shape.dim))
    dirs /= shape.frob_norm_coords(dirs)[:, None]
    eye = np.eye(shape.dim)
    dirs = np.concatenate([eye, -eye, dirs], axis=0)

    f0 = float(ev(x0[None, :])[0])
    ratios = np.zeros(radii_arr.size)
    for i, r in enumerate(radii_arr):
        z = r * dirs
        pts = x0 + z
        vals = ev(pts)
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
        decision_threshold=float(decision_threshold),
    )
