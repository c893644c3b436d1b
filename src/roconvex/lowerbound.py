"""Lower-bound certification from a radial majorant, via column splitting.

A function with f(x0) = 0, Df(x0) = 0 that is dominated by a non-decreasing
radial majorant G can be bounded below by -C G, with C obtained by unrolling
the column-splitting recurrence 2 f(x_i) <= f(x_{i+1}) + G: each column of x is
reflected in turn, and every reflection stays on the same Frobenius sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MatrixShape
from .corpus import FunctionHandle


class TangencyError(ValueError):
    """The candidate majorant fails to dominate the recentered function."""


def lemma_constant(n: int) -> int:
    """The unrolled recurrence constant: C(n) = 2^(n-1) - 1 over n columns."""
    if n < 1:
        raise ValueError("column count must be >= 1")
    return 2 ** (n - 1) - 1


@dataclass(frozen=True)
class RadialMajorant:
    """G(x) = g(|x - x0|) for a non-decreasing step profile g: a radius t reads
    the value at the first table edge >= t (the right-edge lookup the empirical
    builder tabulates for)."""

    x0: np.ndarray  # (dim,) coordinates
    radii: np.ndarray  # increasing table edges, radii[0] > 0
    values: np.ndarray  # non-decreasing, >= 0

    def __post_init__(self) -> None:
        radii = np.asarray(self.radii, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if radii.ndim != 1 or radii.size == 0 or np.any(np.diff(radii) <= 0):
            raise ValueError("majorant radii must be strictly increasing")
        if values.shape != radii.shape:
            raise ValueError("majorant table shape mismatch")
        if np.any(np.diff(values) < 0) or np.any(values < 0):
            raise ValueError("majorant profile must be non-negative and non-decreasing")
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(-1))
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)

    def profile(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if np.any(t > self.radii[-1] * (1.0 + 1e-9)):
            raise ValueError("majorant queried beyond its table")
        idx = np.searchsorted(self.radii, t * (1.0 - 1e-12), side="left")
        idx = np.minimum(idx, self.radii.size - 1)
        return self.values[idx]

    def evaluate(self, shape: MatrixShape, coords: np.ndarray) -> np.ndarray:
        dist = shape.frob_norm_coords(np.asarray(coords, dtype=float) - self.x0)
        return self.profile(dist)

    def table(self) -> list[tuple[float, float]]:
        return [(float(r), float(v)) for r, v in zip(self.radii, self.values)]


def _tangent(f: FunctionHandle, x0: np.ndarray) -> tuple[float, np.ndarray]:
    """f(x0) and the exact Df(x0) as a matrix; a handle without a gradient fails by name."""
    return float(f.value_at_coords(x0[None, :])[0]), f.gradient_at_coords(x0)


def recentered_values(
    f: FunctionHandle, x0: np.ndarray, coords: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray]:
    """Values of f(x) - f(x0) - Df(x0).(x - x0), with the handle's exact gradient."""
    shape = f.shape
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    f0, g0 = _tangent(f, x0)
    d = shape.coords_to_matrix(coords) - shape.coords_to_matrix(x0)
    lin = np.einsum("ij,...ij->...", g0, d)
    vals = f.value_at_coords(coords) - f0 - lin
    return vals, f0, g0


def _checked_samples(f: FunctionHandle, x0: np.ndarray, samples: np.ndarray, who: str) -> np.ndarray:
    """The samples as a (K, dim) float array, after naming what would make a NaN, empty or meaningless answer."""
    if f.shape.symmetric:  # the column split leaves the symmetric space
        shape = f"{f.shape.rows}x{f.shape.cols}"
        raise ValueError(f"{who} needs a general shape, and {f.name} has the symmetric shape {shape}")
    if x0.shape != (f.shape.dim,):
        raise ValueError(f"{who} needs x0 of shape ({f.shape.dim},), got {x0.shape}")
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != f.shape.dim:
        raise ValueError(f"{who} needs samples of shape (K, {f.shape.dim}), got {pts.shape}")
    if pts.shape[0] == 0:
        raise ValueError(f"{who} needs at least one sample, got 0")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"{who} needs a finite x0, got {x0.tolist()}")
    if not np.all(np.isfinite(pts)):
        k = int(np.argmin(np.isfinite(pts).all(axis=1)))
        raise ValueError(f"{who}: sample {k} is not finite: {pts[k].tolist()}")
    if np.all(pts == x0):
        raise ValueError(f"{who} needs a sample off x0, and every sample sits at x0")
    return pts


def empirical_majorant(
    f: FunctionHandle,
    x0: np.ndarray,
    samples: np.ndarray,
) -> RadialMajorant:
    """Monotone running-max majorant of the recentered function over 50 radius bins.

    The build set is the column split of every sample x - x0: per column i,
    the reflection x_i - 2 x_col_i (x) e_i, which stays on the sphere of the
    partial x_i and keeps the certificate sharp for functions convex along
    rank-one segments, then the partial x_i keeping columns 0..i. A sample is
    its own last partial, so it yields 2n points. They are written column by
    column into one (K, 2n, m, n) array, in the order (sample, column,
    reflection-then-partial), and shifted back by x0; offsets and distances
    are then taken from those shifted points, as for any other point.
    """
    shape = f.shape
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    pts = _checked_samples(f, x0, samples, "empirical_majorant")
    x0m = shape.coords_to_matrix(x0)
    mats = shape.coords_to_matrix(pts) - x0m  # (K, m, n)
    n = shape.cols
    split = np.empty((mats.shape[0], 2 * n) + x0m.shape)
    for j in range(n):
        col = mats[:, :, j]
        split[:, : 2 * j, :, j] = 0.0  # the splits before column j drop it
        split[:, 2 * j, :, j] = col - 2.0 * col  # reflection j negates it
        split[:, 2 * j + 1 :, :, j] = col[:, None]  # and every later split keeps it
    split += x0m
    pts = shape.matrix_to_coords(split)  # a view of `split` for general shapes
    f0, g0 = _tangent(f, x0)
    vals = f.value_at_coords(pts) - f0
    d = np.subtract(pts, x0, out=pts)
    vals -= np.einsum("ij,...ij->...", g0, shape.coords_to_matrix(d))
    vals, dist = vals.reshape(-1), shape.frob_norm_coords(d).reshape(-1)
    rmax = float(np.max(dist))
    bins = 50
    edges = np.linspace(rmax / bins, rmax, bins)
    idx = np.minimum(np.searchsorted(edges, dist * (1.0 - 1e-12), side="left"), bins - 1)
    binmax = np.full(bins, -math.inf)
    np.maximum.at(binmax, idx, vals)
    binmax = np.maximum(binmax, 0.0)  # clamp: the profile must stay >= 0
    profile = np.maximum.accumulate(binmax)
    return RadialMajorant(x0=x0, radii=edges, values=profile)


@dataclass(frozen=True)
class LowerBoundCertificate:
    x0: tuple[float, ...]
    constant: float
    min_slack: float
    witness: tuple[float, ...]
    samples_used: int
    tangency_margin: float
    passed: bool


def lower_bound_certify(
    f: FunctionHandle,
    x0: np.ndarray,
    majorant: RadialMajorant,
    samples: np.ndarray,
    tol: float = 1e-6,
) -> LowerBoundCertificate:
    """Certify f~ >= -C G over the samples, C = lemma_constant(cols), after checking f~ <= G.

    The recentering f~ = f - f(x0) - Df(x0)(x - x0) is applied internally, at
    the majorant's own x0; a tangency violation raises TangencyError naming
    the violating sample.
    """
    shape = f.shape
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    pts = _checked_samples(f, x0, samples, "lower_bound_certify")
    if not np.array_equal(x0, majorant.x0):
        raise ValueError(
            f"lower_bound_certify needs the majorant's centre, got x0 = {x0.tolist()} "
            f"against majorant.x0 = {majorant.x0.tolist()}"
        )
    C = float(lemma_constant(shape.cols))
    vals, _, _ = recentered_values(f, x0, pts)
    g_vals = majorant.evaluate(shape, pts)
    tangency = vals - g_vals
    k_bad = int(np.argmax(tangency))
    if tangency[k_bad] > 1e-9:
        raise TangencyError(
            f"majorant fails to dominate at sample {pts[k_bad].tolist()} "
            f"(excess {tangency[k_bad]:.3e})"
        )
    slack = vals + C * g_vals
    k = int(np.argmin(slack))
    return LowerBoundCertificate(
        x0=tuple(float(v) for v in x0),
        constant=float(C),
        min_slack=float(slack[k]),
        witness=tuple(float(v) for v in pts[k]),
        samples_used=int(pts.shape[0]),
        tangency_margin=float(tangency[k_bad]),
        passed=bool(slack[k] >= -tol),
    )
