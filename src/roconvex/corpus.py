"""Analytic test-function corpus: evaluators, exact gradients, and convexity flags.

Each handle is vectorized over matrices of shape (..., m, n). Flags are asserted
by the corpus author and exercised by the verification modules; `convex` implies
`rank_one_convex` implies `separately_convex`, and the flags are stored fully
expanded so filters stay simple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import MatrixShape


@dataclass(frozen=True)
class ConvexityFlags:
    convex: bool = False
    rank_one_convex: bool = False
    separately_convex: bool = False
    rank_one_affine: bool = False


@dataclass(frozen=True)
class FunctionHandle:
    """An analytic corpus entry: evaluator, optional exact gradient, known flags.

    A handle is evaluated through `value_at_coords` (`value` is its raw evaluator
    on matrices). Code that needs Df reads `gradient` and nothing else.
    """

    name: str
    shape: MatrixShape
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    flags: ConvexityFlags = field(default_factory=ConvexityFlags)

    def value_at_coords(self, coords: np.ndarray) -> np.ndarray:
        return self.value(self.shape.coords_to_matrix(coords))

    def gradient_at_coords(self, coords: np.ndarray) -> np.ndarray:
        if self.gradient is None:
            raise ValueError(f"handle {self.name!r} has no exact gradient")
        return self.gradient(self.shape.coords_to_matrix(coords))

    def fd_gradient(self, mats: np.ndarray) -> np.ndarray:
        """Central-difference gradient in matrix space at step 1e-6; reference for exact gradients."""
        h = 1e-6
        mats = np.asarray(mats, dtype=float)
        out = np.zeros_like(mats)
        m, n = mats.shape[-2:]
        for i in range(m):
            for j in range(n):
                e = np.zeros((m, n))
                e[i, j] = h
                out[..., i, j] = (self.value(mats + e) - self.value(mats - e)) / (2.0 * h)
        return out


def _frob_sq(x: np.ndarray) -> np.ndarray:
    return np.sum(x * x, axis=(-2, -1))


def _det2(x: np.ndarray) -> np.ndarray:
    return x[..., 0, 0] * x[..., 1, 1] - x[..., 0, 1] * x[..., 1, 0]


def _cof2(x: np.ndarray) -> np.ndarray:
    """Cofactor matrix of a 2x2: d(det)/dx."""
    out = np.empty_like(x)
    out[..., 0, 0] = x[..., 1, 1]
    out[..., 0, 1] = -x[..., 1, 0]
    out[..., 1, 0] = -x[..., 0, 1]
    out[..., 1, 1] = x[..., 0, 0]
    return out


_CONVEX = ConvexityFlags(convex=True, rank_one_convex=True, separately_convex=True)
_SQUARE2 = MatrixShape(2, 2)


def half_norm_sq(a0: float = 1.0, shape: MatrixShape = _SQUARE2) -> FunctionHandle:
    """f(x) = (a0/2) |x|^2."""
    return FunctionHandle(
        name=f"half_norm_sq_{a0:g}".replace(".", "p"),
        shape=shape,
        value=lambda x: 0.5 * a0 * _frob_sq(x),
        gradient=lambda x: a0 * x,
        flags=_CONVEX if a0 >= 0 else ConvexityFlags(),
    )


def neg_half_norm_sq() -> FunctionHandle:
    """f(x) = -|x|^2 / 2 on 2x2; the negative control with no convexity flags."""
    return FunctionHandle(
        name="neg_half_norm_sq",
        shape=_SQUARE2,
        value=lambda x: -0.5 * _frob_sq(x),
        gradient=lambda x: -x,
        flags=ConvexityFlags(),
    )


def frob_norm(shape: MatrixShape = _SQUARE2) -> FunctionHandle:
    """f(x) = |x|; convex, nonsmooth at 0 (gradient convention: 0 there)."""

    def grad(x: np.ndarray) -> np.ndarray:
        r = np.sqrt(_frob_sq(x))
        safe = np.where(r == 0.0, 1.0, r)
        return np.where((r == 0.0)[..., None, None], 0.0, x / safe[..., None, None])

    return FunctionHandle(
        name="frob_norm",
        shape=shape,
        value=lambda x: np.sqrt(_frob_sq(x)),
        gradient=grad,
        flags=_CONVEX,
    )


_MAX_LINEAR_PIECES = (
    np.array([[1.0, 0.0], [0.0, -0.5]]),
    np.array([[-0.5, 1.0], [0.25, 0.0]]),
    np.array([[0.0, -1.0], [-0.75, 0.5]]),
)


def max_linear(pieces: tuple[np.ndarray, ...] | None = None, shape: MatrixShape = _SQUARE2) -> FunctionHandle:
    """f(x) = max_k <L_k, x>; convex and polyhedral, kinks where pieces tie."""
    if pieces is None:
        pieces = _MAX_LINEAR_PIECES
    stack = np.stack([np.asarray(p, dtype=float) for p in pieces])
    if stack.shape[1:] != (shape.rows, shape.cols):
        raise ValueError("linear pieces do not match the shape")

    def value(x: np.ndarray) -> np.ndarray:
        scores = np.einsum("kij,...ij->...k", stack, x)
        return np.max(scores, axis=-1)

    def grad(x: np.ndarray) -> np.ndarray:
        scores = np.einsum("kij,...ij->...k", stack, x)
        best = np.argmax(scores, axis=-1)
        return stack[best]

    return FunctionHandle(
        name=f"max_linear_{len(pieces)}",
        shape=shape,
        value=value,
        gradient=grad,
        flags=_CONVEX,
    )


def neg_det() -> FunctionHandle:
    """f(x) = -det(x) on 2x2; affine along every rank-one segment, not convex."""
    return FunctionHandle(
        name="neg_det_2x2",
        shape=_SQUARE2,
        value=lambda x: -_det2(x),
        gradient=lambda x: -_cof2(x),
        flags=ConvexityFlags(rank_one_convex=True, separately_convex=True, rank_one_affine=True),
    )


def abs_det() -> FunctionHandle:
    """f(x) = |det(x)| on 2x2; rank-one convex, not convex."""
    return FunctionHandle(
        name="abs_det_2x2",
        shape=_SQUARE2,
        value=lambda x: np.abs(_det2(x)),
        gradient=lambda x: np.sign(_det2(x))[..., None, None] * _cof2(x),
        flags=ConvexityFlags(rank_one_convex=True, separately_convex=True),
    )


def neg_det_sym() -> FunctionHandle:
    """f(x) = -det(x) on symmetric 2x2; affine along the r_ij direction basis."""
    return FunctionHandle(
        name="neg_det_2x2_sym",
        shape=MatrixShape(2, 2, symmetric=True),
        value=lambda x: -_det2(x),
        gradient=lambda x: -_cof2(x),
        flags=ConvexityFlags(rank_one_convex=True, separately_convex=True, rank_one_affine=True),
    )


def neg_uv() -> FunctionHandle:
    """g(u, v) = -u v on row vectors (1x2); separately convex but not convex."""

    def grad(x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        out[..., 0, 0] = -x[..., 0, 1]
        out[..., 0, 1] = -x[..., 0, 0]
        return out

    return FunctionHandle(
        name="neg_uv",
        shape=MatrixShape(1, 2),
        value=lambda x: -x[..., 0, 0] * x[..., 0, 1],
        gradient=grad,
        flags=ConvexityFlags(separately_convex=True),
    )


def abs_entry(i: int = 0, j: int = 0, shape: MatrixShape = _SQUARE2) -> FunctionHandle:
    """f(x) = |x_ij|; convex with a kink on the hyperplane x_ij = 0."""

    def grad(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        out[..., i, j] = np.sign(x[..., i, j])
        return out

    return FunctionHandle(
        name=f"abs_x{i + 1}{j + 1}",
        shape=shape,
        value=lambda x: np.abs(x[..., i, j]),
        gradient=grad,
        flags=_CONVEX,
    )


def linear(ell: np.ndarray, shape: MatrixShape = _SQUARE2, name: str = "linear") -> FunctionHandle:
    """f(x) = <ell, x>; affine in every direction."""
    ell = np.asarray(ell, dtype=float)

    return FunctionHandle(
        name=name,
        shape=shape,
        value=lambda x: np.einsum("ij,...ij->...", ell, x),
        gradient=lambda x: np.broadcast_to(ell, x.shape).copy(),
        flags=ConvexityFlags(convex=True, rank_one_convex=True, separately_convex=True, rank_one_affine=True),
    )


def constant(c: float, shape: MatrixShape = _SQUARE2) -> FunctionHandle:
    return FunctionHandle(
        name=f"constant_{c:g}".replace(".", "p").replace("-", "m"),
        shape=shape,
        value=lambda x: np.full(x.shape[:-2], float(c)),
        gradient=lambda x: np.zeros_like(x),
        flags=ConvexityFlags(convex=True, rank_one_convex=True, separately_convex=True, rank_one_affine=True),
    )


def corpus() -> list[FunctionHandle]:
    """The default corpus, in stable order."""
    return [
        half_norm_sq(0.5),
        half_norm_sq(1.0),
        half_norm_sq(2.0),
        frob_norm(),
        max_linear(),
        neg_det(),
        abs_det(),
        neg_det_sym(),
        neg_half_norm_sq(),
        neg_uv(),
        abs_entry(0, 0),
    ]


def corpus_names() -> list[str]:
    return [h.name for h in corpus()]


def get_handle(name: str) -> FunctionHandle:
    for h in corpus():
        if h.name == name:
            return h
    raise KeyError(f"unknown corpus function {name!r}; known: {', '.join(corpus_names())}")
