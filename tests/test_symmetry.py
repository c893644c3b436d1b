"""Symmetry as an oracle: openings and verdicts commute with the grid's rank-one symmetries.

For a linear map T of the matrix space that maps the constraint grid onto itself
node for node, g = f∘T has, at T⁻¹x0, the cloud and the rows of f at x0 up to a
permutation and a signed permutation of the slope, so the same least opening;
and g is rank-one (separately) convex exactly when f is.
"""

from dataclasses import replace

import numpy as np
import pytest

from roconvex.core import MatrixShape, grid_spec
from roconvex.corpus import FunctionHandle, get_handle
from roconvex.paraboloid import theta_field, theta_upper
from roconvex.verify import SegmentSampler, rank_one_convexity_check, separate_convexity_check

S22 = MatrixShape(2, 2)
SAMPLER = SegmentSampler(direction_count=12, step_count=10, seed=7)
# Maps of 2x2 matrices that permute the entries, each its own inverse and its own adjoint.
MAPS = {
    "transpose": lambda x: np.swapaxes(x, -1, -2),
    "row_swap": lambda x: x[..., ::-1, :],
}
NAMES = ("abs_det_2x2", "neg_det_2x2", "abs_x11", "frob_norm", "max_linear_3")


def composed(f: FunctionHandle, T, label: str) -> FunctionHandle:
    """g = f∘T with Dg = T*(Df∘T), for a linear map T of f's matrix space that is its own adjoint."""
    return replace(
        f,
        name=f"{f.name}_{label}",
        value=lambda x: f.value(T(x)),
        gradient=lambda x: T(f.gradient(T(x))),
    )


def test_composed_is_f_after_the_map_with_its_chain_rule_gradient():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 2, 2))
    f = get_handle("neg_det_2x2")
    for label, T in MAPS.items():
        g = composed(f, T, label)
        assert np.array_equal(g.value(x), f.value(T(x)))
        np.testing.assert_allclose(g.gradient(x), g.fd_gradient(x), atol=1e-8)


@pytest.mark.parametrize("label", sorted(MAPS))
@pytest.mark.parametrize("name", NAMES)
def test_openings_commute_with_the_map(name, label):
    f = get_handle(name)
    T = MAPS[label]
    g = composed(f, T, label)
    spec = grid_spec(S22, 1.0, 13, "ball")
    tf = theta_field(f, spec, count=16, seed=3)
    for x0, theta in zip(tf.eval_coords, tf.theta):
        y0 = S22.matrix_to_coords(T(S22.coords_to_matrix(x0)))  # T⁻¹x0, as T is an involution
        assert theta_upper(g, y0, spec).opening == pytest.approx(theta, rel=1e-12)


@pytest.mark.parametrize("label", sorted(MAPS))
@pytest.mark.parametrize("name", NAMES)
def test_verify_verdicts_match_the_flags_after_the_map(name, label):
    f = get_handle(name)
    for h in (f, composed(f, MAPS[label], label)):
        assert rank_one_convexity_check(h, sampler=SAMPLER).passes(1e-9) == f.flags.rank_one_convex, h.name
        assert separate_convexity_check(h, sampler=SAMPLER).passes(1e-9) == f.flags.separately_convex, h.name
