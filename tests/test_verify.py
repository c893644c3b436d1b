import numpy as np
import pytest

import certify_reference as ref
from roconvex.core import MatrixShape, coordinate_directions, grid_spec, random_directions, sample
from roconvex.corpus import (
    FunctionHandle,
    constant,
    corpus,
    get_handle,
    half_norm_sq,
    linear,
    neg_det,
    neg_det_sym,
    neg_half_norm_sq,
    neg_uv,
)
from roconvex.verify import (
    SegmentSampler,
    mollify,
    rank_one_convexity_check,
    replay_violation,
    separate_convexity_check,
    symmetric_operator_check,
    viscosity_subharmonic_check,
)

SAMPLER = SegmentSampler(direction_count=12, step_count=10, seed=7)


def test_quadratic_midpoint_identity():
    rep = rank_one_convexity_check(half_norm_sq(1.0), sampler=SAMPLER)
    assert rep.worst_violation <= 1e-12
    assert rep.samples_checked > 0


def test_neg_det_rank_one_affine():
    rep = rank_one_convexity_check(neg_det(), sampler=SAMPLER)
    assert abs(rep.worst_violation) <= 1e-12


def test_neg_half_norm_probe_violation():
    # the deterministic center probe along e_1 (x) e_1 with t = 1/2 gives t^2/2
    rep = rank_one_convexity_check(neg_half_norm_sq(), sampler=SAMPLER)
    assert rep.worst_violation >= 0.125 - 1e-12
    assert rep.witness is not None
    assert replay_violation(neg_half_norm_sq(), rep.witness) == rep.worst_violation


def test_neg_uv_separates_the_notions():
    h = neg_uv()
    full = rank_one_convexity_check(h, sampler=SAMPLER)
    sep = separate_convexity_check(h, sampler=SAMPLER)
    assert full.worst_violation > 0.05
    assert sep.worst_violation <= 1e-12
    # explicit diagonal segment: g(0,0) - g(s,s)/2 - g(-s,-s)/2 = s^2
    s = 0.5
    g = h.value
    pts = np.array([[[0.0, 0.0]], [[s, s]], [[-s, -s]]])
    assert g(pts[0]) - 0.5 * g(pts[1]) - 0.5 * g(pts[2]) == pytest.approx(s * s)


def test_abs_sum_separately_convex():
    shape = MatrixShape(1, 2)
    h = FunctionHandle(
        "abs_sum", shape, lambda x: np.abs(x[..., 0, 0]) + np.abs(x[..., 0, 1])
    )
    rep = separate_convexity_check(h, sampler=SAMPLER)
    assert rep.worst_violation <= 1e-12


def test_witness_deterministic_under_seed():
    a = rank_one_convexity_check(neg_half_norm_sq(), sampler=SAMPLER)
    b = rank_one_convexity_check(neg_half_norm_sq(), sampler=SAMPLER)
    assert a.worst_violation == b.worst_violation
    assert a.witness == b.witness


def test_segments_leaving_domain_are_skipped():
    rep = rank_one_convexity_check(
        half_norm_sq(1.0), grid_spec(MatrixShape(2, 2), 1.0, 9, "ball"), SAMPLER
    )
    assert rep.samples_skipped > 0


@pytest.mark.parametrize("counts", [{"direction_count": -1}, {"step_count": -1}])
def test_sampler_rejects_negative_counts(counts):
    with pytest.raises(ValueError, match="must be >= 0"):
        SegmentSampler(**counts)


def test_field_is_checked_on_its_own_grid():
    h = neg_half_norm_sq()
    fld = sample(h, grid_spec(h.shape, 1.0, 7, "cube"))
    rep = rank_one_convexity_check(fld, fld.grid, SAMPLER)
    assert rep == rank_one_convexity_check(fld, sampler=SAMPLER)
    other = grid_spec(h.shape, 0.5, 7, "cube")
    for check in (rank_one_convexity_check, separate_convexity_check):
        with pytest.raises(ValueError, match="own grid"):
            check(fld, other, SAMPLER)
    with pytest.raises(ValueError, match="own grid"):
        replay_violation(fld, rep.witness, other)


@pytest.mark.parametrize(
    "f, domain",
    [
        (neg_half_norm_sq(), grid_spec(MatrixShape(2, 2), 1.0, 9, "cube")),
        (neg_uv(), grid_spec(MatrixShape(1, 2), 0.8, 9, "ball")),
        (get_handle("neg_det_2x2_sym"), None),
        (mollify(sample(neg_half_norm_sq(), grid_spec(MatrixShape(2, 2), 1.0, 9, "cube"))), None),
    ],
    ids=["handle_cube", "handle_ball", "neg_det_2x2_sym", "mollified_field"],
)
def test_witness_replays_and_names_its_direction(f, domain):
    rep = rank_one_convexity_check(f, domain, SAMPLER)
    assert replay_violation(f, rep.witness, domain) == rep.worst_violation
    # (matrix, label) pairs, each label written from its factors by the reference
    directions = ref.coordinate_directions(f.shape)
    a, b = random_directions(f.shape, SAMPLER.direction_count, np.random.default_rng(SAMPLER.seed + 1))
    directions += [(np.outer(u, v), ref.factor_label(u, v)) for u, v in zip(a, b)]
    assert rep.samples_checked + rep.samples_skipped == len(directions) * (2 + SAMPLER.step_count)
    labels = {
        label
        for matrix, label in directions
        if np.array_equal(f.shape.matrix_to_coords(matrix), np.array(rep.witness.direction))
    }
    assert labels == {rep.witness.direction_label}


@pytest.mark.parametrize(
    "name, check, label",
    [
        ("neg_det_2x2_sym", separate_convexity_check, "r_22"),
        ("neg_uv", separate_convexity_check, "([1.])(x)([0. 1.])"),
        ("neg_det_2x2_sym", rank_one_convexity_check, "([ 0.9918 -0.1281])(x)([ 0.9918 -0.1281])"),
    ],
    ids=["separate_sym", "separate_general", "rank_one_sym"],
)
def test_witness_labels_keep_their_text(name, check, label):
    # the verify stage's sampler and 9-point unit cube, as `roconvex verify --seed 42` runs them
    h = get_handle(name)
    rep = check(h, grid_spec(h.shape, 1.0, 9, "cube"), SegmentSampler(12, 10, 42))
    assert rep.witness.direction_label == label


def test_laplacian_quadratic_exact():
    spec = grid_spec(MatrixShape(2, 2), 1.0, 5, "cube")
    rep = viscosity_subharmonic_check(sample(half_norm_sq(1.0), spec))
    assert rep.min_value == pytest.approx(4.0, abs=1e-12)


def test_laplacian_neg_det_zero():
    spec = grid_spec(MatrixShape(2, 2), 1.0, 5, "cube")
    rep = viscosity_subharmonic_check(sample(neg_det(), spec))
    assert abs(rep.min_value) <= 1e-12


def test_laplacian_coordinate_harmonic_zero():
    shape = MatrixShape(2, 2)
    h = FunctionHandle("saddle", shape, lambda x: x[..., 0, 0] ** 2 - x[..., 0, 1] ** 2)
    rep = viscosity_subharmonic_check(sample(h, grid_spec(shape, 1.0, 5, "cube")))
    assert abs(rep.min_value) <= 1e-12


def test_laplacian_rejects_symmetric():
    sym = MatrixShape(2, 2, symmetric=True)
    fld = sample(half_norm_sq(1.0, sym), grid_spec(sym, 1.0, 5, "cube"))
    with pytest.raises(ValueError, match="symmetric"):
        viscosity_subharmonic_check(fld)


def _r(n, i, j):
    shape = MatrixShape(n, n, symmetric=True)
    return coordinate_directions(shape)[shape.coord_pairs().index((min(i, j), max(i, j)))]


def test_symmetric_basis_identity():
    # e_ii = r_ii, and 2 sym(e_i (x) e_j) = r_ij - r_ii - r_jj for i != j
    for n in (2, 3):
        eye = np.eye(n)
        for i in range(n):
            assert np.array_equal(_r(n, i, i), np.outer(eye[i], eye[i]))
            for j in range(n):
                if i != j:
                    sym = np.outer(eye[i], eye[j]) + np.outer(eye[j], eye[i])
                    assert np.array_equal(_r(n, i, j) - _r(n, i, i) - _r(n, j, j), sym)


def test_symmetric_operator_assembly():
    # a = sum_ij r_ij (x) r_ij, against a direct contraction of e e^T
    tensor = sum(np.einsum("kl,mn->klmn", _r(2, i, j), _r(2, i, j)) for i in range(2) for j in range(2))
    expected = np.zeros((2, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            e = np.zeros(2)
            if i == j:
                e[i] = 1.0
            else:
                e[i], e[j] = 1.0, 1.0
            r = np.outer(e, e)
            expected += np.einsum("kl,mn->klmn", r, r)
    assert np.array_equal(tensor, expected)
    assert np.min(np.linalg.eigvalsh(tensor.reshape(4, 4))) >= -1e-12


def test_symmetric_operator_quadratic_value():
    # on |x|^2/2 the operator is sum_ij |r_ij|_F^2 = 1 + 1 + 4 + 4
    sym = MatrixShape(2, 2, symmetric=True)
    fld = sample(half_norm_sq(1.0, sym), grid_spec(sym, 1.0, 5, "cube"))
    rep = symmetric_operator_check(fld)
    oracle = sum(float(np.sum(_r(2, i, j) ** 2)) for i in range(2) for j in range(2))
    assert oracle == 10.0
    assert rep.min_value == pytest.approx(oracle, abs=1e-10)


def test_symmetric_operator_linear_and_neg_det():
    sym = MatrixShape(2, 2, symmetric=True)
    ell = np.array([[1.0, 0.5], [0.5, -2.0]])
    fld = sample(linear(ell, sym), grid_spec(sym, 1.0, 5, "cube"))
    assert abs(symmetric_operator_check(fld).min_value) <= 1e-10
    fld = sample(neg_det_sym(), grid_spec(sym, 1.0, 5, "cube"))
    assert abs(symmetric_operator_check(fld).min_value) <= 1e-10


def test_symmetric_operator_rejects_general_shape():
    fld = sample(neg_det(), grid_spec(MatrixShape(2, 2), 1.0, 5, "cube"))
    with pytest.raises(ValueError):
        symmetric_operator_check(fld)


def test_mollify_constant_and_linear():
    shape = MatrixShape(1, 2)
    spec = grid_spec(shape, 1.0, 9, "cube")
    molc = mollify(sample(constant(5.0, shape), spec))
    assert np.allclose(molc.values[molc.mask], 5.0)
    ell = np.array([[2.0, -1.0]])
    moll = mollify(sample(linear(ell, shape), spec))
    exact = moll.node_coords() @ ell.ravel()
    assert np.allclose(moll.values[moll.mask], exact[moll.mask], atol=1e-13)


def test_mollify_shrinks_and_rejects_empty():
    shape = MatrixShape(1, 1)
    fld = sample(half_norm_sq(1.0, shape), grid_spec(shape, 1.0, 9, "cube"))
    mol = mollify(fld)
    assert mol.grid.points_per_axis == 7
    assert mol.grid.radius == pytest.approx(1.0 - fld.grid.spacing)
    # interior nodes of x^2/2: the (1/4, 1/2, 1/4) average adds h^2/4 per axis
    assert np.allclose(mol.values, 0.5 * mol.node_coords()[:, 0] ** 2 + fld.grid.spacing**2 / 4)
    with pytest.raises(ValueError, match="empty"):
        mollify(sample(half_norm_sq(1.0, shape), grid_spec(shape, 1.0, 3, "cube")))


@pytest.mark.parametrize("name", ["frob_norm", "abs_x11", "neg_det_2x2", "half_norm_sq_2"])
def test_mollification_preserves_flagged_convexity(name):
    h = next(c for c in corpus() if c.name == name)
    spec = grid_spec(h.shape, 1.0, 13, "cube")
    mol = mollify(sample(h, spec))
    rep = rank_one_convexity_check(mol, sampler=SAMPLER)
    # interpolation tolerance class K h^2; measured corpus margin is K <= 0.24
    assert rep.worst_violation <= spec.spacing**2


def test_mollified_negative_control_still_fails():
    h = neg_half_norm_sq()
    spec = grid_spec(h.shape, 1.0, 13, "cube")
    mol = mollify(sample(h, spec))
    rep = rank_one_convexity_check(mol, sampler=SAMPLER)
    assert rep.worst_violation > spec.spacing**2


def test_flagged_corpus_passes_both_checks():
    for h in corpus():
        r1 = rank_one_convexity_check(h, sampler=SAMPLER)
        sep = separate_convexity_check(h, sampler=SAMPLER)
        if h.flags.rank_one_convex:
            assert r1.worst_violation <= 1e-9, h.name
        if h.flags.separately_convex:
            assert sep.worst_violation <= 1e-9, h.name
        if h.flags.separately_convex and not h.shape.symmetric:
            fld = sample(h, grid_spec(h.shape, 1.0, 7, "cube"))
            assert viscosity_subharmonic_check(fld).min_value >= -1e-9, h.name
