import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roconvex.core import MatrixShape, ball_samples
from roconvex.corpus import (
    FunctionHandle,
    abs_det,
    corpus,
    half_norm_sq,
    neg_det,
    neg_det_sym,
    neg_half_norm_sq,
    neg_uv,
)
from roconvex.lowerbound import (
    RadialMajorant,
    TangencyError,
    empirical_majorant,
    lemma_constant,
    lower_bound_certify,
    recentered_values,
)

S22 = MatrixShape(2, 2)


def paraboloid_table(x0, A):
    """(A/2) t^2 tabulated at 32 radii up to 1, as a step majorant: each step
    reads the value at its right edge, so it dominates the paraboloid."""
    radii = np.linspace(1.0 / 32, 1.0, 32)
    return RadialMajorant(np.asarray(x0, dtype=float), radii, 0.5 * A * radii**2)


def column_split(x):
    """Partials (columns 0..i kept), rank-one columns x_col_i (x) e_i, and reflections
    partials[i] - 2 columns[i] of one matrix: the reference loop for the split that
    empirical_majorant writes column by column."""
    m, n = x.shape
    partials = np.zeros((n, m, n))
    columns = np.zeros((n, m, n))
    for i in range(n):
        partials[i, :, : i + 1] = x[:, : i + 1]
        columns[i, :, i] = x[:, i]
    return partials, columns, partials - 2.0 * columns


def test_column_split_worked_example():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    partials, columns, reflections = column_split(x)
    assert np.array_equal(partials[0], [[1.0, 0.0], [3.0, 0.0]])
    assert np.array_equal(columns[1], [[0.0, 2.0], [0.0, 4.0]])
    assert np.array_equal(reflections[1], [[1.0, -2.0], [3.0, -4.0]])
    assert np.array_equal(0.5 * partials[1] + 0.5 * reflections[1], partials[0])


def test_column_split_single_column_and_zero():
    x = np.array([[2.0], [1.0]])
    partials, _, _ = column_split(x)
    assert np.array_equal(partials[0], x)
    partials, _, reflections = column_split(np.zeros((2, 2)))
    assert np.all(partials == 0.0) and np.all(reflections == 0.0)


@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=6, max_size=6))
@settings(max_examples=200, deadline=None)
def test_column_split_invariants_random(vals):
    x = np.asarray(vals).reshape(2, 3)
    partials, columns, reflections = column_split(x)
    assert np.array_equal(partials[-1], x)
    norms = [np.linalg.norm(partials[i]) for i in range(3)]
    for i in range(3):
        assert np.linalg.norm(reflections[i]) == pytest.approx(norms[i], abs=1e-12)
        assert np.linalg.matrix_rank(columns[i]) <= 1
    assert norms == sorted(norms)
    # midpoint identity x_i = (x_{i+1} + y_{i+1}) / 2, up to subnormal rounding
    for i in range(2):
        residual = np.max(np.abs(partials[i] - (0.5 * partials[i + 1] + 0.5 * reflections[i + 1])))
        assert residual <= 1e-12 * max(1.0, float(np.max(np.abs(x))))


def test_lemma_constant_recurrence_unroll():
    # worst-case chain: deficit_{i+1} = 2 deficit_i + 1 starting from 0
    for n in (1, 2, 3, 4, 6):
        deficit = 0
        for _ in range(n - 1):
            deficit = 2 * deficit + 1
        assert lemma_constant(n) == deficit
    assert lemma_constant(1) == 0
    assert lemma_constant(2) == 1
    assert lemma_constant(4) == 7
    with pytest.raises(ValueError):
        lemma_constant(0)


@pytest.mark.parametrize("shape", [MatrixShape(1, 2), MatrixShape(2, 2), MatrixShape(2, 3)])
def test_majorant_build_points_match_column_split_loop(shape):
    # The split array must evaluate f on exactly the points, in the order, of an
    # explicit column_split loop: per sample and column, the reflection, then the
    # partial; the last partial stands for the sample itself.
    seen = []

    def value(x):
        seen.append(x.copy())
        return np.sum(np.abs(x - 0.1), axis=(-2, -1))

    f = FunctionHandle("abs_shifted", shape, value, lambda x: np.sign(x - 0.1))
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-0.2, 0.2, shape.dim)
    samples = ball_samples(shape, x0, 1.0, 300, rng)
    x0m = shape.coords_to_matrix(x0)
    extra = []
    for mat in shape.coords_to_matrix(samples) - x0m:
        partials, _, reflections = column_split(mat)
        for i in range(shape.cols):
            extra.append(shape.matrix_to_coords(reflections[i] + x0m))
            extra.append(shape.matrix_to_coords(partials[i] + x0m))
    build = np.asarray(extra)
    g = empirical_majorant(f, x0, samples)
    assert np.array_equal(seen[-1].reshape(-1, shape.rows, shape.cols), shape.coords_to_matrix(build))
    assert g.radii[-1] == np.max(shape.frob_norm_coords(build - x0))


def test_majorant_validation():
    with pytest.raises(ValueError, match="increasing"):
        RadialMajorant(np.zeros(2), np.array([1.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="non-decreasing"):
        RadialMajorant(np.zeros(2), np.array([0.5, 1.0]), np.array([1.0, 0.0]))
    g = RadialMajorant(np.zeros(2), np.array([0.5, 1.0]), np.array([0.25, 1.0]))
    assert g.profile(np.array([0.3]))[0] == 0.25
    assert g.profile(np.array([0.75]))[0] == 1.0
    with pytest.raises(ValueError, match="beyond"):
        g.profile(np.array([1.5]))


def test_certificates_flagged_corpus_2x2():
    rng = np.random.default_rng(11)
    samples = ball_samples(S22, np.zeros(4), 1.0, 4000, rng)
    for h in corpus():
        if not h.flags.rank_one_convex or h.shape != S22:
            continue
        G = empirical_majorant(h, np.zeros(4), samples)
        cert = lower_bound_certify(h, np.zeros(4), G, samples)
        assert cert.passed, (h.name, cert.min_slack)
        assert cert.constant == 1.0  # C(2)


def test_certificate_negative_control_fails():
    rng = np.random.default_rng(11)
    h = neg_half_norm_sq()
    samples = ball_samples(S22, np.zeros(4), 1.0, 4000, rng)
    G = empirical_majorant(h, np.zeros(4), samples)
    cert = lower_bound_certify(h, np.zeros(4), G, samples)
    assert not cert.passed
    assert cert.min_slack < -0.1


def test_certificate_explicit_negative_control_with_paraboloid_table():
    # G = |x|^2/4 dominates -|x|^2/2 (tangency holds) yet the bound fails
    rng = np.random.default_rng(3)
    h = neg_half_norm_sq()
    samples = ball_samples(S22, np.zeros(4), 1.0, 2000, rng)
    G = paraboloid_table(np.zeros(4), 0.5)
    cert = lower_bound_certify(h, np.zeros(4), G, samples)
    assert cert.constant == 1.0  # C(2)
    assert not cert.passed


def test_tangency_refusal_names_sample():
    rng = np.random.default_rng(4)
    h = half_norm_sq(2.0)  # grows faster than the A=1 paraboloid
    samples = ball_samples(S22, np.zeros(4), 1.0, 500, rng)
    G = paraboloid_table(np.zeros(4), 1.0)
    with pytest.raises(TangencyError, match="sample"):
        lower_bound_certify(h, np.zeros(4), G, samples)


def test_monotone_in_majorant():
    rng = np.random.default_rng(5)
    h = neg_det()
    samples = ball_samples(S22, np.zeros(4), 1.0, 2000, rng)
    small = paraboloid_table(np.zeros(4), 1.0)
    large = paraboloid_table(np.zeros(4), 2.0)
    cert_small = lower_bound_certify(h, np.zeros(4), small, samples)
    cert_large = lower_bound_certify(h, np.zeros(4), large, samples)
    assert cert_large.min_slack >= cert_small.min_slack


def test_neg_uv_coordinate_variant_passes():
    # on row vectors the column filtration is the coordinate filtration, so the
    # certificate extends to separately convex inputs
    shape = MatrixShape(1, 2)
    rng = np.random.default_rng(6)
    h = neg_uv()
    samples = ball_samples(shape, np.zeros(2), 1.0, 4000, rng)
    G = empirical_majorant(h, np.zeros(2), samples)
    cert = lower_bound_certify(h, np.zeros(2), G, samples)
    assert cert.passed


def test_recentring_removes_value_and_slope():
    h = neg_det()
    x0 = np.array([0.2, -0.1, 0.3, 0.4])
    vals, f0, g0 = recentered_values(h, x0, x0[None, :])
    assert abs(vals[0]) <= 1e-14
    eps = 1e-7
    probe = x0 + eps * np.eye(4)
    vals, _, _ = recentered_values(h, x0, probe)
    assert np.all(np.abs(vals) <= 1e-9)


def test_empirical_majorant_is_monotone_table():
    rng = np.random.default_rng(8)
    samples = ball_samples(S22, np.zeros(4), 1.0, 1000, rng)
    G = empirical_majorant(abs_det(), np.zeros(4), samples)
    assert np.all(np.diff(G.values) >= 0.0)
    assert np.all(G.values >= 0.0)


def test_empty_sample_set_is_rejected():
    empty = np.zeros((0, 4))
    with pytest.raises(ValueError, match="at least one sample"):
        empirical_majorant(neg_det(), np.zeros(4), empty)
    G = paraboloid_table(np.zeros(4), 1.0)
    with pytest.raises(ValueError, match="at least one sample"):
        lower_bound_certify(neg_det(), np.zeros(4), G, empty)


@pytest.mark.parametrize("shape", [(5, 3), (4,)], ids=["three_coordinates", "flat"])
def test_sample_shape_is_named(shape):
    # unchecked, numpy fails first: a broadcast error for (5, 3), an IndexError for (4,)
    samples = np.full(shape, 0.1)
    cause = re.escape(f"needs samples of shape (K, 4), got {shape}")
    with pytest.raises(ValueError, match=f"empirical_majorant {cause}"):
        empirical_majorant(neg_det(), np.zeros(4), samples)
    with pytest.raises(ValueError, match=f"lower_bound_certify {cause}"):
        lower_bound_certify(neg_det(), np.zeros(4), paraboloid_table(np.zeros(4), 1.0), samples)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
def test_non_finite_samples_are_named(bad):
    samples = ball_samples(S22, np.zeros(4), 1.0, 20, np.random.default_rng(2))
    samples[7, 2] = bad
    samples[9, 0] = bad
    with pytest.raises(ValueError, match="empirical_majorant: sample 7 is not finite"):
        empirical_majorant(neg_det(), np.zeros(4), samples)
    G = paraboloid_table(np.zeros(4), 1.0)
    with pytest.raises(ValueError, match="lower_bound_certify: sample 7 is not finite"):
        lower_bound_certify(neg_det(), np.zeros(4), G, samples)


def test_samples_all_at_x0_or_a_non_finite_x0_are_rejected():
    x0 = np.array([0.1, -0.2, 0.3, 0.0])
    at_x0 = np.tile(x0, (5, 1))
    G = paraboloid_table(x0, 1.0)
    with pytest.raises(ValueError, match="needs a sample off x0"):
        empirical_majorant(neg_det(), x0, at_x0)
    with pytest.raises(ValueError, match="needs a sample off x0"):
        lower_bound_certify(neg_det(), x0, G, at_x0)
    samples = ball_samples(S22, np.zeros(4), 1.0, 20, np.random.default_rng(2))
    with pytest.raises(ValueError, match="needs a finite x0"):
        empirical_majorant(neg_det(), np.array([0.0, np.nan, 0.0, 0.0]), samples)


def test_x0_of_the_wrong_size_is_named():
    # unchecked, a (3,) x0 against (K, 4) samples failed in numpy's broadcasting
    samples = ball_samples(S22, np.zeros(4), 1.0, 20, np.random.default_rng(2))
    with pytest.raises(ValueError, match=r"empirical_majorant needs x0 of shape \(4,\), got \(3,\)"):
        empirical_majorant(neg_det(), np.zeros(3), samples)
    G = paraboloid_table(np.zeros(4), 1.0)
    with pytest.raises(ValueError, match=r"lower_bound_certify needs x0 of shape \(4,\), got \(5,\)"):
        lower_bound_certify(neg_det(), np.zeros(5), G, samples)


@pytest.mark.parametrize("h", [neg_half_norm_sq(), half_norm_sq(1.0)], ids=lambda h: h.name)
def test_certify_rejects_an_x0_off_the_majorant_centre(h):
    # Off-centre, G measures distance from the wrong point: it would certify the
    # control, and blame an innocent sample for the convex quadratic's tangency.
    samples = ball_samples(S22, np.zeros(4), 1.0, 200, np.random.default_rng(2))
    G = empirical_majorant(h, np.zeros(4), samples)
    cause = r"majorant's centre, got x0 = \[0.3, 0.3, 0.3, 0.3\] against majorant.x0 = \[0.0, 0.0, 0.0, 0.0\]"
    with pytest.raises(ValueError, match=cause):
        lower_bound_certify(h, np.full(4, 0.3), G, samples)


def test_symmetric_shapes_are_rejected_by_name():
    # the column split of a symmetric matrix is not symmetric, so neither function takes one
    h = neg_det_sym()
    samples = ball_samples(h.shape, np.zeros(3), 1.0, 20, np.random.default_rng(2))
    cause = "needs a general shape, and neg_det_2x2_sym has the symmetric shape 2x2"
    with pytest.raises(ValueError, match=f"empirical_majorant {cause}"):
        empirical_majorant(h, np.zeros(3), samples)
    G = paraboloid_table(np.zeros(3), 1.0)
    with pytest.raises(ValueError, match=f"lower_bound_certify {cause}"):
        lower_bound_certify(h, np.zeros(3), G, samples)
