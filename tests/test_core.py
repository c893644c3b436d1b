import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roconvex import convex1d, core, envelope, lowerbound, paraboloid, verify
from roconvex.core import (
    CapacityError,
    GridSpec,
    MatrixPoint,
    MatrixShape,
    SampledField,
    ball_samples,
    ball_volume,
    coordinate_directions,
    grid_spec,
    gradient_field,
    make_grid,
    sample,
    shifted,
)
from roconvex.corpus import (
    FunctionHandle,
    abs_entry,
    corpus,
    get_handle,
    half_norm_sq,
    linear,
    neg_det,
)


def test_shape_validation():
    with pytest.raises(ValueError):
        MatrixShape(0, 2)
    with pytest.raises(ValueError):
        MatrixShape(2, 3, symmetric=True)
    assert MatrixShape(2, 3).dim == 6
    assert MatrixShape(3, 3, symmetric=True).dim == 6


def test_symmetric_coords_roundtrip():
    shape = MatrixShape(2, 2, symmetric=True)
    coords = np.array([1.0, 2.0, 3.0])
    mat = shape.coords_to_matrix(coords)
    assert np.array_equal(mat, np.array([[1.0, 2.0], [2.0, 3.0]]))
    assert np.array_equal(shape.matrix_to_coords(mat), coords)
    # Frobenius norm counts the off-diagonal twice
    assert shape.frob_norm_coords(coords) == pytest.approx(np.linalg.norm(mat))


@given(st.lists(st.floats(-10, 10), min_size=6, max_size=6))
@settings(max_examples=100, deadline=None)
def test_coords_matrix_roundtrip_general(vals):
    shape = MatrixShape(2, 3)
    coords = np.asarray(vals)
    assert np.array_equal(shape.matrix_to_coords(shape.coords_to_matrix(coords)), coords)


def test_grid_1x1_three_points():
    g = make_grid(grid_spec(MatrixShape(1, 1), 1.0, 3, "cube"))
    assert np.array_equal(g.coords.ravel(), [-1.0, 0.0, 1.0])
    assert g.mask.all()


def test_grid_2x2_node_count():
    g = make_grid(grid_spec(MatrixShape(2, 2), 1.0, 3, "cube"))
    assert g.node_count == 81


def test_grid_1x2_ball_masks_corners():
    g = make_grid(grid_spec(MatrixShape(1, 2), 1.0, 3, "ball"))
    assert int(g.mask.sum()) == 5
    outside = g.coords[~g.mask]
    assert np.allclose(np.linalg.norm(outside, axis=1), np.sqrt(2.0))


def test_grid_spec_contains_is_the_clip_region():
    ball = grid_spec(MatrixShape(1, 2), 1.0, 3, "ball")
    g = make_grid(ball)
    assert np.array_equal(ball.contains(g.coords), g.mask)
    cube = grid_spec(MatrixShape(1, 2), 1.0, 3, "cube")
    assert cube.contains(make_grid(cube).coords).all()
    assert not cube.contains(np.array([1.0 + 1e-9, 0.0]))
    assert cube.contains(np.array([1.0 + 1e-13, -1.0]))


def test_grid_symmetry_about_center():
    g = make_grid(grid_spec(MatrixShape(2, 2), 1.0, 5, "cube"))
    flipped = -g.coords
    as_set = {tuple(row) for row in g.coords}
    assert all(tuple(row) in as_set for row in flipped)


def test_grid_budget_errors(monkeypatch):
    shape = MatrixShape(2, 3)  # dim 6 over budget
    with pytest.raises(CapacityError):
        make_grid(grid_spec(shape, 1.0, 3, "cube"))
    with pytest.raises(CapacityError):
        make_grid(grid_spec(MatrixShape(2, 2), 1.0, 15, "cube"))
    # the axis and dimension caps keep every grid under the node budget (13^4 = 28,561),
    # so the node guard is checked under a lowered budget, on an uncached grid
    make_grid.cache_clear()
    monkeypatch.setattr(core, "MAX_GRID_NODES", 2400)
    with pytest.raises(CapacityError, match="node count 2401 exceeds budget 2400"):
        make_grid(grid_spec(MatrixShape(2, 2), 1.0, 7, "cube"))


def test_signed_zero_center_shares_one_grid():
    shape = MatrixShape(1, 1)
    plus = grid_spec(shape, 1.0, 5, center=MatrixPoint(shape, np.array([0.0])))
    minus = grid_spec(shape, 1.0, 5, center=MatrixPoint(shape, np.array([-0.0])))
    assert plus == minus and hash(plus) == hash(minus)
    assert make_grid(minus) is make_grid(plus)


@pytest.mark.parametrize("points, clip, centre", [(7, "ball", 0.0), (5, "cube", 0.0), (9, "ball", 0.3)])
def test_cloud_positions_find_every_node_and_refuse_the_rest_by_name(points, clip, centre):
    shape = MatrixShape(2, 2)
    grid = make_grid(grid_spec(shape, 0.7, points, clip, MatrixPoint(shape, np.linspace(-centre, centre, 4))))
    nodes = grid.cloud[0]
    order = np.random.default_rng(points).permutation(nodes.shape[0])
    assert np.array_equal(grid.cloud_positions(nodes[order]), order)
    assert grid.cloud_positions(np.empty((0, 4))).shape == (0,)
    off = nodes[:3].copy()
    off[1, 2] = np.nextafter(off[1, 2], np.inf)
    with pytest.raises(ValueError, match=r"point \[.*\] is not a constraint node: it is off the grid"):
        grid.cloud_positions(off)
    for bad in (np.nan, 1e300, -1e300):
        with pytest.raises(ValueError, match="it is off the grid"):
            grid.cloud_positions(np.full(4, bad))
    if clip == "ball":
        masked = grid.coords[~grid.mask][-1]
        with pytest.raises(ValueError, match=rf"point {re.escape(str(masked.tolist()))} .* the grid masks it"):
            grid.cloud_positions(np.stack([nodes[0], masked]))


def test_grid_spec_validation():
    shape = MatrixShape(1, 1)
    with pytest.raises(ValueError):
        GridSpec(shape, MatrixPoint.zero(shape), 1.0, 4)
    with pytest.raises(ValueError):
        GridSpec(shape, MatrixPoint.zero(shape), -1.0, 5)
    with pytest.raises(ValueError):
        GridSpec(shape, MatrixPoint.zero(shape), 1.0, 5, clip="disc")


def test_sample_values():
    shape = MatrixShape(1, 1)
    fld = sample(half_norm_sq(1.0, shape), grid_spec(shape, 1.0, 3, "cube"))
    assert np.array_equal(fld.values, [0.5, 0.0, 0.5])
    zero = sample(linear(np.zeros((2, 2)), name="zero"), grid_spec(MatrixShape(2, 2), 1.0, 3, "cube"))
    assert np.all(zero.values == 0.0)


def test_sample_neg_det_at_identity():
    spec = grid_spec(MatrixShape(2, 2), 1.0, 3, "cube")
    fld = sample(neg_det(), spec)
    coords = fld.node_coords()
    k = int(np.argmin(np.sum(np.abs(coords - np.array([1.0, 0.0, 0.0, 1.0])), axis=1)))
    assert fld.values[k] == -1.0


def test_sample_rejects_non_finite():
    shape = MatrixShape(1, 1)
    bad = FunctionHandle("bad", shape, lambda x: 1.0 / x[..., 0, 0])
    with pytest.raises(ValueError, match="non-finite"):
        sample(bad, grid_spec(shape, 1.0, 3, "cube"))


def test_sup_abs_names_a_field_without_valid_nodes():
    # numpy's own error names a zero-size reduction, not the field
    fld = sample(abs_entry(0, 0, MatrixShape(2, 2)), grid_spec(MatrixShape(2, 2), 1.0, 5, "cube"))
    assert fld.sup_abs() == 1.0
    empty = SampledField(fld.grid, fld.values, np.zeros(fld.values.size, bool))
    with pytest.raises(ValueError, match="sup_abs: field has no valid nodes"):
        empty.sup_abs()


def test_resample_refined_grid_agrees_exactly():
    shape = MatrixShape(2, 2)
    h = neg_det()
    coarse = sample(h, grid_spec(shape, 1.0, 5, "cube"))
    fine = sample(h, grid_spec(shape, 1.0, 9, "cube"))
    cc = coarse.node_coords()
    fc = fine.node_coords()
    index = {tuple(row): k for k, row in enumerate(fc)}
    for k, row in enumerate(cc):
        assert coarse.values[k] == fine.values[index[tuple(row)]]


def test_gradient_linear_exact():
    shape = MatrixShape(2, 2)
    ell = np.array([[1.0, -2.0], [0.5, 3.0]])
    fld = sample(linear(ell, shape), grid_spec(shape, 1.0, 5, "cube"))
    comps = gradient_field(fld)
    for k, (i, j) in enumerate(shape.coord_pairs()):
        vals = comps[k].values[comps[k].mask]
        assert np.allclose(vals, ell[i, j], atol=1e-13)


def test_gradient_quadratic_exact_and_kink_zero():
    shape = MatrixShape(1, 1)
    spec = grid_spec(shape, 1.0, 5, "cube")
    fld = sample(half_norm_sq(1.0, shape), spec)
    g = gradient_field(fld)[0]
    assert np.allclose(g.values[g.mask], fld.node_coords().ravel()[g.mask], atol=1e-14)
    absf = sample(abs_entry(0, 0, shape), spec)
    g = gradient_field(absf)[0]
    mid = spec.points_per_axis // 2
    assert g.values[mid] == 0.0


def test_gradient_second_order_convergence():
    # smooth non-polynomial: error ratio between h and h/2 stays near 4
    shape = MatrixShape(2, 2)
    ell = np.array([[0.3, -0.7], [0.2, 0.5]])
    h = FunctionHandle(
        "exp_lin",
        shape,
        value=lambda x: np.exp(np.einsum("ij,...ij->...", ell, x)),
        gradient=lambda x: np.exp(np.einsum("ij,...ij->...", ell, x))[..., None, None] * ell,
    )

    def interior_error(points):
        # max over a resolution-independent inner region, so both grids see the
        # same third-derivative scale
        spec = grid_spec(shape, 0.5, points, "cube")
        fld = sample(h, spec)
        comps = gradient_field(fld)
        coords = fld.node_coords()
        exact = h.gradient_at_coords(coords).reshape(coords.shape[0], -1)
        inner = np.max(np.abs(coords), axis=1) <= 0.25 + 1e-12
        err = 0.0
        for k, comp in enumerate(comps):
            err = max(err, float(np.max(np.abs(comp.values[inner] - exact[inner, k]))))
        return err

    ratio = interior_error(5) / interior_error(9)
    assert 3.5 <= ratio <= 4.5


def test_polynomial_gradients_centrally_exact():
    # central differences of (multi)linear and quadratic handles carry no
    # truncation error, so sampled gradients match the exact gradient to roundoff
    from roconvex.corpus import neg_half_norm_sq, neg_uv

    for h in (half_norm_sq(2.0), neg_half_norm_sq(), neg_det(), neg_uv()):
        spec = grid_spec(h.shape, 1.0, 5, "cube")
        comps = gradient_field(sample(h, spec))
        coords = comps[0].node_coords()
        exact = h.gradient_at_coords(coords)
        for k, (i, j) in enumerate(h.shape.coord_pairs()):
            c = comps[k]
            assert np.allclose(c.values[c.mask], exact[c.mask, i, j], atol=1e-12), h.name


def test_corpus_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    for h in corpus():
        if h.gradient is None:
            continue
        pts = rng.uniform(-0.9, 0.9, size=(20, h.shape.dim))
        mats = h.shape.coords_to_matrix(pts)
        # keep clear of kink hyperplanes where the gradient jumps
        if h.name in ("frob_norm", "abs_x11", "abs_det_2x2", "max_linear_3"):
            pts = pts[np.all(np.abs(pts) > 0.05, axis=1)]
            mats = h.shape.coords_to_matrix(pts)
        exact = h.gradient(mats)
        approx = h.fd_gradient(mats)
        scale = np.maximum(1.0, np.abs(exact))
        mism = np.abs(exact - approx) / scale
        if h.name in ("frob_norm", "abs_x11", "abs_det_2x2", "max_linear_3"):
            # a kink crossing within the difference step inflates isolated entries
            assert float(np.median(np.max(mism, axis=(-2, -1)))) < 1e-7, h.name
        else:
            assert float(np.max(mism)) < 1e-7, h.name


UV_NO_GRADIENT = FunctionHandle("uv_nograd", MatrixShape(1, 2), lambda x: x[..., 0, 0] * x[..., 0, 1])
UV_SPEC = grid_spec(MatrixShape(1, 2), 1.0, 5)
UV_POINTS = np.array([[0.5, -0.25], [-0.3, 0.6]])
UV_MAJORANT = lowerbound.RadialMajorant(np.zeros(2), np.array([1.0]), np.array([1.0]))
# Code that needs Df reads the handle's exact gradient and fails by name without
# one (None: a value-only consumer, which takes the handle as it is).
GRADIENT_CALLS = {
    "empirical_majorant": (
        lambda f: lowerbound.empirical_majorant(f, np.zeros(2), UV_POINTS),
        "handle 'uv_nograd' has no exact gradient",
    ),
    "lower_bound_certify": (
        lambda f: lowerbound.lower_bound_certify(f, np.zeros(2), UV_MAJORANT, UV_POINTS),
        "handle 'uv_nograd' has no exact gradient",
    ),
    "fubini_tail_experiment": (
        lambda f: convex1d.fubini_tail_experiment(f, [40.0, 80.0], lines_per_direction=4),
        "fubini_tail_experiment needs an exact gradient, and handle 'uv_nograd' has none",
    ),
    "second_order_remainder": (
        lambda f: envelope.second_order_remainder(f, np.zeros(2), [0.2, 0.1]),
        "handle 'uv_nograd' has no exact gradient",
    ),
    "second_order_remainder_field": (
        lambda f: envelope.second_order_remainder(sample(f, UV_SPEC), np.zeros(2), [0.6, 0.5]),
        "second_order_remainder needs a handle with an exact gradient, not a SampledField",
    ),
    "sample": (lambda f: sample(f, UV_SPEC), None),
    "rank_one_convexity_check": (lambda f: verify.rank_one_convexity_check(f, UV_SPEC), None),
    "theta_upper": (lambda f: paraboloid.theta_upper(f, np.zeros(2), UV_SPEC), None),
}


@pytest.mark.parametrize("name", GRADIENT_CALLS)
def test_only_df_consumers_need_a_gradient(name):
    call, cause = GRADIENT_CALLS[name]
    if cause is None:
        call(UV_NO_GRADIENT)
    else:
        with pytest.raises(ValueError, match=cause):
            call(UV_NO_GRADIENT)


def test_interpolation_exact_for_multilinear():
    shape = MatrixShape(1, 2)
    h = FunctionHandle("bilinear", shape, lambda x: 2.0 + x[..., 0, 0] * x[..., 0, 1])
    fld = sample(h, grid_spec(shape, 1.0, 5, "cube"))
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.99, 0.99, size=(50, 2))
    vals, ok = fld.interpolate(pts)
    assert ok.all()
    assert np.allclose(vals, h.value_at_coords(pts), atol=1e-13)


def test_interpolation_flags_outside_and_masked():
    shape = MatrixShape(1, 2)
    fld = sample(half_norm_sq(1.0, shape), grid_spec(shape, 1.0, 3, "ball"))
    vals, ok = fld.interpolate(np.array([[2.0, 0.0], [0.9, 0.9]]))
    assert not ok[0]  # outside the cube
    assert not ok[1]  # cell corner masked out by the ball clip
    assert np.isnan(vals[~ok]).all()


def _interpolate_per_corner(fld, coords):
    """Multilinear interpolation corner by corner on the n-d value array: the reference."""
    spec = fld.grid
    dim = spec.shape.dim
    rel = (coords - (spec.center.coords - spec.radius)) / spec.spacing
    # Snap lattice positions within the rounding bound of a node, as interpolate does.
    eps = np.finfo(float).eps
    tol = 4.0 * eps * (spec.points_per_axis + np.abs(spec.center.coords) / spec.spacing)
    rel = np.where(np.abs(rel - np.rint(rel)) <= tol, np.rint(rel), rel)
    inside = np.all((rel >= -1e-9) & (rel <= spec.points_per_axis - 1 + 1e-9), axis=1)
    cell = np.clip(np.floor(rel).astype(int), 0, spec.points_per_axis - 2)
    frac = np.clip(rel - cell, 0.0, 1.0)
    vals_nd = fld.values_nd()
    out = np.zeros(coords.shape[0])
    ok = inside.copy()
    for corner in range(2**dim):
        bits = np.array([(corner >> k) & 1 for k in range(dim)])
        weight = np.prod(np.where(bits == 1, frac, 1.0 - frac), axis=1)
        corner_vals = vals_nd[tuple((cell + bits).T)]
        bad = ~np.isfinite(corner_vals)
        ok &= ~(bad & (weight > 0.0))
        out += np.where(bad, 0.0, weight * corner_vals)
    out[~ok] = np.nan
    return out, ok


@pytest.mark.parametrize("points, clip", [(13, "ball"), (7, "ball"), (9, "cube")])
def test_interpolation_matches_per_corner_reference_bitwise(points, clip):
    rng = np.random.default_rng(points)
    masked_cells = 0
    for h in corpus():
        fld = sample(h, grid_spec(h.shape, 1.0, points, clip))
        for count in (1, 7, 500):
            # Queries reach past the cube, and on balls into cells with masked corners.
            q = rng.uniform(-1.1, 1.1, size=(count, h.shape.dim))
            vals, ok = fld.interpolate(q)
            ref_vals, ref_ok = _interpolate_per_corner(fld, q)
            assert vals.tobytes() == ref_vals.tobytes(), (h.name, count)
            assert ok.tobytes() == ref_ok.tobytes(), (h.name, count)
            masked_cells += int(np.sum(~ok & np.all(np.abs(q) <= 1.0, axis=1)))
    assert (masked_cells > 0) == (clip == "ball")


@pytest.mark.parametrize("points, clip", [(7, "ball"), (5, "cube")])
def test_interpolation_on_nodes_and_faces_matches_per_corner_reference_bitwise(points, clip):
    rng = np.random.default_rng(points + 100)
    for h in corpus():
        spec = grid_spec(h.shape, 1.0, points, clip)
        fld = sample(h, spec)
        dim = h.shape.dim
        nodes = fld.node_coords()
        # Points on cell faces: one coordinate on the lattice, the rest anywhere
        # in or past the cube.
        faces = rng.uniform(-1.2, 1.2, size=(300, dim))
        axis = rng.integers(dim, size=300)
        level = rng.integers(points, size=300)
        faces[np.arange(300), axis] = [spec.axis_values(k)[i] for k, i in zip(axis, level)]
        q = np.concatenate([nodes, faces])
        vals, ok = fld.interpolate(q)
        ref_vals, ref_ok = _interpolate_per_corner(fld, q)
        assert vals.tobytes() == ref_vals.tobytes(), h.name
        assert ok.tobytes() == ref_ok.tobytes(), h.name
        # On a ball, some answered queries have masked NaN corners of zero weight.
        cell = np.clip(np.floor((q - (spec.center.coords - spec.radius)) / spec.spacing), 0, points - 2)
        corners = (np.arange(2**dim)[:, None] >> np.arange(dim)) & 1
        nan_corner = np.isnan(fld.values_nd()[tuple((cell.astype(int)[:, None, :] + corners).T)])
        assert np.any(ok & np.any(nan_corner, axis=0)) == (clip == "ball"), h.name
        for k in rng.choice(q.shape[0], size=40, replace=False):
            one, one_ok = fld.interpolate(q[k])
            ref_one, ref_one_ok = _interpolate_per_corner(fld, q[k : k + 1])
            assert one.tobytes() == ref_one.tobytes() == vals[k : k + 1].tobytes(), (h.name, k)
            assert one_ok.tobytes() == ref_one_ok.tobytes() == ok[k : k + 1].tobytes(), (h.name, k)


@pytest.mark.parametrize(
    "name, points, radius, centre",
    [
        ("half_norm_sq_0p5", 7, 1.0, 0.0),
        ("half_norm_sq_0p5", 13, 1.0, 0.0),
        ("neg_uv", 7, 1.0, 0.0),
        ("neg_det_2x2_sym", 7, 1.0, 0.0),
        # a non-dyadic radius and an off-centre grid
        ("neg_det_2x2", 9, 0.7, 0.3),
    ],
)
def test_ball_field_answers_its_own_nodes_with_their_values(name, points, radius, centre):
    h = get_handle(name)
    centre = MatrixPoint(h.shape, np.linspace(-centre, centre, h.shape.dim))
    fld = sample(h, grid_spec(h.shape, radius, points, "ball", centre))
    vals, ok = fld.interpolate(fld.node_coords()[fld.mask])
    assert ok.all()
    assert np.array_equal(vals, fld.valid_values())
    # Nodes next to a masked node are among them: the case that needs the snap.
    v, on_grid = fld.values_nd(), np.ones(fld.nd_shape)
    steps = [s * e for e in np.eye(h.shape.dim, dtype=int) for s in (1, -1)]
    masked_next = [np.isnan(shifted(v, s)) & ~np.isnan(shifted(on_grid, s)) for s in steps]
    assert np.any(np.isfinite(v) & np.any(masked_next, axis=0))


def test_ball_samples_inside():
    shape = MatrixShape(2, 2)
    rng = np.random.default_rng(3)
    pts = ball_samples(shape, np.zeros(4), 0.5, 200, rng)
    assert pts.shape == (200, 4)
    assert np.all(np.linalg.norm(pts, axis=1) <= 0.5 + 1e-12)


def test_ball_samples_rejects_radius_where_every_norm_overflows():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="radius 1e\\+160"):
        ball_samples(MatrixShape(2, 2), np.zeros(4), 1e160, 10, rng)


@pytest.mark.parametrize("radius", [0.0, -1.0, np.inf, np.nan])
def test_ball_samples_rejects_radius_not_positive_and_finite(radius):
    # the radius rule of GridSpec
    with pytest.raises(ValueError, match="ball radius must be positive and finite"):
        ball_samples(MatrixShape(2, 2), np.zeros(4), radius, 10, np.random.default_rng(0))


def test_ball_volume_closed_forms():
    assert ball_volume(1, 1.0) == pytest.approx(2.0)
    assert ball_volume(2, 1.0) == pytest.approx(np.pi)
    assert ball_volume(3, 2.0) == pytest.approx(4.0 / 3.0 * np.pi * 8.0)


def test_rank_one_directions():
    shape = MatrixShape(2, 2)
    dirs = coordinate_directions(shape)
    assert len(dirs) == 4
    for d in dirs:
        assert np.linalg.matrix_rank(d) == 1
    sym = MatrixShape(2, 2, symmetric=True)
    sdirs = dict(zip((f"r_{i + 1}{j + 1}" for i, j in sym.coord_pairs()), coordinate_directions(sym)))
    assert sdirs.keys() == {"r_11", "r_12", "r_22"}
    assert np.array_equal(sdirs["r_12"], np.ones((2, 2)))
    assert np.array_equal(sdirs["r_11"], np.array([[1.0, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize(
    "shape",
    [MatrixShape(1, 2), MatrixShape(2, 3), MatrixShape(2, 2, symmetric=True), MatrixShape(3, 3, symmetric=True)],
    ids=["1x2", "2x3", "sym2", "sym3"],
)
def test_coordinate_directions_follow_coord_pairs(shape):
    dirs = coordinate_directions(shape)
    pairs = shape.coord_pairs()
    assert dirs.shape == (len(pairs), shape.rows, shape.cols)
    eye_r, eye_c = np.eye(shape.rows), np.eye(shape.cols)
    for d, (i, j) in zip(dirs, pairs):
        assert np.linalg.matrix_rank(d) == 1
        if shape.symmetric:  # r_ij = (e_i+e_j) (x) (e_i+e_j), r_ii = e_i (x) e_i
            e = eye_r[i] + eye_r[j] if i != j else eye_r[i]
            assert np.array_equal(d, np.outer(e, e))
        else:
            assert np.array_equal(d, np.outer(eye_r[i], eye_c[j]))



NEGATIVE_SEED_CALLS = {
    "SegmentSampler": lambda: verify.SegmentSampler(seed=-1),
    "fubini_tail_experiment": lambda: convex1d.fubini_tail_experiment(
        abs_entry(0, 0, MatrixShape(1, 2)), [19.0, 40.0], lines_per_direction=4, seed=-1
    ),
    "theta_field": lambda: paraboloid.theta_field(neg_det(), grid_spec(MatrixShape(2, 2), 1.0, 5), count=2, seed=-1),
    "second_order_remainder": lambda: envelope.second_order_remainder(neg_det(), np.zeros(4), [0.2], seed=-1),
}


@pytest.mark.parametrize("name", NEGATIVE_SEED_CALLS)
def test_negative_seed_fails_by_name(name):
    # numpy's own error ("expected non-negative integer") names no argument
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        NEGATIVE_SEED_CALLS[name]()
