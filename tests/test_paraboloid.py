import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from roconvex import paraboloid
from roconvex.core import (
    GridSpec,
    MatrixPoint,
    MatrixShape,
    SampledField,
    ball_samples,
    grid_spec,
    make_grid,
    sample,
)
from roconvex.corpus import (
    FunctionHandle,
    abs_entry,
    frob_norm,
    get_handle,
    half_norm_sq,
    linear,
    max_linear,
    neg_det,
)
from roconvex.paraboloid import (
    GAP_RTOL,
    TAIL_T_GRID,
    replay_lower_bound,
    replay_opening,
    tail_experiment,
    theta_field,
    theta_upper,
    touch_feasibility_gap,
)

S1 = MatrixShape(1, 1)
S12 = MatrixShape(1, 2)
S22 = MatrixShape(2, 2)


def spec1(points=13, radius=1.0):
    return GridSpec(S1, MatrixPoint.zero(S1), radius, points, "cube")


def test_theta_upper_at_a_ball_field_node_next_to_the_mask():
    # Node (-2/3, 0, 0, 1/3): its neighbour (-1, 0, 0, 1/3) lies outside the unit ball.
    spec = grid_spec(S22, 1.0, 7, "ball")
    fld = sample(half_norm_sq(0.5), spec)
    node = np.ravel_multi_index((1, 3, 3, 4), fld.nd_shape)
    assert fld.mask[node] and not fld.mask[np.ravel_multi_index((0, 3, 3, 4), fld.nd_shape)]
    touch = theta_upper(fld, fld.node_coords()[node], spec)
    assert touch.value_at_x0 == fld.values[node]
    assert touch.converged
    assert touch.opening == pytest.approx(0.5, abs=1e-12)


def test_theta_upper_on_a_ball_field_reads_zero_on_the_boundary_sphere():
    # At a node on the sphere every other node lies in the open half-space behind it,
    # so the slope can tilt until no constraint binds; inside, the true opening 0.5.
    spec = grid_spec(S22, 1.0, 7, "ball")
    fld = sample(half_norm_sq(0.5), spec)
    nodes = fld.node_coords()[fld.mask]
    openings = np.array([theta_upper(fld, x0, spec).opening for x0 in nodes])
    lattice = np.rint(nodes / spec.spacing).astype(int)
    on_sphere = np.sum(lattice * lattice, axis=1) == 9  # |x| = 1 at spacing 1/3
    assert int(np.sum(on_sphere)) == 104 and int(np.sum(~on_sphere)) == 321
    assert np.all(np.abs(openings[on_sphere]) <= 1e-12)
    assert np.all(np.abs(openings[~on_sphere] - 0.5) <= 1e-12)


@pytest.mark.parametrize("a0", [0.5, 1.0, 2.0])
def test_quadratic_opening_exact(a0):
    touch = theta_upper(half_norm_sq(a0), np.zeros(4), grid_spec(S22, 1.0, 9, "cube"))
    assert touch.opening == pytest.approx(a0, rel=1e-12)
    assert np.allclose(touch.slope, 0.0)


def test_quadratic_opening_off_center():
    x0 = np.array([0.25, -0.1, 0.3, 0.05])
    touch = theta_upper(half_norm_sq(2.0), x0, grid_spec(S22, 1.0, 9, "cube"))
    assert touch.opening == pytest.approx(2.0, rel=1e-9)
    assert np.allclose(touch.slope.reshape(-1), 2.0 * x0, atol=1e-9)


def test_linear_opening_zero():
    ell = np.array([[1.0, -0.5], [0.25, 2.0]])
    touch = theta_upper(linear(ell, S22), np.array([0.1, 0.2, -0.3, 0.05]), grid_spec(S22, 1.0, 9, "cube"))
    assert touch.opening <= 1e-12
    assert np.array_equal(touch.slope, ell)


def test_abs_matches_bruteforce_oracle_1d():
    pytest.importorskip("scipy")
    h = frob_norm(S1)
    for x0 in (0.5, 0.2, -0.35):
        touch = theta_upper(h, np.array([x0]), spec1())
        oracle = _highs_opening(paraboloid._TouchProblem.on_grid(h, np.array([x0]), spec1()))
        assert touch.opening == pytest.approx(oracle, rel=1e-12, abs=1e-12)


def test_polyhedral_matches_oracle_2d():
    pytest.importorskip("scipy")
    h = max_linear(
        (np.array([[1.0, 0.0]]), np.array([[-0.5, 0.75]])),
        MatrixShape(1, 2),
    )
    spec = grid_spec(S12, 1.0, 13, "cube")
    for x0 in (np.array([0.4, 0.1]), np.array([-0.2, -0.5]), np.array([0.05, 0.0])):
        touch = theta_upper(h, x0, spec)
        oracle = _highs_opening(paraboloid._TouchProblem.on_grid(h, x0, spec))
        assert touch.opening == pytest.approx(oracle, rel=1e-12, abs=1e-12)


def test_neg_det_matches_oracle_is_finite():
    # 2 x 2 has slope dimension 4: spot-check feasibility and certificate replay
    spec = grid_spec(S22, 1.0, 9, "cube")
    touch = theta_upper(neg_det(), np.array([0.1, -0.2, 0.05, 0.3]), spec)
    assert np.isfinite(touch.opening)
    assert touch_feasibility_gap(neg_det(), touch, spec) <= 1e-9
    assert abs(replay_opening(neg_det(), touch, spec) - touch.opening) <= 1e-12


def test_polyhedral_zero_opening_when_one_branch_dominates():
    # constraints local to x0: away from the kink the function is linear there
    h = max_linear((np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]])), S12)
    center = MatrixPoint(S12, np.array([0.6, 0.0]))
    local = GridSpec(S12, center, 0.25, 9, "cube")
    touch = theta_upper(h, np.array([0.6, 0.0]), local)
    assert touch.opening <= 1e-12
    near_kink = GridSpec(S12, MatrixPoint.zero(S12), 0.5, 9, "cube")
    touch2 = theta_upper(h, np.array([0.05, 0.0]), near_kink)
    assert touch2.opening > 1.0


def test_monotone_in_constraint_set():
    h = frob_norm(S1)
    x0 = np.array([0.4])
    a_coarse = theta_upper(h, x0, spec1(5)).opening
    a_fine = theta_upper(h, x0, spec1(9)).opening  # node superset of the 5-point grid
    assert a_fine >= a_coarse - 1e-9


def _scaled(handle, s):
    from roconvex.corpus import FunctionHandle

    return FunctionHandle(
        name=f"{handle.name}_x{s:g}",
        shape=handle.shape,
        value=lambda x: s * handle.value(x),
        gradient=None if handle.gradient is None else (lambda x: s * handle.gradient(x)),
        flags=handle.flags,
    )


def test_scaling_covariance():
    spec = grid_spec(S22, 1.0, 9, "cube")
    x0 = np.array([0.2, 0.1, -0.15, 0.0])
    base = theta_upper(abs_entry(0, 0), x0, spec).opening
    for s in (0.5, 2.0):
        a_s = theta_upper(_scaled(abs_entry(0, 0), s), x0, spec).opening
        assert a_s == pytest.approx(s * base, rel=1e-9, abs=1e-9)


def test_field_input_matches_handle_input():
    spec = grid_spec(S22, 1.0, 9, "cube")
    fld = sample(neg_det(), spec)
    x0 = np.array([0.05, 0.1, -0.2, 0.15])
    a_field = theta_upper(fld, x0, spec).opening
    a_handle = theta_upper(neg_det(), x0, spec).opening
    # field evaluation interpolates f(x0); openings agree to interpolation error
    assert a_field == pytest.approx(a_handle, rel=0.05, abs=0.02)


def test_theta_field_deterministic_and_threaded():
    spec = grid_spec(S22, 1.0, 7, "ball")
    a = theta_field(abs_entry(0, 0), spec, count=24, seed=9)
    b = theta_field(abs_entry(0, 0), spec, count=24, seed=9)
    c = theta_field(abs_entry(0, 0), spec, count=24, seed=9, threads=3)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.theta, c.theta)
    assert np.array_equal(a.eval_coords, c.eval_coords)
    d = theta_field(abs_entry(0, 0), spec, count=24, seed=10)
    assert not np.array_equal(a.theta, d.theta)


def test_theta_field_rejects_empty_count():
    spec = grid_spec(S22, 1.0, 7, "ball")
    with pytest.raises(ValueError, match="count >= 1"):
        theta_field(half_norm_sq(1.0), spec, count=0)


def test_quadratic_theta_field_constant():
    spec = grid_spec(S22, 1.0, 9, "cube")
    tf = theta_field(half_norm_sq(1.0), spec, count=30, seed=4)
    assert np.all(np.abs(tf.theta - 1.0) <= 1e-9)


def test_tail_empty_for_quadratic():
    spec = grid_spec(S22, 1.0, 9, "cube")
    tf = theta_field(half_norm_sq(1.0), spec, count=30, seed=4)
    rep = tail_experiment(tf, f_sup=1.0)
    assert np.all(rep.measure == 0.0)
    assert rep.fitted_epsilon is None  # fewer than 3 nonzero measures: fit refused
    assert rep.nonzero_count == 0


@pytest.mark.parametrize("f_sup", [0.0, -1.0, math.nan, math.inf])
def test_tail_rejects_a_scale_that_is_not_positive_and_finite(f_sup):
    tf = theta_field(half_norm_sq(1.0), grid_spec(S22, 1.0, 5, "cube"), count=2, seed=4)
    with pytest.raises(ValueError, match=f"tail_experiment needs a positive, finite f_sup, got {f_sup}"):
        tail_experiment(tf, f_sup)


def test_tail_measures_non_increasing_and_fit():
    spec = grid_spec(S22, 1.0, 9, "ball")
    tf = theta_field(abs_entry(0, 0), spec, count=120, seed=2)
    rep = tail_experiment(tf, f_sup=1.0)
    assert rep.t_grid is TAIL_T_GRID and not TAIL_T_GRID.flags.writeable
    assert np.all(np.diff(rep.measure) <= 0.0)
    assert rep.fitted_epsilon is not None and rep.fitted_epsilon > 0.0


def test_solver_budget_recorded():
    touch = theta_upper(frob_norm(S1), np.array([0.3]), spec1(9))
    assert 1 <= touch.iterations <= paraboloid.MAX_PIVOTS
    assert touch.converged
    assert touch.opening - touch.lower_bound <= GAP_RTOL * max(1.0, touch.opening)
    assert touch.lower_bound == replay_lower_bound(frob_norm(S1), touch, spec1(9))


def _highs_opening(prob) -> float:
    """min t over (p, t) with t >= c_y - B_y.p and t >= 0, in full matrix coordinates."""
    from scipy.optimize import linprog

    n, k = prob.B.shape
    a_ub = np.vstack([np.hstack([-prob.B, -np.ones((n, 1))]), np.append(np.zeros(k), -1.0)])
    b_ub = np.append(-prob.c, 0.0)
    cost = np.append(np.zeros(k), 1.0)
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (k + 1), method="highs")
    assert res.status == 0
    return float(res.fun)


@pytest.mark.parametrize("name", ["abs_x11", "abs_det_2x2", "frob_norm", "neg_det_2x2_sym"])
def test_openings_match_highs_oracle(name):
    pytest.importorskip("scipy")
    h = get_handle(name)
    spec = grid_spec(h.shape, 1.0, 13, "ball")
    rng = np.random.default_rng(7)
    for x0 in ball_samples(h.shape, spec.center.coords, 0.5, 4, rng):
        touch = theta_upper(h, x0, spec)
        oracle = _highs_opening(paraboloid._TouchProblem.on_grid(h, x0, spec))
        assert touch.opening == pytest.approx(oracle, rel=1e-12, abs=1e-12)
        assert touch.converged
        assert touch.opening - touch.lower_bound <= GAP_RTOL * max(1.0, touch.opening)


def test_symmetric_slope_is_exactly_symmetric():
    h = get_handle("neg_det_2x2_sym")
    spec = grid_spec(h.shape, 1.0, 13, "ball")
    fld = sample(h, spec)  # no gradient, so the slope comes from the LP
    touch = theta_upper(fld, np.array([0.1, -0.2, 0.15]), spec)
    assert np.array_equal(touch.slope, touch.slope.T)
    assert touch.converged
    assert replay_lower_bound(fld, touch, spec) == touch.lower_bound


def test_opening_zero_at_cloud_edge_through_the_clamp_row():
    # Every constraint lies on one side of x0, so a plane touches |x| from above
    # and the whole dual weight sits on the row t >= 0.
    touch = theta_upper(frob_norm(S1), np.array([1.0]), spec1(9))
    assert touch.opening == 0.0
    assert touch.weights.size == 0 and touch.lower_bound == 0.0
    assert touch.converged
    assert replay_lower_bound(frob_norm(S1), touch, spec1(9)) == 0.0


def test_replay_lower_bound_rejects_tampered_certificates():
    spec = grid_spec(S22, 1.0, 9, "cube")
    touch = theta_upper(neg_det(), np.array([0.1, -0.2, 0.05, 0.3]), spec)
    assert touch.weights.size > 0
    with pytest.raises(ValueError, match="sub-probability"):
        replay_lower_bound(neg_det(), replace(touch, weights=2.0 * touch.weights), spec)
    with pytest.raises(ValueError, match="not 0"):
        skewed = touch.weights * np.linspace(0.5, 1.0, touch.weights.size)
        replay_lower_bound(neg_det(), replace(touch, weights=skewed), spec)
    with pytest.raises(ValueError, match="not a constraint node"):
        replay_lower_bound(neg_det(), replace(touch, support=touch.support + 0.01), spec)
    nan_weight = touch.weights.copy()
    nan_weight[0] = np.nan
    with pytest.raises(ValueError, match="sub-probability"):
        replay_lower_bound(neg_det(), replace(touch, weights=nan_weight), spec)
    short = touch.weights[:-1], touch.support
    empty = touch.weights, touch.support[:0]
    column = touch.weights[:, None], touch.support
    for weights, support in (short, empty, column):
        with pytest.raises(ValueError, match=r"certificate weights have shape \(.*\), not one per support point"):
            replay_lower_bound(neg_det(), replace(touch, weights=weights, support=support), spec)


def test_pivot_cap_raises(monkeypatch):
    monkeypatch.setattr(paraboloid, "MAX_PIVOTS", 1)
    with pytest.raises(RuntimeError, match="pivots"):
        theta_upper(neg_det(), np.array([0.1, -0.2, 0.05, 0.3]), grid_spec(S22, 1.0, 9, "cube"))


def test_make_grid_cached_per_spec():
    spec = grid_spec(S22, 1.0, 9, "ball")
    grid = make_grid(spec)
    assert make_grid(grid_spec(S22, 1.0, 9, "ball")) is grid
    assert not grid.coords.flags.writeable and not grid.mask.flags.writeable
    assert make_grid(grid_spec(S22, 1.0, 9, "cube")) is not grid


def test_field_on_another_grid_is_rejected():
    fld = sample(frob_norm(S12), grid_spec(S12, 2.0, 9, "ball"))
    other = grid_spec(S12, 1.0, 9, "ball")
    x0 = np.array([0.1, 0.2])
    touch = theta_upper(fld, x0, fld.grid)
    calls = (
        lambda: theta_upper(fld, x0, other),
        lambda: touch_feasibility_gap(fld, touch, other),
        lambda: replay_opening(fld, touch, other),
        lambda: replay_lower_bound(fld, touch, other),
    )
    for call in calls:
        with pytest.raises(ValueError, match="field's own grid"):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_theta_upper_rejects_non_finite_x0(bad):
    # a NaN x0 drops every node from the cloud, which would name the wrong cause;
    # the replay builds the same rows, so it names the same cause
    spec = grid_spec(S22, 1.0, 9, "cube")
    x0 = np.array([0.1, bad, 0.0, 0.0])
    cause = r"the opening needs a finite x0, got \[0.1, (nan|inf), 0.0, 0.0\]"
    with pytest.raises(ValueError, match=cause):
        theta_upper(half_norm_sq(1.0), x0, spec)
    touch = theta_upper(neg_det(), np.array([0.1, -0.2, 0.05, 0.3]), spec)
    with pytest.raises(ValueError, match=cause):
        replay_lower_bound(neg_det(), replace(touch, x0=tuple(x0)), spec)


def _per_call_cloud(f, x0, constraints, support=None):
    """The constraint cloud rebuilt from the grid on every call: the reference for `_cloud`
    over the whole grid (its support replay has the reference `_per_point_scan_replay`)."""
    assert support is None
    if isinstance(f, SampledField) and f.grid != constraints:
        raise ValueError("field constraints must use the field's own grid")
    shape = constraints.shape
    grid = make_grid(constraints)
    coords = grid.coords[grid.mask]
    fy = f.values[grid.mask] if isinstance(f, SampledField) else f.value_at_coords(coords)
    d = (shape.coords_to_matrix(coords) - shape.coords_to_matrix(x0)).reshape(coords.shape[0], -1)
    return coords, fy, d.T, np.sum(d * d, axis=1)  # offsets in `_cloud`'s (rows*cols, K) layout


def _per_pivot_solve_dual(prob):
    """`_solve_dual` with its columns appended per pivot and one solve per system: the reference."""
    A = np.vstack([np.zeros(prob.P.shape[1]), prob.B @ prob.P])
    c = np.concatenate([[0.0], prob.c])
    k = A.shape[1]
    tol = paraboloid.OPT_RTOL * float(np.max(np.abs(c)))
    eye = np.eye(k + 1)
    basis = np.zeros(k + 1, dtype=int)
    M = eye.copy()
    for row in range(k):
        w = np.linalg.solve(M.T, eye[row])
        r = np.abs(A @ w[:k] + w[k])
        j = int(np.argmax(r))
        assert r[j] > 1e-9 * float(np.max(np.abs(A)))
        basis[row] = j
        M[:, row] = np.append(A[j], 1.0)
    pivots = k
    degenerate = 0
    while True:
        lam = np.linalg.solve(M, eye[k])
        pi = np.linalg.solve(M.T, c[basis])
        d = c - A @ pi[:k] - pi[k]
        d[basis] = 0.0
        bland = degenerate >= paraboloid.BLAND_AFTER
        j = int(np.argmax(d > tol)) if bland else int(np.argmax(d))
        if not d[j] > tol:
            break
        u = np.linalg.solve(M, np.append(A[j], 1.0))
        ok = u > 1e-11 * float(np.max(np.abs(u)))
        ratios = np.full(k + 1, np.inf)
        ratios[ok] = np.where(lam[ok] > 1e-13, lam[ok], 0.0) / u[ok]
        ties = np.flatnonzero(ratios == np.min(ratios))
        leave = ties[np.argmin(basis[ties])] if bland else ties[np.argmax(u[ties])]
        degenerate = degenerate + 1 if ratios[leave] == 0.0 else 0
        basis[leave] = j
        M[:, leave] = np.append(A[j], 1.0)
        pivots += 1
    cloud = (basis > 0) & (lam > 0.0)
    return prob.P @ pi[:k], basis[cloud] - 1, lam[cloud], pivots


def _per_point_scan_replay(f, touch, constraints):
    """`replay_lower_bound` over a full `_TouchProblem`, one node scan per support point."""
    prob = paraboloid._TouchProblem.on_grid(f, touch.x0, constraints)
    rows = []
    for point in touch.support:
        hit = np.flatnonzero(np.all(prob.coords == point, axis=1))
        if hit.size == 0:
            raise ValueError(f"support point {point.tolist()} is not a constraint node")
        rows.append(int(hit[0]))
    w = touch.weights
    if np.any(w < 0.0) or np.sum(w) > 1.0 + 1e-12:
        raise ValueError("certificate weights are not a sub-probability vector")
    B = prob.B[rows]
    residual = float(np.max(np.abs(w @ B), initial=0.0))
    if residual > paraboloid.DUAL_RTOL * max(1.0, float(np.max(np.abs(B), initial=0.0))):
        raise ValueError(f"certificate weights leave sum lam B = {residual:.3e}, not 0")
    return float(w @ prob.c[rows])


def _bits(touch, f, spec):
    """Every output of a touch and of its three replays, as exact bytes."""
    floats = [touch.opening, touch.value_at_x0, touch.lower_bound]
    floats.append(paraboloid.replay_opening(f, touch, spec))
    floats.append(paraboloid.replay_lower_bound(f, touch, spec))
    floats.append(paraboloid.touch_feasibility_gap(f, touch, spec))
    arrays = (touch.slope, touch.support, touch.weights, np.array(touch.x0), np.array(floats))
    return [a.tobytes() for a in arrays] + [touch.iterations, touch.converged]


def _handle(name):
    if name == "max_linear_1x2":
        return max_linear((np.array([[1.0, 0.0]]), np.array([[-0.5, 0.75]])), S12)
    return get_handle(name)


def _test_points(h, spec):
    """Random points of the half-radius ball, the center node and an off-center node."""
    nodes = make_grid(spec).cloud[0]
    pts = list(ball_samples(h.shape, spec.center.coords, 0.5, 4, np.random.default_rng(5)))
    return pts + [np.zeros(h.shape.dim), nodes[np.argmin(np.abs(np.linalg.norm(nodes, axis=1) - 0.3))]]


def _assert_matches_references(monkeypatch, name, points, clip, field):
    """Touches and replays equal, bit for bit, those of the per-call references."""
    h = _handle(name)
    spec = grid_spec(h.shape, 1.0, points, clip)
    f = sample(h, spec) if field else h
    pts = _test_points(h, spec)
    shared = [_bits(theta_upper(f, x0, spec), f, spec) for x0 in pts]
    with monkeypatch.context() as m:
        m.setattr(paraboloid, "_cloud", _per_call_cloud)
        m.setattr(paraboloid, "_solve_dual", _per_pivot_solve_dual)
        m.setattr(paraboloid, "replay_lower_bound", _per_point_scan_replay)
        per_call = [_bits(theta_upper(f, x0, spec), f, spec) for x0 in pts]
    assert shared == per_call
    return h, spec, shared


@pytest.mark.parametrize(
    "name, points, clip, field",
    [
        ("max_linear_1x2", 13, "cube", False),
        ("max_linear_1x2", 9, "ball", True),
        ("neg_det_2x2", 13, "ball", False),
        ("neg_det_2x2", 7, "cube", True),
        ("neg_det_2x2_sym", 13, "ball", False),
        ("neg_det_2x2_sym", 9, "cube", True),
        ("frob_norm", 13, "ball", True),
        ("frob_norm", 5, "cube", False),
        ("abs_x11", 11, "ball", False),
        ("abs_det_2x2", 13, "ball", False),
    ],
)
def test_shared_cloud_matches_per_call_cloud_bitwise(monkeypatch, name, points, clip, field):
    h, spec, _ = _assert_matches_references(monkeypatch, name, points, clip, field)
    grid = make_grid(spec)
    coords, mats_t = grid.cloud
    assert grid.cloud is make_grid(spec).cloud
    assert not mats_t.flags.writeable and mats_t.flags.c_contiguous
    mats = h.shape.coords_to_matrix(coords).reshape(coords.shape[0], -1)
    assert mats_t.tobytes() == np.ascontiguousarray(mats.T).tobytes()
    assert not coords.flags.writeable
    assert mats.shape == (grid.coords[grid.mask].shape[0], h.shape.rows * h.shape.cols)


@pytest.mark.parametrize(
    "name, points, clip, field",
    [
        ("abs_det_2x2", 5, "cube", True),
        ("neg_det_2x2_sym", 7, "cube", True),
        ("neg_uv", 13, "ball", False),
        ("max_linear_3", 9, "ball", False),
    ],
)
def test_bland_rule_matches_per_pivot_reference_bitwise(monkeypatch, name, points, clip, field):
    # Bland's rule from the first pivot after the crash basis, so every
    # pivot goes through the tie-breaks of the ratio test.
    monkeypatch.setattr(paraboloid, "BLAND_AFTER", 0)
    h, _, shared = _assert_matches_references(monkeypatch, name, points, clip, field)
    assert min(bits[-2] for bits in shared) > h.shape.dim


@pytest.mark.parametrize("name, field", [("neg_det_2x2", False), ("neg_det_2x2_sym", True)])
def test_replay_lower_bound_rejects_what_the_node_scan_rejects(name, field):
    h = get_handle(name)
    spec = grid_spec(h.shape, 1.0, 7, "ball")
    f = sample(h, spec) if field else h
    grid = make_grid(spec)
    x0 = _test_points(h, spec)[-1]  # a node, so it is not in its own cloud
    touch = theta_upper(f, x0, spec)
    assert touch.support.shape[0] > 0
    off_mask = grid.coords[np.flatnonzero(~grid.mask)[0]]
    near = touch.support[0] + 1e-12
    for point in (x0, off_mask, near, np.full(h.shape.dim, 1e300), np.full(h.shape.dim, np.nan)):
        support = touch.support.copy()
        support[-1] = point
        tampered = replace(touch, support=support)
        for replay in (replay_lower_bound, _per_point_scan_replay):
            with pytest.raises(ValueError, match="is not a constraint node"):
                replay(f, tampered, spec)
    assert replay_lower_bound(f, touch, spec) == _per_point_scan_replay(f, touch, spec) == touch.lower_bound


def test_node_values_are_cached_per_handle_object(monkeypatch):
    # two handles with one name on one grid, used in turn: each reads its own node values
    spec = grid_spec(S22, 1.0, 7, "ball")
    ells = (np.eye(2), np.array([[0.5, -1.0], [2.0, 0.25]]))
    handles = [linear(ell, name="linear") for ell in ells]
    pts = _test_points(handles[0], spec)
    cached = [_bits(theta_upper(h, x0, spec), h, spec) for x0 in pts for h in handles]
    with monkeypatch.context() as m:
        m.setattr(paraboloid, "_cloud", _per_call_cloud)
        m.setattr(paraboloid, "replay_lower_bound", _per_point_scan_replay)
        per_call = [_bits(theta_upper(h, x0, spec), h, spec) for x0 in pts for h in handles]
    assert cached == per_call
    for h, ell in zip(handles, ells):
        touch = theta_upper(h, pts[0], spec)
        assert touch.opening <= 1e-12 and np.array_equal(touch.slope, ell)


def test_node_values_are_read_only_and_released_with_their_handle_or_grid():
    # the grid keeps a handle's values while both live: no count bounds them but make_grid's grids
    spec = grid_spec(S22, 1.0, 7, "ball")
    x0 = np.array([0.1, -0.2, 0.05, 0.3])
    first = linear(np.eye(2), name="linear")
    values = make_grid(spec).cloud_values(first)
    assert not values.flags.writeable and make_grid(spec).cloud_values(first) is values
    assert make_grid(spec).cloud_values(replace(first)) is values  # an equal handle shares them
    assert paraboloid._cloud(first, x0, spec)[1] is values
    assert np.array_equal(sample(first, spec).valid_values(), values)
    refs = weakref.ref(first), weakref.ref(values)
    del first, values
    gc.collect()
    assert refs[0]() is None and refs[1]() is None  # nothing else held the handle or its values
    h = linear(np.full((2, 2), 2.0), name="linear")
    ref = weakref.ref(make_grid(spec).cloud_values(h))
    make_grid.cache_clear()
    gc.collect()
    assert ref() is None  # gone with its grid, while the handle lives
    fld = sample(neg_det(), spec)
    assert fld.valid_values() is fld.valid_values() and not fld.valid_values().flags.writeable
    assert make_grid(spec).cloud_values(fld) is fld.valid_values()


def _counted(h: FunctionHandle) -> tuple[FunctionHandle, list[int]]:
    """h, and the number of points of each of its evaluations, in order."""
    calls: list[int] = []

    def value(x):
        calls.append(int(np.prod(x.shape[:-2])))
        return h.value(x)

    return replace(h, value=value), calls


def test_a_handle_is_read_once_per_grid_by_openings_and_sample():
    spec = grid_spec(S22, 1.0, 7, "ball")
    nodes = int(make_grid(spec).mask.sum())
    x0 = np.array([0.1, -0.2, 0.05, 0.3])
    h, calls = _counted(neg_det())
    touch = theta_upper(h, x0, spec)
    assert calls == [nodes, 1]  # the nodes, then x0
    fld = sample(h, spec)
    assert calls == [nodes, 1]
    assert fld.valid_values().tobytes() == make_grid(spec).cloud_values(h).tobytes()
    for replay in (replay_opening, replay_lower_bound, touch_feasibility_gap):
        replay(h, touch, spec)
    assert calls == [nodes, 1, 1, 1]  # x0 once for each replay that reads f(x0)
    h2, calls2 = _counted(neg_det())
    sample(h2, spec)
    theta_upper(h2, x0, spec)
    assert calls2 == [nodes, 1]


def _neg_inf_on_the_unit_sphere() -> FunctionHandle:
    """|x|^2, but -inf where |x| = 1: not finite at the sphere nodes of a unit-ball grid."""

    def value(x):
        r = np.sum(x * x, axis=(-2, -1))
        return np.where(r >= 1.0 - 1e-12, -np.inf, r)

    return FunctionHandle("neg_inf_on_sphere", S22, value)


def test_a_handle_not_finite_at_a_constraint_node_fails_by_name():
    spec = grid_spec(S22, 1.0, 5, "ball")
    x0 = np.array([0.1, 0.2, -0.1, 0.05])
    bad = _neg_inf_on_the_unit_sphere()
    touch = theta_upper(half_norm_sq(2.0), x0, spec)
    cause = r"non-finite value of neg_inf_on_sphere at node \[-1\. +0\. +0\. +0\.\]"
    with pytest.raises(ValueError, match=cause):
        theta_upper(bad, x0, spec)
    for replay in (replay_opening, replay_lower_bound, touch_feasibility_gap):
        with pytest.raises(ValueError, match=cause):
            replay(bad, touch, spec)
    with pytest.raises(ValueError, match=cause):
        sample(bad, spec)


def _sub_problem(full, f, spec, r):
    """The opening's problem over the rows of the grid's `_cloud` within r of x0,
    and which rows of `full`, the problem over the whole grid, those are."""
    coords, fy, d, q = paraboloid._cloud(f, full.x0, spec)
    near = q <= r * r
    cut = 1e-9 * spec.spacing
    cloud = (coords[near], fy[near], d[:, near], q[near])
    return paraboloid._TouchProblem(full.x0, full.fx0, cloud, spec.shape, cut), near[q > cut**2]


@pytest.mark.parametrize(
    "name, points, clip, field",
    [
        ("max_linear_1x2", 13, "cube", False),
        ("neg_det_2x2", 9, "ball", True),
        ("neg_det_2x2_sym", 9, "cube", False),
        ("abs_x11", 11, "ball", False),
    ],
)
def test_sub_cloud_rows_keep_their_bits(name, points, clip, field):
    h = _handle(name)
    spec = grid_spec(h.shape, 1.0, points, clip)
    f = sample(h, spec) if field else h
    for x0 in _test_points(h, spec):
        full = paraboloid._TouchProblem.on_grid(f, x0, spec)
        sub, rows = _sub_problem(full, f, spec, 0.5)
        assert 0 < rows.sum() < rows.size
        assert sub.coords.tobytes() == full.coords[rows].tobytes()
        assert sub.c.tobytes() == full.c[rows].tobytes()
        assert sub.B.tobytes() == full.B[rows].tobytes()


@pytest.mark.parametrize("name, points, clip", [("max_linear_1x2", 13, "cube"), ("abs_x11", 11, "ball")])
def test_sub_cloud_openings_match_highs_oracle(name, points, clip):
    pytest.importorskip("scipy")
    h = _handle(name)
    spec = grid_spec(h.shape, 1.0, points, clip)
    for x0 in _test_points(h, spec):
        sub, _ = _sub_problem(paraboloid._TouchProblem.on_grid(h, x0, spec), h, spec, 0.5)
        p, rows, weights, _ = paraboloid._solve_dual(sub)
        opening = sub.opening(p, "LP slope")
        assert opening == pytest.approx(_highs_opening(sub), rel=1e-12, abs=1e-12)
        assert paraboloid._certified(opening, float(weights @ sub.c[rows]))


def _conditioned(rng, m, cond):
    """A seeded m x m matrix with condition number cond."""
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (u * np.logspace(0.0, -math.log10(cond), m)) @ v.T


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_direct_gesv_matches_np_linalg_solve_bitwise(m):
    # the solver's kernels against the public wrapper, on the layouts the solver
    # passes: C-order bases, their transposed views and (2, m, m) stacks
    rng = np.random.default_rng(38 + m)
    for cond in np.logspace(0.0, 12.0, 25):
        a = _conditioned(rng, m, cond)
        for mat in (a, a.T):
            b = rng.standard_normal(m)
            assert paraboloid._solve1(mat, b).tobytes() == np.linalg.solve(mat, b).tobytes()
        systems, rhs = np.stack([a, a.T]), rng.standard_normal((2, m, 1))
        assert paraboloid._solve(systems, rhs).tobytes() == np.linalg.solve(systems, rhs).tobytes()


@pytest.mark.parametrize("kernel", ["_solve1", "_solve"])
def test_a_singular_basis_system_raises_by_name(monkeypatch, kernel):
    # Alone, the kernel answers a singular system with NaN; inside the solve it is refused.
    with np.errstate(invalid="ignore"):
        assert np.isnan(paraboloid._solve1(np.zeros((3, 3)), np.ones(3))).all()
    real = getattr(paraboloid, kernel)
    monkeypatch.setattr(paraboloid, kernel, lambda a, b: real(np.zeros_like(a), b))
    cause = r"opening LP at x0 = \[0.1, -0.2, 0.05, 0.3\] has a singular or non-finite basis system"
    with pytest.raises(np.linalg.LinAlgError, match=cause):
        theta_upper(neg_det(), np.array([0.1, -0.2, 0.05, 0.3]), grid_spec(S22, 1.0, 7, "ball"))


def _nan_gradient_handle():
    """x11 with a gradient that returns NaN: the LP finds the slope, the gradient is bad input."""
    from roconvex.corpus import FunctionHandle

    h = get_handle("neg_det_2x2")
    return FunctionHandle(
        name="x11_nan_gradient",
        shape=h.shape,
        value=lambda x: x[..., 0, 0],
        gradient=lambda x: np.full(np.shape(x), np.nan),
        flags=h.flags,
    )


def test_a_non_finite_gradient_or_slope_never_reads_as_opening_zero():
    h = _nan_gradient_handle()
    spec = grid_spec(S22, 1.0, 7, "ball")
    x0 = np.array([0.1, -0.2, 0.05, 0.3])
    with pytest.raises(ValueError, match=r"the gradient at x0 = \[0.1, -0.2, 0.05, 0.3\] is not finite"):
        theta_upper(h, x0, spec)
    touch = theta_upper(neg_det(), x0, spec)
    for bad in (np.nan, np.inf):
        slope = touch.slope.copy()
        slope[1, 0] = bad
        for replay in (replay_opening, touch_feasibility_gap):
            with pytest.raises(ValueError, match=r"the touch's slope at x0 = \[0.1, -0.2, 0.05, 0.3\] is not finite"):
                replay(neg_det(), replace(touch, slope=slope), spec)
    for field, what in (("opening", "opening"), ("value_at_x0", "value at x0")):
        for bad in (np.nan, -np.inf):
            cause = rf"the touch's {what} at x0 = \[0.1, -0.2, 0.05, 0.3\] is not finite: {bad}"
            with pytest.raises(ValueError, match=cause):
                touch_feasibility_gap(neg_det(), replace(touch, **{field: bad}), spec)


def test_a_non_finite_objective_is_refused():
    # finite slope, but a constraint value of inf: the opening would be inf
    spec = grid_spec(S22, 1.0, 7, "ball")
    x0 = np.array([0.1, -0.2, 0.05, 0.3])
    prob = paraboloid._TouchProblem.on_grid(neg_det(), x0, spec)
    prob.c[3] = np.inf
    with pytest.raises(ValueError, match=r"the opening at x0 = \[0.1, -0.2, 0.05, 0.3\] is inf at the LP slope"):
        prob.opening(np.zeros(4), "LP slope")


def test_the_replays_refuse_a_bad_x0_or_slope_shape_by_name():
    spec = grid_spec(S22, 1.0, 9, "cube")
    touch = theta_upper(neg_det(), np.array([0.1, -0.2, 0.05, 0.3]), spec)
    nan_x0 = replace(touch, x0=(0.1, np.nan, 0.0, 0.0))
    for replay in (replay_opening, replay_lower_bound, touch_feasibility_gap):
        with pytest.raises(ValueError, match=r"the opening needs a finite x0, got \[0.1, nan, 0.0, 0.0\]"):
            replay(neg_det(), nan_x0, spec)
    for slope in (touch.slope.reshape(-1), touch.slope.T[:1], touch.slope[None]):
        flat = replace(touch, slope=slope)
        for replay in (replay_opening, touch_feasibility_gap):
            with pytest.raises(ValueError, match=r"the touch's slope has shape \(.*\), not \(2, 2\)"):
                replay(neg_det(), flat, spec)
