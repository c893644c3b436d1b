"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL table; the
suite is also a normal pytest module, so any red criterion fails the build.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from roconvex.cli import ExperimentConfig, run
from roconvex.convex1d import (
    AtomicMeasure1D,
    PLConvex1D,
    convex_taylor_check,
    fubini_tail_experiment,
    l1_ball_containment,
    random_pl_convex,
    weak_one_one_check,
)
from roconvex.core import MatrixShape, ball_samples, grid_spec, gradient_field, loglog_fit, sample
from roconvex.corpus import (
    FunctionHandle,
    abs_det,
    abs_entry,
    corpus,
    half_norm_sq,
    neg_det,
    neg_half_norm_sq,
    neg_uv,
)
from roconvex.envelope import (
    cone_convolutions,
    envelope_idempotence_gap,
    envelope_lipschitz_violation,
    sandwich_check,
    second_order_remainder,
)
from roconvex.lowerbound import empirical_majorant, lemma_constant, lower_bound_certify
from roconvex.paraboloid import tail_experiment, theta_field, theta_upper
from roconvex.verify import SegmentSampler, rank_one_convexity_check, separate_convexity_check

S22 = MatrixShape(2, 2)
S12 = MatrixShape(1, 2)

_RESULTS: list[tuple[int, str, bool]] = []


def _report(number: int, description: str, ok: bool) -> None:
    _RESULTS.append((number, description, ok))
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}  {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_theta_exact_on_quadratics():
    start = time.monotonic()
    spec = grid_spec(S22, 1.0, 9, "cube")
    worst = 0.0
    for a0 in (0.5, 1.0, 2.0):
        touch = theta_upper(half_norm_sq(a0), np.zeros(4), spec)
        worst = max(worst, abs(touch.opening - a0) / a0)
    elapsed = time.monotonic() - start
    _report(
        1,
        f"quadratic openings within 2% (worst {worst:.2e}) in {elapsed:.1f}s < 60s",
        worst <= 0.02 and elapsed < 60.0,
    )


def test_criterion_02_lower_bound_certificates():
    rng = np.random.default_rng(1234)
    samples = ball_samples(S22, np.zeros(4), 1.0, 10_000, rng)
    assert lemma_constant(2) == 1
    ok = True
    worst = np.inf
    for h in corpus():
        if not h.flags.rank_one_convex or h.shape != S22:
            continue
        majorant = empirical_majorant(h, np.zeros(4), samples)
        cert = lower_bound_certify(h, np.zeros(4), majorant, samples, tol=1e-6)
        ok &= cert.passed
        worst = min(worst, cert.min_slack)
    control = neg_half_norm_sq()
    majorant = empirical_majorant(control, np.zeros(4), samples)
    cert = lower_bound_certify(control, np.zeros(4), majorant, samples, tol=1e-6)
    ok &= not cert.passed
    _report(
        2,
        f"lower-bound certificates: flagged min_slack >= -1e-6 (worst {worst:.2e}), control fails",
        bool(ok),
    )


def test_criterion_03_envelope_sandwich_all_handles():
    worst_order = worst_lip = worst_idem = 0.0
    for h in corpus():
        spec = grid_spec(h.shape, 0.75, 7, "cube")
        fld = sample(h, spec)
        L = 4.0 * max(1.0, fld.sup_abs())
        for src in gradient_field(fld):
            pair = cone_convolutions(src, L)
            worst_order = max(worst_order, sandwich_check(pair).global_order_violation)
            worst_lip = max(
                worst_lip,
                envelope_lipschitz_violation(pair.w_minus, L),
                envelope_lipschitz_violation(pair.w_plus, L),
            )
            worst_idem = max(worst_idem, envelope_idempotence_gap(pair))
    ok = worst_order <= 1e-12 and worst_lip <= 1e-12 and worst_idem <= 1e-12
    _report(
        3,
        "envelope order exact, L-Lipschitz and idempotent to 1e-12 "
        f"(order {worst_order:.1e}, lip {worst_lip:.1e}, idem {worst_idem:.1e})",
        ok,
    )


def test_criterion_04_weak_one_one():
    unit = AtomicMeasure1D(np.array([0.0]), np.array([1.0]))
    unit_table = weak_one_one_check([unit], [1.0, 2.0, 4.0, 8.0])
    exact = bool(np.all(unit_table["measure"] * unit_table["t"] == 2.0))
    rng = np.random.default_rng(77)
    t_grid = np.exp(np.linspace(np.log(0.5), np.log(5.0), 9))
    measures = []
    for _ in range(100):
        k = int(rng.integers(1, 6))
        locs = np.sort(rng.uniform(-2.0, 2.0, size=k))
        locs = locs[np.concatenate([[True], np.diff(locs) > 1e-6])]
        measures.append(AtomicMeasure1D(locs, rng.uniform(0.1, 3.0, size=locs.size)))
    bound_ok = bool(np.all(weak_one_one_check(measures, t_grid)["ok"]))
    _report(4, "weak (1,1): unit atom exact, constant-2 bound on 100 random measures", exact and bound_ok)


def test_criterion_05_convex_taylor_chain():
    h_grid = np.linspace(0.05, 1.0, 20)
    absf = PLConvex1D(np.array([0.0]), np.array([-1.0, 1.0]))
    shifted = PLConvex1D(np.array([0.5]), np.array([0.0, 1.0]))
    rng = np.random.default_rng(55)
    functions = [absf, shifted] + [random_pl_convex(rng, atom_at_zero=(k % 3 == 0)) for k in range(50)]
    table = convex_taylor_check(functions, h_grid)
    ok = np.all(table["ok"]) and np.all(table["vacuous"][0])
    ok &= all(np.all(table["vacuous"][2 + k]) for k in range(0, 50, 3))
    _report(5, "convex Taylor chain on |x|, shifted kink, 50 random PL functions", bool(ok))


def test_criterion_06_l1_geometry():
    rep = l1_ball_containment(4)
    ok = rep.max_ratio <= 2.0 + 1e-12 and rep.witness_ratio == pytest.approx(2.0, abs=1e-12)
    _report(6, f"l1/l2 ratio on R^4 bounded by 2 (max {rep.max_ratio:.12f}), witness attains it", ok)


def test_criterion_07_tail_decay():
    start = time.monotonic()
    t_grid = np.exp(np.linspace(np.log(7.0), np.log(80.0), 8))
    fub = fubini_tail_experiment(
        abs_entry(0, 0, S12), t_grid, lines_per_direction=48, seed=31, probe_count=6
    )
    slope_ok = fub.fitted_slope is not None and abs(fub.fitted_slope + 1.0) <= 0.1

    constraints = grid_spec(S22, 1.0, 13, "ball")
    tf = theta_field(abs_entry(0, 0), constraints, count=500, seed=31)
    rep = tail_experiment(tf, f_sup=1.0)
    eps_ok = rep.fitted_epsilon is not None and rep.fitted_epsilon >= 0.9
    mono_ok = bool(np.all(np.diff(rep.measure) <= 0.0))
    elapsed = time.monotonic() - start
    _report(
        7,
        f"tail decay: line slope {fub.fitted_slope:+.3f} within -1 +- 0.1, "
        f"opening tail epsilon {rep.fitted_epsilon:.2f} >= 0.9, monotone, {elapsed:.0f}s < 600s",
        slope_ok and eps_ok and mono_ok and elapsed < 600.0,
    )


def test_criterion_08_verifier_discrimination():
    sampler = SegmentSampler(direction_count=16, step_count=12, seed=2024)
    v_negdet = rank_one_convexity_check(neg_det(), sampler=sampler).worst_violation
    v_absdet = rank_one_convexity_check(abs_det(), sampler=sampler).worst_violation
    control = rank_one_convexity_check(neg_half_norm_sq(), sampler=sampler)
    v_sep = separate_convexity_check(neg_uv(), sampler=sampler).worst_violation
    ok = (
        v_negdet <= 1e-9
        and v_absdet <= 1e-9
        and control.worst_violation >= 0.1
        and control.witness is not None
        and v_sep <= 1e-9
    )
    _report(
        8,
        "verifier: -det/|det| pass at 1e-9, control violates by "
        f"{control.worst_violation:.3f} >= 0.1 with witness, -uv separately convex",
        bool(ok),
    )


def test_criterion_09_second_order_remainder():
    quad = second_order_remainder(half_norm_sq(1.0), np.zeros(4), [0.4, 0.2, 0.1, 0.05])
    quad_ok = bool(np.all(quad.ratios <= 1e-12))
    cubic = FunctionHandle(
        "cube_x11",
        S22,
        value=lambda x: x[..., 0, 0] ** 3,
        gradient=lambda x: _cubic_grad(x),
    )
    prof = second_order_remainder(cubic, np.zeros(4), [0.4, 0.2, 0.1, 0.05, 0.025])
    fit = loglog_fit(prof.radii, prof.ratios, 2)
    slope = None if fit is None else fit[0]
    cubic_ok = slope is not None and abs(slope - 1.0) <= 0.2
    kink = second_order_remainder(abs_entry(0, 0), np.zeros(4), [0.4, 0.2, 0.1, 0.05])
    kink_ok = not kink.second_order_differentiable
    _report(
        9,
        f"remainders: quadratic 0, cubic log-log slope {slope:+.3f} in 1 +- 0.2, kink flagged",
        quad_ok and cubic_ok and kink_ok,
    )


def _cubic_grad(x):
    g = np.zeros_like(x)
    g[..., 0, 0] = 3.0 * x[..., 0, 0] ** 2
    return g


def test_criterion_10_determinism(tmp_path):
    def sweep(out: Path, threads: int) -> dict:
        cfg = ExperimentConfig(experiment="all", seed=4242, out_dir=str(out), threads=threads)
        manifest = run(cfg)
        return manifest.to_dict()

    m1 = sweep(tmp_path / "run1", 1)
    m2 = sweep(tmp_path / "run2", 1)
    m3 = sweep(tmp_path / "run3", 2)
    m4 = sweep(tmp_path / "run4", 2)
    same_artifacts = m1["artifacts"] == m2["artifacts"] == m3["artifacts"] == m4["artifacts"]
    same_checks = m1["checks"] == m2["checks"] == m3["checks"] == m4["checks"]
    byte_identical = True
    for rel in m1["artifacts"]:
        a, b, c, d = ((tmp_path / run / rel).read_bytes() for run in ("run1", "run2", "run3", "run4"))
        byte_identical &= a == b == c == d
    all_pass = all(m1["checks"].values())
    _report(
        10,
        f"determinism: {len(m1['artifacts'])} artifacts byte-identical across reruns at 1 and at 2 threads",
        same_artifacts and same_checks and byte_identical and all_pass,
    )


def test_zz_summary():
    print()
    print("=" * 72)
    for number, description, ok in sorted(_RESULTS):
        print(f"  criterion {number:2d}: {'PASS' if ok else 'FAIL'}  {description}")
    print("=" * 72)
    assert len(_RESULTS) == 10
    assert all(ok for _, _, ok in _RESULTS)
