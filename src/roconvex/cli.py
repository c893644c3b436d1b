"""Configuration-driven experiment runner.

Subcommands: verify | theta | tail | envelope | lemma | appendix | all |
list-corpus. Each pipeline writes its data files and returns one
`StageRecord` per stage it ran; `run` then writes one summary per record and
one manifest per run, which echoes the keys each stage read and hashes
every artifact. The same configuration and seed reproduce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import convex1d, envelope, fieldio, lowerbound, paraboloid, verify
from .core import MatrixShape, ball_samples, grid_spec, gradient_field, sample, seeded_rng
from .corpus import FunctionHandle, abs_entry, corpus, get_handle

ANALYTIC_TOL = 1e-9  # verdict tolerance of the analytic convexity and operator checks
FIELD_TOL_SCALE = 1.0  # field checks pass at K h^2 with K = 1; measured margins
# on the corpus are <= 0.24 h^2 for flagged functions and >= 9 h^2 for controls.


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    function: str = "neg_det_2x2"
    grid_points: int = 9
    radius: float = 1.0
    seed: int = 0
    out_dir: str = "out"
    eval_count: int = 120
    sample_count: int = 10_000
    lines_per_direction: int = 32
    threads: int = 1


def load_config(path: str | Path) -> dict:
    """Flat key-value JSON config; unknown keys and wrongly typed values are rejected."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("config file must hold a flat JSON object")
    valid = set(ExperimentConfig.__dataclass_fields__) - {"experiment"}  # the subcommand sets it
    unknown = set(data) - valid
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}; valid: {sorted(valid)}")
    hints = typing.get_type_hints(ExperimentConfig)
    for key, value in data.items():
        kinds = typing.get_args(hints[key]) or (hints[key],)
        if float in kinds:  # a JSON number without a fraction parses as int
            kinds += (int,)
        # bool is a subclass of int, but JSON true/false is neither a count nor a number
        if isinstance(value, bool) or not isinstance(value, kinds):
            expected = ExperimentConfig.__dataclass_fields__[key].type
            raise ValueError(f"config key {key!r} must be {expected}, got {json.dumps(value)}")
    return data


@dataclass(frozen=True)
class StageRecord:
    """One stage's outcome: its summary, checks and data files; `function` is None for appendix."""

    experiment: str
    function: str | None
    config: ExperimentConfig
    summary: dict
    checks: dict
    artifacts: list[Path]

    @property
    def label(self) -> str:
        return self.experiment if self.function is None else f"{self.experiment}[{self.function}]"


@dataclass
class RunManifest:
    experiment: str
    config: dict
    stages: dict
    artifacts: dict
    checks: dict
    versions: dict

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return asdict(self) | {"passed": self.passed}


def _versions() -> dict:
    from . import __version__

    return {"roconvex": __version__, "numpy": np.__version__}


def _handle(cfg: ExperimentConfig) -> FunctionHandle:
    try:
        return get_handle(cfg.function)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from exc


def _write(cfg: ExperimentConfig, records: list[StageRecord]) -> RunManifest:
    """Write each record's summary, then the run's one manifest over every artifact."""
    root = Path(cfg.out_dir)
    stages, artifacts, checks = {}, {}, {}
    for rec in records:
        name = "summary.json" if rec.function is None else f"{rec.function}_summary.json"
        summary = fieldio.write_json(
            {"summary": rec.summary, "checks": rec.checks}, root / rec.experiment / name
        )
        for path in rec.artifacts + [summary]:
            artifacts[str(path.relative_to(root))] = fieldio.sha256_file(path)
        checks.update({f"{rec.label}.{k}": v for k, v in rec.checks.items()})
        stages[rec.label] = {k: getattr(rec.config, k) for k in READS[rec.experiment]}
    config = {"experiment": cfg.experiment} | {k: getattr(cfg, k) for k in READS[cfg.experiment]}
    manifest = RunManifest(cfg.experiment, config, stages, artifacts, checks, _versions())
    fieldio.write_json(manifest.to_dict(), root / cfg.experiment / "manifest.json")
    return manifest


# --- pipelines -------------------------------------------------------------


def run_verify(cfg: ExperimentConfig) -> StageRecord:
    h = _handle(cfg)
    sampler = verify.SegmentSampler(direction_count=12, step_count=10, seed=cfg.seed)
    domain = grid_spec(h.shape, cfg.radius, cfg.grid_points, "cube")
    fld = sample(h, domain)  # first, so a non-finite value fails before any check runs
    rows = []
    checks: dict[str, bool] = {}

    r1c = verify.rank_one_convexity_check(h, domain, sampler)
    ok = r1c.passes(ANALYTIC_TOL) == h.flags.rank_one_convex
    checks["rank_one_convexity_matches_flag"] = ok
    rows.append(("rank_one_convexity", r1c.worst_violation, ANALYTIC_TOL, h.flags.rank_one_convex, ok))

    sep = verify.separate_convexity_check(h, domain, sampler)
    ok = sep.passes(ANALYTIC_TOL) == h.flags.separately_convex
    checks["separate_convexity_matches_flag"] = ok
    rows.append(("separate_convexity", sep.worst_violation, ANALYTIC_TOL, h.flags.separately_convex, ok))

    if h.shape.symmetric:
        node_rep = verify.symmetric_operator_check(fld)
        op_name = "symmetric_operator_min"
    else:
        node_rep = verify.viscosity_subharmonic_check(fld)
        op_name = "discrete_laplacian_min"
    ok = (node_rep.min_value >= -ANALYTIC_TOL) == h.flags.separately_convex
    checks["subharmonicity_matches_flag"] = ok
    rows.append((op_name, node_rep.min_value, -ANALYTIC_TOL, h.flags.separately_convex, ok))

    mol = verify.mollify(fld)
    field_tol = FIELD_TOL_SCALE * domain.spacing**2
    molrep = verify.rank_one_convexity_check(mol, sampler=sampler)
    ok = molrep.passes(field_tol) == h.flags.rank_one_convex
    checks["mollified_convexity_matches_flag"] = ok
    rows.append(("mollified_rank_one_convexity", molrep.worst_violation, field_tol, h.flags.rank_one_convex, ok))

    out = Path(cfg.out_dir) / "verify"
    csv = fieldio.write_csv(
        out / f"{h.name}.csv",
        ("check", "value", "threshold", "expected_pass", "check_ok"),
        rows,
    )
    report_json = fieldio.write_json(
        {
            "function": h.name,
            "flags": asdict(h.flags),
            "rank_one": asdict(r1c) | {"tolerance": ANALYTIC_TOL},
            "separate": asdict(sep) | {"tolerance": ANALYTIC_TOL},
            "node_operator": asdict(node_rep),
            "mollified": asdict(molrep) | {"tolerance": field_tol},
        },
        out / f"{h.name}_reports.json",
    )
    summary = {"function": h.name, "rows": [list(r) for r in rows]}
    return StageRecord("verify", h.name, cfg, summary, checks, [csv, report_json])


def run_theta(cfg: ExperimentConfig) -> StageRecord:
    h = _handle(cfg)
    constraints = grid_spec(h.shape, cfg.radius, cfg.grid_points, "ball")
    tf = paraboloid.theta_field(
        h, constraints, count=cfg.eval_count, seed=cfg.seed, threads=cfg.threads
    )
    rows = [
        tuple(tf.eval_coords[k]) + (tf.theta[k], int(tf.converged[k]))
        for k in range(tf.count)
    ]
    out = Path(cfg.out_dir) / "theta"
    csv = fieldio.write_csv(
        out / f"{h.name}.csv",
        h.shape.coord_names() + ("theta", "converged"),
        rows,
    )
    # Spot-check certificates; each gap is scored against its tolerance, and
    # the point with the largest ratio is the run's witness.
    tols = {"replay": 1e-12, "feasibility": 1e-9, "lower_bound": 1e-12}
    spot = {}
    for k in range(0, tf.count, max(1, tf.count // 8)):
        touch = tf.touches[k]
        spot[k] = {
            "replay": abs(paraboloid.replay_opening(h, touch, constraints) - touch.opening),
            "feasibility": paraboloid.touch_feasibility_gap(h, touch, constraints),
            "lower_bound": abs(
                paraboloid.replay_lower_bound(h, touch, constraints) - touch.lower_bound
            ),
        }
    worst = {name: max(gaps[name] for gaps in spot.values()) for name in tols}
    witness = max(spot, key=lambda k: max(spot[k][name] / tols[name] for name in tols))
    pivots = np.array([t.iterations for t in tf.touches])
    checks = {
        "all_solves_converged": bool(np.all(tf.converged)),
        "certificate_replay_exact": worst["replay"] <= tols["replay"],
        "feasible_on_constraints": worst["feasibility"] <= tols["feasibility"],
        "lower_bound_replays": worst["lower_bound"] <= tols["lower_bound"],
    }
    summary = {
        "function": h.name,
        "count": tf.count,
        "theta_min": float(np.min(tf.theta)),
        "theta_max": float(np.max(tf.theta)),
        "theta_median": float(np.median(tf.theta)),
        "replay_gap": float(worst["replay"]),
        "feasibility_gap": float(worst["feasibility"]),
        "lower_bound_replay_gap": float(worst["lower_bound"]),
        "duality_gap_max": float(max(t.opening - t.lower_bound for t in tf.touches)),
        "pivots_max": int(np.max(pivots)),
        "pivots_mean": float(np.mean(pivots)),
        "witness": [float(v) for v in tf.eval_coords[witness]],
    }
    return StageRecord("theta", h.name, cfg, summary, checks, [csv])


def run_tail(cfg: ExperimentConfig) -> StageRecord:
    h = _handle(cfg)
    constraints = grid_spec(h.shape, cfg.radius, cfg.grid_points, "ball")
    tf = paraboloid.theta_field(
        h, constraints, count=cfg.eval_count, seed=cfg.seed, threads=cfg.threads
    )
    grid_vals = sample(h, constraints)
    f_sup = grid_vals.sup_abs()
    rep = paraboloid.tail_experiment(tf, f_sup)
    out = Path(cfg.out_dir) / "tail"
    csv = fieldio.write_csv(out / f"{h.name}.csv", ("t", "measure"), rep.rows())
    checks = {"measure_non_increasing": bool(np.all(np.diff(rep.measure) <= 0.0))}
    summary = asdict(rep) | {"function": h.name, "f_sup": f_sup}
    return StageRecord("tail", h.name, cfg, summary, checks, [csv])


def run_envelope(cfg: ExperimentConfig) -> StageRecord:
    h = _handle(cfg)
    spec = grid_spec(h.shape, 0.75 * cfg.radius, cfg.grid_points, "cube")
    fld = sample(h, spec)
    f_sup = fld.sup_abs()
    L = 4.0 * max(1.0, f_sup)
    components = gradient_field(fld)
    out = Path(cfg.out_dir) / "envelope"
    rows = []
    artifacts = []
    checks: dict[str, bool] = {}
    names = h.shape.coord_names()
    worst_order = worst_lip = worst_idem = 0.0
    for k, src in enumerate(components):
        pair = envelope.cone_convolutions(src, L)
        sw = envelope.sandwich_check(pair)
        lip = max(
            envelope.envelope_lipschitz_violation(pair.w_minus, L),
            envelope.envelope_lipschitz_violation(pair.w_plus, L),
        )
        idem = envelope.envelope_idempotence_gap(pair)
        worst_order = max(worst_order, sw.global_order_violation)
        worst_lip = max(worst_lip, lip)
        worst_idem = max(worst_idem, idem)
        rows.append((names[k], sw.global_order_violation, lip, idem))
        artifacts.append(fieldio.write_field(pair.w_minus, out / f"{h.name}_{names[k]}_lower.csv"))
        artifacts.append(fieldio.write_field(pair.w_plus, out / f"{h.name}_{names[k]}_upper.csv"))
    checks["order_exact"] = worst_order <= 1e-12
    checks["lipschitz_within_tol"] = worst_lip <= 1e-12
    checks["idempotent"] = worst_idem <= 1e-12

    prof = envelope.second_order_remainder(
        h, np.zeros(h.shape.dim), [0.4, 0.2, 0.1, 0.05], seed=cfg.seed
    )
    artifacts.append(
        fieldio.write_csv(
            out / f"{h.name}_remainder.csv",
            ("radius", "ratio"),
            list(zip(prof.radii, prof.ratios)),
        )
    )
    artifacts.append(
        fieldio.write_csv(out / f"{h.name}.csv", ("component", "order_violation", "lipschitz_violation", "idempotence_gap"), rows)
    )
    summary = {
        "function": h.name,
        "L": L,
        "worst_order_violation": worst_order,
        "worst_lipschitz_violation": worst_lip,
        "worst_idempotence_gap": worst_idem,
        "remainder_ratios": prof.ratios.tolist(),
        "second_order_differentiable_at_0": prof.second_order_differentiable,
    }
    return StageRecord("envelope", h.name, cfg, summary, checks, artifacts)


def run_lemma(cfg: ExperimentConfig) -> StageRecord:
    h = _handle(cfg)
    rng = seeded_rng(cfg.seed)
    x0 = np.zeros(h.shape.dim)
    samples = ball_samples(h.shape, x0, cfg.radius, cfg.sample_count, rng)
    majorant = lowerbound.empirical_majorant(h, x0, samples)
    cert = lowerbound.lower_bound_certify(h, x0, majorant, samples, tol=1e-6)
    expected = h.flags.rank_one_convex or (h.flags.separately_convex and h.shape.rows == 1)
    checks = {"certificate_matches_flag": cert.passed == expected}
    out = Path(cfg.out_dir) / "lemma"
    csv = fieldio.write_csv(out / f"{h.name}.csv", ("radius", "majorant"), majorant.table())
    cert_json = fieldio.write_json(
        asdict(cert)
        | {"expected_pass": expected, "seed": cfg.seed, "g_table": majorant.table()},
        out / f"{h.name}_certificate.json",
    )
    summary = asdict(cert) | {"function": h.name, "expected_pass": expected}
    return StageRecord("lemma", h.name, cfg, summary, checks, [csv, cert_json])


def _table_rows(table: dict[str, np.ndarray], names: tuple[str, ...]) -> list[tuple]:
    """CSV rows of a (objects, levels) column table: the object's index, then the named
    columns, one row per object and level; a bool column is written as 0 or 1."""
    objects, levels = table[names[0]].shape
    columns = [table[name].reshape(-1) for name in names]
    cells = (c.astype(int).tolist() if c.dtype == bool else c.tolist() for c in columns)
    return list(zip(np.repeat(np.arange(objects), levels).tolist(), *cells))


def run_appendix(cfg: ExperimentConfig) -> StageRecord:
    rng = seeded_rng(cfg.seed)
    out = Path(cfg.out_dir) / "appendix"
    artifacts = []
    checks: dict[str, bool] = {}

    # per-line tail on |x_1| over the plane, first: it validates lines_per_direction
    h12 = abs_entry(0, 0, MatrixShape(1, 2))
    t_tail = np.exp(np.linspace(np.log(7.0), np.log(80.0), 8))
    tail = convex1d.fubini_tail_experiment(
        h12, t_tail, lines_per_direction=cfg.lines_per_direction, seed=cfg.seed, probe_count=6
    )
    checks["tail_slope_is_minus_one"] = (
        tail.fitted_slope is not None and abs(tail.fitted_slope + 1.0) <= 0.1
    )
    checks["tail_inclusion_bounds"] = all(
        p.axis_bound_ok and p.hull_bound_ok for p in tail.inclusion
    )
    artifacts.append(
        fieldio.write_csv(
            out / "tail_lines.csv",
            ("t", "measure", "oscillation_bound"),
            [(t, m, tail.oscillation / t) for t, m in zip(tail.t_grid, tail.measures)],
        )
    )

    # weak (1,1): the unit atom plus random small measures
    unit = convex1d.AtomicMeasure1D(np.array([0.0]), np.array([1.0]))
    unit_weak = convex1d.weak_one_one_check([unit], [1.0, 2.0, 4.0, 8.0])
    unit_t, unit_measure = unit_weak["t"][0].tolist(), unit_weak["measure"][0].tolist()
    checks["weak11_unit_atom_exact"] = all(abs(m * t - 2.0) <= 1e-12 for t, m in zip(unit_t, unit_measure))
    absf = convex1d.PLConvex1D(np.array([0.0]), np.array([-1.0, 1.0]))
    mu_abs = convex1d.second_derivative_measure(absf)
    artifacts.append(
        fieldio.write_csv(
            out / "abs_measure.csv",
            ("location", "mass"),
            list(zip(mu_abs.locations, mu_abs.masses)),
        )
    )
    level_rows = []
    for t in (1.0, 2.0, 4.0, 8.0):
        for a, b in convex1d.superlevel(mu_abs, t):
            level_rows.append((t, a, b))
    artifacts.append(
        fieldio.write_csv(out / "abs_superlevel.csv", ("t", "start", "end"), level_rows)
    )
    t_grid = np.exp(np.linspace(np.log(0.5), np.log(5.0), 9))
    measures = []
    for _ in range(100):
        count = int(rng.integers(1, 6))
        locs = np.sort(rng.uniform(-2.0, 2.0, size=count))
        locs = locs[np.concatenate([[True], np.diff(locs) > 1e-9])]
        measures.append(convex1d.AtomicMeasure1D(locs, rng.uniform(0.1, 3.0, size=locs.size)))
    weak = convex1d.weak_one_one_check(measures, t_grid)
    checks["weak11_random_measures"] = bool(np.all(weak["ok"] & weak["local_ok"]))
    artifacts.append(
        fieldio.write_csv(
            out / "weak11.csv",
            ("measure_id", "t", "measure", "bound", "ok"),
            _table_rows(weak, ("t", "measure", "bound", "ok")),
        )
    )

    # convex Taylor chain: |x| and a shifted kink, then 50 random functions
    h_grid = np.linspace(0.05, 1.0, 20)
    shifted = convex1d.PLConvex1D(np.array([0.5]), np.array([0.0, 1.0]))
    functions = [convex1d.random_pl_convex(rng, atom_at_zero=bool(rng.integers(0, 2))) for _ in range(50)]
    taylor = convex1d.convex_taylor_check([absf, shifted, *functions], h_grid)
    checks["taylor_abs_vacuous_flagged"] = bool(np.all(taylor["vacuous"][0]))
    checks["taylor_chain_holds"] = bool(np.all(taylor["ok"]))
    random_taylor = {name: column[2:] for name, column in taylor.items()}
    artifacts.append(
        fieldio.write_csv(
            out / "taylor.csv",
            ("function_id", "h", "f_h", "mid_bound", "ok", "vacuous"),
            _table_rows(random_taylor, ("h", "f_plus", "bound_mid_plus", "ok", "vacuous")),
        )
    )

    # ell^1 geometry
    l1 = convex1d.l1_ball_containment(4)
    checks["l1_ratio_bounded"] = l1.ok
    checks["l1_witness_attains_bound"] = abs(l1.witness_ratio - 2.0) <= 1e-12

    summary = {
        "weak11_unit": list(zip(unit_t, unit_measure)),
        "l1_max_ratio": l1.max_ratio,
        "tail_slope": tail.fitted_slope,
        "tail_oscillation": tail.oscillation,
    }
    return StageRecord("appendix", None, cfg, summary, checks, artifacts)


def run_all(cfg: ExperimentConfig) -> list[StageRecord]:
    """Smoke-scale sweep over every pipeline with deterministic sub-budgets."""
    return [
        *(run_verify(replace(cfg, function=h.name, grid_points=9)) for h in corpus()),
        run_theta(replace(cfg, function="neg_det_2x2", grid_points=7, eval_count=40)),
        run_tail(replace(cfg, function="abs_x11", grid_points=9, eval_count=80)),
        *(run_envelope(replace(cfg, function=name, grid_points=7)) for name in ("neg_det_2x2", "frob_norm")),
        *(
            run_lemma(replace(cfg, function=name, sample_count=4000))
            for name in ("neg_det_2x2", "neg_half_norm_sq", "neg_uv")
        ),
        run_appendix(replace(cfg, lines_per_direction=16)),
    ]


_PIPELINES = {
    "verify": run_verify,
    "theta": run_theta,
    "tail": run_tail,
    "envelope": run_envelope,
    "lemma": run_lemma,
    "appendix": run_appendix,
    "all": run_all,
}
EXPERIMENTS = tuple(_PIPELINES)
# The ExperimentConfig keys each pipeline reads. `run` rejects any other key set to a
# value but its default, and the manifest echoes only these.
READS = {
    name: ("seed", "out_dir", *keys)
    for name, keys in {
        "verify": ("function", "grid_points", "radius"),
        "theta": ("function", "grid_points", "radius", "eval_count", "threads"),
        "tail": ("function", "grid_points", "radius", "eval_count", "threads"),
        "envelope": ("function", "grid_points", "radius"),
        "lemma": ("function", "radius", "sample_count"),
        "appendix": ("lines_per_direction",),
        "all": ("radius", "threads"),  # run_all sets every other key per stage
    }.items()
}

# (flag, config key, type, help) of the override flags; `run` rejects those an experiment does not read
_FLAGS = (
    ("--seed", "seed", int, None),
    ("--out", "out_dir", str, "output directory"),
    ("--function", "function", str, "corpus function name"),
    ("--grid-points", "grid_points", int, None),
    ("--radius", "radius", float, None),
    ("--eval-count", "eval_count", int, None),
    ("--samples", "sample_count", int, None),
    ("--threads", "threads", int, None),
)


def run(cfg: ExperimentConfig) -> RunManifest:
    if cfg.experiment not in _PIPELINES:
        raise ValueError(f"unknown experiment {cfg.experiment!r}; valid: {', '.join(EXPERIMENTS)}")
    default = asdict(ExperimentConfig(cfg.experiment))
    if taken := [f"{k}={v!r}" for k, v in asdict(cfg).items() if v != default[k] and k not in READS[cfg.experiment]]:
        raise ValueError(f"{cfg.experiment} does not read {', '.join(taken)}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.threads < 1:
        raise ValueError(f"threads must be >= 1, got {cfg.threads}")
    records = _PIPELINES[cfg.experiment](cfg)
    return _write(cfg, [records] if isinstance(records, StageRecord) else records)


def list_corpus(flag: str | None = None) -> list[str]:
    lines = []
    for h in corpus():
        flags = asdict(h.flags)
        if flag is not None:
            if flag not in flags:
                raise ValueError(f"unknown flag {flag!r}; valid: {', '.join(flags)}")
            if not flags[flag]:
                continue
        tags = ",".join(k for k, v in flags.items() if v) or "-"
        shape = f"{h.shape.rows}x{h.shape.cols}{'sym' if h.shape.symmetric else ''}"
        lines.append(f"{h.name:20s} {shape:6s} {tags}")
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roconvex",
        description="Numerical experiments for rank-one convexity on sampled matrix fields.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", type=str, default=None, help="flat JSON config file")
        for flag, key, kind, text in _FLAGS:
            p.add_argument(flag, dest=key, type=kind, default=None, help=text)
    lp = sub.add_parser("list-corpus", help="list corpus functions and flags")
    lp.add_argument("--flag", type=str, default=None, help="filter by a convexity flag")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.experiment == "list-corpus":
            for line in list_corpus(args.flag):
                print(line)
            return 0
        overrides = {key: getattr(args, key) for _, key, _, _ in _FLAGS}
        values = load_config(args.config) if args.config else {}
        values.update({k: v for k, v in overrides.items() if v is not None})
        manifest = run(ExperimentConfig(**values | {"experiment": args.experiment}))
    except ValueError as exc:  # bad input: names, config file, counts, grid sizes
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output path that cannot be written; str(exc) names it
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    failed = [k for k, v in manifest.checks.items() if not v]
    for name, ok in sorted(manifest.checks.items()):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if failed:
        print(f"{len(failed)} of {len(manifest.checks)} checks failed")
        return 1
    print(f"all {len(manifest.checks)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
