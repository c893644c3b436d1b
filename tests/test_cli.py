import decimal
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import roconvex
from roconvex import cli, paraboloid
from roconvex.cli import ExperimentConfig, list_corpus, load_config, main, run
from roconvex.fieldio import read_field, sha256_file, write_field
from roconvex.core import MAX_POINTS_PER_AXIS, MatrixPoint, MatrixShape, SampledField, grid_spec, make_grid, sample
from roconvex.corpus import neg_det, neg_det_sym


def test_list_corpus_contents():
    lines = list_corpus()
    assert any(line.startswith("neg_det_2x2 ") and "rank_one_affine" in line for line in lines)
    assert any(line.startswith("neg_half_norm_sq") and line.rstrip().endswith("-") for line in lines)
    sep = list_corpus("separately_convex")
    assert any(line.startswith("neg_uv") for line in sep)
    assert not any(line.startswith("neg_half_norm_sq") for line in sep)
    with pytest.raises(ValueError, match="unknown flag"):
        list_corpus("bogus")


def test_unknown_function_lists_names():
    with pytest.raises(ValueError, match="neg_det_2x2"):
        run(ExperimentConfig(experiment="verify", function="nope"))


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="valid"):
        run(ExperimentConfig(experiment="bogus"))


def test_config_file_roundtrip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 5, "grid_points": 7}))
    values = load_config(cfg_path)
    assert values == {"seed": 5, "grid_points": 7}
    bad = tmp_path / "bad.json"
    # a misspelt key, and the keys of values that became constants
    for key in ("seeed", "tol", "min_epsilon"):
        bad.write_text(json.dumps({key: 5}))
        with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
            load_config(bad)


@pytest.mark.parametrize(
    "argv, cause",
    [
        (["verify", "--function", "nope"], "unknown corpus function 'nope'"),
        (["verify", "--config", "{missing}"], "cannot read config file {missing}"),
        (["verify", "--config", "{malformed}"], "config file {malformed} is not JSON"),
        # the column split leaves the symmetric space; the library names the shape
        (
            ["lemma", "--function", "neg_det_2x2_sym"],
            "empirical_majorant needs a general shape, and neg_det_2x2_sym has the symmetric shape 2x2",
        ),
        (["list-corpus", "--flag", "bogus"], "unknown flag 'bogus'"),
        # t_min was a config key; a retired key is as unknown as a misspelt one
        (["tail", "--config", "{retired}"], "unknown config keys: ['t_min']"),
        (["theta", "--threads", "0"], "threads must be >= 1, got 0"),
        (["lemma", "--samples", "0"], "empirical_majorant needs at least one sample, got 0"),
        # named before numpy's allocation rejects it with a message that names no input
        (["lemma", "--samples", "-1"], "ball_samples needs count >= 0, got -1"),
        (["appendix", "--config", "{no_lines}"], "fubini_tail_experiment needs lines_per_direction >= 1, got 0"),
        (["all", "--threads", "0"], "threads must be >= 1, got 0"),
        # every norm of a cube draw overflows, so rejection sampling would never accept one
        (["lemma", "--radius", "1e300"], "ball_samples cannot sample radius 1e+300"),
        # tol was a config key until the verdict tolerance became a constant
        (["verify", "--config", "{str_tol}"], "unknown config keys: ['tol']"),
        (["verify", "--config", "{float_points}"], "config key 'grid_points' must be int, got 7.5"),
        (["lemma", "--radius", "inf"], "ball radius must be positive and finite, got inf"),
        (["lemma", "--radius", "nan"], "ball radius must be positive and finite, got nan"),
        # the subcommand names the experiment; a config file may not
        (["verify", "--config", "{experiment}"], "unknown config keys: ['experiment']"),
        # verify runs no thread pool, so it rejects a thread count instead of ignoring it
        (["verify", "--threads", "0"], "verify does not read threads=0"),
        # run_all sets its own budgets, so `all` rejects them instead of ignoring them
        (["all", "--samples", "0"], "all does not read sample_count=0"),
        (["all", "--function", "nope"], "all does not read function='nope'"),
        # the handle overflows at the grid corners (det there is inf - inf); sampling names
        # the node before any check runs
        (["verify", "--radius", "1e300"], "non-finite value of neg_det_2x2 at node"),
        (["envelope", "--radius", "1e300"], "non-finite value of neg_det_2x2 at node"),
        (["all", "--radius", "1e300"], "non-finite value of half_norm_sq_0p5 at node"),
        # named before numpy's generator rejects it with a message that names no input
        (["verify", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["all", "--config", "{negative_seed}"], "seed must be >= 0, got -1"),
    ],
    ids=[
        "unknown_function",
        "missing_config",
        "malformed_config",
        "symmetric_lemma",
        "unknown_flag",
        "retired_key",
        "zero_threads",
        "zero_samples",
        "negative_samples",
        "zero_lines",
        "all_zero_threads",
        "huge_radius",
        "str_tol",
        "float_grid_points",
        "radius_inf",
        "radius_nan",
        "experiment_key",
        "verify_zero_threads",
        "all_zero_samples",
        "all_unknown_function",
        "verify_huge_radius",
        "envelope_huge_radius",
        "all_huge_radius",
        "verify_negative_seed",
        "all_negative_seed",
    ],
)
def test_bad_input_exits_2_with_one_line(tmp_path, argv, cause):
    configs = {
        "malformed": "{seed: 5}",
        "retired": json.dumps({"t_min": 2.0}),
        "no_lines": json.dumps({"lines_per_direction": 0}),
        "str_tol": json.dumps({"tol": "x"}),
        "float_points": json.dumps({"grid_points": 7.5}),
        "experiment": json.dumps({"experiment": "tail"}),
        "negative_seed": json.dumps({"seed": -1}),
    }
    for name, text in configs.items():
        (tmp_path / f"{name}.json").write_text(text)
    paths = {name: str(tmp_path / f"{name}.json") for name in ("missing", *configs)}
    argv = [a.format(**paths) for a in argv]
    out = [] if argv[0] == "list-corpus" else ["--out", str(tmp_path / "out")]
    # A subprocess with a timeout, so an input that hangs the CLI fails the test.
    done = subprocess.run(
        [sys.executable, "-m", "roconvex.cli", *argv, *out],
        env=os.environ | {"PYTHONPATH": str(Path(roconvex.__file__).parents[1])},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    err = done.stderr
    assert err.startswith("error: " + cause.format(**paths)) and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, config, cause",
    [
        (["verify", "--samples", "0"], None, "verify does not read sample_count=0"),
        (["verify", "--threads", "7"], None, "verify does not read threads=7"),
        (["verify"], {"eval_count": 10}, "verify does not read eval_count=10"),
        (["theta", "--samples", "5"], None, "theta does not read sample_count=5"),
        (["theta"], {"lines_per_direction": 8}, "theta does not read lines_per_direction=8"),
        (["tail", "--samples", "5"], None, "tail does not read sample_count=5"),
        (["tail"], {"lines_per_direction": 8}, "tail does not read lines_per_direction=8"),
        (["envelope", "--eval-count", "-5"], None, "envelope does not read eval_count=-5"),
        (["envelope"], {"threads": 2}, "envelope does not read threads=2"),
        (["lemma", "--grid-points", "999"], None, "lemma does not read grid_points=999"),
        (["lemma"], {"eval_count": 10}, "lemma does not read eval_count=10"),
        (["appendix", "--function", "nope", "--radius", "7"], None, "appendix does not read function='nope', radius=7.0"),
        (["appendix"], {"sample_count": 100}, "appendix does not read sample_count=100"),
        (["all", "--grid-points", "7"], None, "all does not read grid_points=7"),
        (["all"], {"lines_per_direction": 8}, "all does not read lines_per_direction=8"),
        # a flag and a config file share the one check and its one line
        (["verify", "--threads", "2"], {"eval_count": 3}, "verify does not read eval_count=3, threads=2"),
    ],
    ids=[
        "verify_samples",
        "verify_threads",
        "verify_config",
        "theta_samples",
        "theta_config",
        "tail_samples",
        "tail_config",
        "envelope_eval_count",
        "envelope_config",
        "lemma_grid_points",
        "lemma_config",
        "appendix_function_radius",
        "appendix_config",
        "all_grid_points",
        "all_config",
        "verify_flag_and_config",
    ],
)
def test_unread_key_exits_2_before_any_stage_writes(tmp_path, capsys, argv, config, cause):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {cause}\n" and captured.out == ""
    assert not (tmp_path / "out").exists()


def _fields_read(pipeline, **values) -> set[str]:
    """The ExperimentConfig fields that one call of `pipeline` reads."""
    seen = set()

    class Recording(ExperimentConfig):
        def __getattribute__(self, name):
            if name in ExperimentConfig.__dataclass_fields__:
                seen.add(name)
            return super().__getattribute__(name)

    pipeline(Recording(**values))
    return seen


STAGES = [name for name in cli.EXPERIMENTS if name != "all"]


@pytest.mark.parametrize("name", STAGES)
def test_reads_table_is_what_each_pipeline_reads(tmp_path, name):
    tiny = dict(grid_points=5, eval_count=2, sample_count=50, lines_per_direction=2)
    assert _fields_read(cli._PIPELINES[name], experiment=name, out_dir=str(tmp_path), **tiny) == set(cli.READS[name])


def test_all_passes_on_exactly_the_keys_of_its_row(monkeypatch):
    # run_all's replace reads every field, so its row is pinned through what reaches its
    # stages: a key of the row reaches a stage that reads it, and no other key reaches any
    for name in STAGES:
        monkeypatch.setattr(cli, f"run_{name}", lambda cfg, name=name: (name, cfg))
    moved = dict(
        function="abs_x11", grid_points=5, radius=0.5, seed=3, out_dir="elsewhere",
        eval_count=3, sample_count=3, lines_per_direction=3, threads=2,
    )
    assert moved.keys() == set(ExperimentConfig.__dataclass_fields__) - {"experiment"}
    base = cli.run_all(ExperimentConfig("all"))
    stages = cli.run_all(ExperimentConfig("all", **moved))
    passed = {k for (name, a), (_, b) in zip(base, stages) for k in cli.READS[name] if getattr(a, k) != getattr(b, k)}
    assert passed == set(cli.READS["all"])


def test_manifest_echoes_only_the_keys_read(tmp_path):
    run(ExperimentConfig("appendix", lines_per_direction=4, out_dir=str(tmp_path)))
    manifest = json.loads((tmp_path / "appendix/manifest.json").read_text())
    read = {"seed": 0, "out_dir": str(tmp_path), "lines_per_direction": 4}
    assert manifest["config"] == {"experiment": "appendix"} | read
    assert manifest["stages"] == {"appendix": read}


def test_cli_flags_override_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 5, "function": "neg_det_2x2"}))
    code = main(
        [
            "verify",
            "--config",
            str(cfg_path),
            "--seed",
            "9",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "out/verify/manifest.json").read_text())
    assert manifest["config"]["seed"] == 9
    assert manifest["config"]["function"] == "neg_det_2x2"
    assert manifest["passed"] is True


def test_verify_exit_codes(tmp_path, monkeypatch, capsys):
    argv = ["verify", "--function", "neg_det_2x2", "--out"]
    assert main(argv + [str(tmp_path / "a")]) == 0
    # one forced failing check fails the run with exit 1
    run_verify = cli._PIPELINES["verify"]
    monkeypatch.setitem(
        cli._PIPELINES, "verify", lambda cfg: replace(run_verify(cfg), checks={"forced": False})
    )
    capsys.readouterr()
    assert main(argv + [str(tmp_path / "b")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["FAIL  verify[neg_det_2x2].forced", "1 of 1 checks failed"]
    manifest = json.loads((tmp_path / "b/verify/manifest.json").read_text())
    assert manifest["passed"] is False


def test_unwritable_output_is_bad_input(tmp_path, capsys):
    # an output path under a file: the stage runs, its first write fails with exit 2, not 1
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    assert main(["verify", "--function", "neg_uv", "--out", str(blocker)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker / "verify") in err


@pytest.mark.parametrize(
    "name, digest",
    [
        ("neg_det_2x2_sym", "e55a76f14dc07c9857680c5abf82263961a400439c914fc388e239fd4d80e4ab"),
        ("neg_uv", "ffa2d532e440b061fa0c107a940c9495cd9e0c426fda82cc970d93ca9c477ef4"),
    ],
)
def test_verify_reports_keep_their_bytes(tmp_path, name, digest):
    # the seed-42 reports, witness labels included, as labelled direction objects wrote them
    run(ExperimentConfig(experiment="verify", function=name, seed=42, out_dir=str(tmp_path)))
    assert sha256_file(tmp_path / "verify" / f"{name}_reports.json") == digest


def test_tail_rejects_grid_over_budget(tmp_path, capsys):
    # the requested grid size is the one used: past the axis budget it fails loudly
    argv = ["tail", "--function", "abs_x11", "--grid-points", "15", "--eval-count", "4"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "points_per_axis 15" in capsys.readouterr().err
    assert not (tmp_path / "tail").exists()


def test_envelope_at_axis_capacity(tmp_path):
    # 13 points per axis is the largest grid the budget admits: 28,561 nodes in 4-D
    argv = ["envelope", "--function", "frob_norm", "--grid-points", str(MAX_POINTS_PER_AXIS)]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "envelope/manifest.json").read_text())
    assert manifest["checks"] == {
        "envelope[frob_norm].order_exact": True,
        "envelope[frob_norm].lipschitz_within_tol": True,
        "envelope[frob_norm].idempotent": True,
    }


def test_theta_rejects_zero_eval_count(tmp_path, capsys):
    assert main(["theta", "--eval-count", "0", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "count >= 1" in err and len(err.splitlines()) == 1


def test_theta_summary_reports_solver_counters(tmp_path):
    cfg = ExperimentConfig(
        experiment="theta", function="abs_x11", grid_points=7, eval_count=8, out_dir=str(tmp_path)
    )
    manifest = run(cfg)
    assert manifest.checks["theta[abs_x11].lower_bound_replays"] and manifest.passed
    summary = json.loads((tmp_path / "theta/abs_x11_summary.json").read_text())["summary"]
    assert 1 <= summary["pivots_mean"] <= summary["pivots_max"]
    assert abs(summary["duality_gap_max"]) <= 1e-9
    assert len(summary["witness"]) == 4


def test_all_writes_one_manifest_and_every_stage_summary(tmp_path):
    manifest = run(ExperimentConfig(experiment="all", out_dir=str(tmp_path)))
    assert [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("manifest.json")] == ["all/manifest.json"]
    assert not (tmp_path / "all/summary.json").exists()
    summaries = [rel for rel in manifest.artifacts if rel.endswith("summary.json")]
    assert len(summaries) == 19
    for rel in summaries:
        path = tmp_path / rel
        assert path.is_file()
        if rel != "appendix/summary.json":
            assert path.name == json.loads(path.read_text())["summary"]["function"] + "_summary.json"
    appendix = json.loads((tmp_path / "appendix/summary.json").read_text())["checks"]
    assert {f"appendix.{k}" for k in appendix} == {k for k in manifest.checks if k.startswith("appendix")}
    # each stage lists the keys its pipeline read: all's own keys as given, the rest per stage
    assert manifest.config == {"experiment": "all", "seed": 0, "out_dir": str(tmp_path), "radius": 1.0, "threads": 1}
    assert len(manifest.stages) == 19
    for label, read in manifest.stages.items():
        name, _, function = label.rstrip("]").partition("[")
        assert read.keys() == set(cli.READS[name]), label
        assert all(read[k] == manifest.config[k] for k in read.keys() & set(cli.READS["all"])), label
        assert read.get("function", "") == function


def test_appendix_random_checks_keep_their_bytes(tmp_path):
    # the seed-42 weak (1,1) and Taylor tables, as one check per measure and function wrote them
    cli.run(ExperimentConfig(experiment="appendix", seed=42, out_dir=str(tmp_path), lines_per_direction=16))
    assert {name: sha256_file(tmp_path / "appendix" / name) for name in ("weak11.csv", "taylor.csv")} == {
        "weak11.csv": "90baad72c7aa755d811cb7dec9cdc6ee0f21094e67382f38252e6a18f16298f8",
        "taylor.csv": "ce5ce3ada9c713bf8f88486848029c76d08aa6a046b042ae511e33f4befbe094",
    }
    # the unit atom's one-measure check: |{M delta_0 > t}| = 2 / t
    summary = json.loads((tmp_path / "appendix" / "summary.json").read_text())
    assert summary["summary"]["weak11_unit"] == [[1, 2], [2, 1], [4, 0.5], [8, 0.25]]


def test_field_csv_roundtrip(tmp_path):
    spec = grid_spec(MatrixShape(2, 2), 1.0, 5, "ball")
    fld = sample(neg_det(), spec)
    path = write_field(fld, tmp_path / "f.csv")
    back = read_field(path)
    assert back.grid == fld.grid
    assert (back.values[back.mask] == fld.values[fld.mask]).all()
    assert (back.mask == fld.mask).all()
    # writing the re-read field reproduces the bytes
    path2 = write_field(back, tmp_path / "g.csv")
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize(
    "line, edit, cause",
    [
        (1, lambda row: row.replace("x_11", "x_00"), ":2: column header must be x_11,x_12,x_21,x_22,value,mask"),
        (7, lambda row: row.rsplit(",", 1)[0], ":8: a node row needs 6 cells"),
        (7, lambda row: "0.25," + row.split(",", 1)[1], ":8: node coordinates differ from the grid's"),
        (7, lambda row: row[:-1] + "2", ":8: a mask cell must be 0 or 1"),
        (7, lambda row: row.replace("nan", "abc"), ": could not convert string to float"),
    ],
    ids=["header", "short_row", "coordinates", "mask_cell", "not_a_number"],
)
def test_read_field_rejects_malformed_files(tmp_path, line, edit, cause):
    path = write_field(sample(neg_det(), grid_spec(MatrixShape(2, 2), 1.0, 5, "ball")), tmp_path / "f.csv")
    lines = path.read_text().splitlines()
    lines[line] = edit(lines[line])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        read_field(path)
    assert str(err.value).startswith(f"{path}{cause}")


def _write_field_per_node(field, path):
    """The field writer as one Python loop over nodes: the reference for write_field."""
    names = field.grid.shape.coord_names()
    coords = field.node_coords()
    lines = ["# " + json.dumps(field.grid.to_dict(), sort_keys=True)]
    lines.append(",".join(names + ("value", "mask")))
    for k in range(coords.shape[0]):
        row = [repr(float(c)) for c in coords[k]]
        row.append(repr(float(field.values[k])) if field.mask[k] else "nan")
        row.append("1" if field.mask[k] else "0")
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _random_field(spec):
    """Seeded normal values on the valid nodes: long reprs of both signs."""
    grid = make_grid(spec)
    return SampledField(spec, np.random.default_rng(11).standard_normal(grid.node_count), grid.mask)


S22 = MatrixShape(2, 2)
SYM = MatrixShape(2, 2, symmetric=True)


@pytest.mark.parametrize(
    "build",
    [
        lambda: sample(neg_det(), grid_spec(S22, 0.7, 7, "ball")),
        lambda: sample(neg_det_sym(), grid_spec(SYM, 0.7, 7, "cube")),
        lambda: _random_field(grid_spec(MatrixShape(1, 3), 0.5, 5, "ball")),
        lambda: _random_field(grid_spec(SYM, 0.7, 7, "ball")),
        # a non-dyadic radius about a center of mixed signs: long axis reprs, some signed
        lambda: _random_field(grid_spec(S22, 0.37, 7, "cube", MatrixPoint(S22, [-0.3, -1.25, 0.1, -2.0]))),
        lambda: sample(neg_det(), grid_spec(S22, 1.0, MAX_POINTS_PER_AXIS, "ball")),
    ],
    ids=["ball_mask", "symmetric", "one_by_three", "symmetric_ball", "negative_center", "axis_capacity_ball"],
)
def test_write_field_matches_per_node_reference(tmp_path, build):
    fld = build()
    _write_field_per_node(fld, tmp_path / "ref.csv")
    path = write_field(fld, tmp_path / "f.csv")
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    back = read_field(path)
    assert back.grid == fld.grid
    assert np.array_equal(back.values, fld.values, equal_nan=True) and np.array_equal(back.mask, fld.mask)


def test_theta_manifest_hashes_stable(tmp_path):
    cfg = dict(
        experiment="theta",
        function="neg_det_2x2",
        grid_points=7,
        eval_count=8,
        seed=3,
    )
    m1 = run(ExperimentConfig(**cfg, out_dir=str(tmp_path / "r1")))
    m2 = run(ExperimentConfig(**cfg, out_dir=str(tmp_path / "r2")))
    assert m1.artifacts == m2.artifacts
    assert m1.passed and m2.passed
    a = (tmp_path / "r1/theta/neg_det_2x2.csv").read_bytes()
    b = (tmp_path / "r2/theta/neg_det_2x2.csv").read_bytes()
    assert a == b


def test_threaded_run_matches_serial(tmp_path):
    base = dict(experiment="theta", function="abs_x11", grid_points=7, eval_count=8, seed=3)
    serial = run(ExperimentConfig(**base, threads=1, out_dir=str(tmp_path / "s")))
    threaded = run(ExperimentConfig(**base, threads=2, out_dir=str(tmp_path / "t")))
    assert serial.artifacts == threaded.artifacts


def test_readme_lists_the_config_keys_and_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    sentence = re.search(r"A config file may hold only the `ExperimentConfig` keys:(.*?)\.", readme, re.S)
    keys = re.findall(r"`(\w+)`", sentence.group(1))
    assert keys == [k for k in ExperimentConfig.__dataclass_fields__ if k != "experiment"]
    # the keys every experiment takes, then one table row per group of experiments;
    # each key is followed by its flag, or by "config file only" where it has none
    common = re.search(r"^Every experiment takes `--config PATH`(.*?)\n\n", readme, re.S | re.M)
    rows = re.findall(r"^\| (`\w+`(?:, `\w+`)*) \| (.*) \|$", readme, re.M)
    pair = re.compile(r"`(\w+)`\s+\((?:`(--[\w-]+) \w+`|config file only)\)")
    flag_of = {key: flag for flag, key, _, _ in cli._FLAGS}
    documented = [pair.findall(common.group(1))] + [pair.findall(cell) for _, cell in rows]
    assert all((flag or None) == flag_of.get(key) for pairs in documented for key, flag in pairs)
    assert {flag for pairs in documented for _, flag in pairs} - {""} == set(flag_of.values())
    table = {}
    for (names, _), pairs in zip(rows, documented[1:]):
        for name in re.findall(r"`(\w+)`", names):
            table[name] = tuple(key for key, _ in documented[0] + pairs)
    assert table == cli.READS


@pytest.mark.parametrize(
    "levels, lo, hi", [(paraboloid.TAIL_T_GRID, 2.0, 20.0), (cli.APPENDIX_T_TAIL, 7.0, 80.0)], ids=["tail", "appendix"]
)
def test_tail_levels_are_correctly_rounded_exps_of_log_spaced_nodes(levels, lo, hi):
    # exp at 50 digits, then one rounding to double: the bits no libm or SIMD exp can move
    nodes = np.linspace(math.log(lo), math.log(hi), 8)
    with decimal.localcontext(prec=50):
        exact = [float(decimal.Decimal(float(x)).exp()) for x in nodes]
    assert levels.tolist() == exact and not levels.flags.writeable
