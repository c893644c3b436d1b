import json

import pytest

from roconvex.cli import ExperimentConfig, list_corpus, load_config, main, run
from roconvex.fieldio import read_field, write_field
from roconvex.core import CapacityError, MatrixShape, grid_spec, sample
from roconvex.corpus import neg_det


def test_list_corpus_contents():
    lines = list_corpus()
    assert any(line.startswith("neg_det_2x2 ") and "rank_one_affine" in line for line in lines)
    assert any(line.startswith("neg_half_norm_sq") and line.rstrip().endswith("-") for line in lines)
    sep = list_corpus("separately_convex")
    assert any(line.startswith("neg_uv") for line in sep)
    assert not any(line.startswith("neg_half_norm_sq") for line in sep)
    with pytest.raises(SystemExit, match="unknown flag"):
        list_corpus("bogus")


def test_unknown_function_lists_names():
    with pytest.raises(SystemExit, match="neg_det_2x2"):
        run(ExperimentConfig(experiment="verify", function="nope"))


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit, match="valid"):
        run(ExperimentConfig(experiment="bogus"))


def test_config_file_roundtrip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 5, "grid_points": 7}))
    values = load_config(cfg_path)
    assert values == {"seed": 5, "grid_points": 7}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seeed": 5}))
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(bad)


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


def test_verify_exit_codes(tmp_path):
    assert main(["verify", "--function", "neg_det_2x2", "--out", str(tmp_path / "a")]) == 0
    # an impossible epsilon floor forces a failing check and a nonzero exit
    code = main(
        [
            "tail",
            "--function",
            "half_norm_sq_1",
            "--grid-points",
            "7",
            "--eval-count",
            "10",
            "--out",
            str(tmp_path / "b"),
        ]
    )
    assert code == 0
    cfg = ExperimentConfig(
        experiment="tail",
        function="half_norm_sq_1",
        grid_points=7,
        eval_count=10,
        min_epsilon=0.9,
        out_dir=str(tmp_path / "c"),
    )
    manifest = run(cfg)
    assert not manifest.passed


def test_tail_rejects_grid_over_budget(tmp_path):
    # the requested grid size is the one used: past the axis budget it fails loudly
    argv = ["tail", "--function", "abs_x11", "--grid-points", "15", "--eval-count", "4"]
    with pytest.raises(CapacityError, match="points_per_axis 15"):
        main(argv + ["--out", str(tmp_path)])
    assert not (tmp_path / "tail").exists()


def test_theta_summary_reports_solver_counters(tmp_path):
    cfg = ExperimentConfig(
        experiment="theta", function="abs_x11", grid_points=7, eval_count=8, out_dir=str(tmp_path)
    )
    manifest = run(cfg)
    assert manifest.checks["lower_bound_replays"] and manifest.passed
    summary = json.loads((tmp_path / "theta/summary.json").read_text())["summary"]
    assert 1 <= summary["pivots_mean"] <= summary["pivots_max"]
    assert abs(summary["duality_gap_max"]) <= 1e-9
    assert len(summary["witness"]) == 4


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
