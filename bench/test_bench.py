"""Self-tests of the benchmark: run with `python3 -m pytest bench/test_bench.py`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import roconvex  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from roconvex import cli, core, paraboloid  # noqa: E402
from roconvex.core import grid_spec  # noqa: E402
from roconvex.corpus import FunctionHandle, get_handle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _package_state() -> dict:
    """Every value the tracer could patch: module globals, their dicts, class attributes."""
    state = {}
    for name, module in sys.modules.items():
        if name == "roconvex" or name.startswith("roconvex."):
            for key, value in vars(module).items():
                state[(name, key)] = value
                if isinstance(value, dict) and key != "__builtins__":
                    state.update({(name, key, k): v for k, v in value.items()})
    for cls in (core.SampledField, FunctionHandle):
        state.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return state


def _repo_files() -> dict:
    skip = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
    files = {}
    for path in ROOT.rglob("*"):
        rel = path.relative_to(ROOT)
        if skip & set(rel.parts) or rel.parts[:2] == ("bench", "out") or not path.is_file():
            continue
        stat = path.stat()
        files[str(rel)] = (stat.st_mtime_ns, stat.st_size)
    return files


def test_tracer_patches_consumers_and_restores_originals():
    before = _package_state()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert paraboloid.make_grid is core.make_grid
        assert cli.sample is core.sample and cli.gradient_field is core.gradient_field
        for fn in (paraboloid.make_grid, cli.sample, cli._PIPELINES["verify"], roconvex.theta_field):
            assert hasattr(fn, "__wrapped__")
        h = get_handle("neg_det_2x2")
        paraboloid.theta_field(h, grid_spec(h.shape, 1.0, 5, "ball"), count=2, seed=0)
    finally:
        tracer.uninstall()
    after = _package_state()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed
    names = {span[0] for span in tracer.spans}
    # theta_field's inner solve reaches theta_upper through the module globals
    assert {"paraboloid.theta_field", "paraboloid.theta_upper", "core.make_grid", "corpus.eval"} <= names


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.install()
    try:
        h = get_handle("frob_norm")
        core.sample(h, grid_spec(h.shape, 1.0, 5, "cube"))
    finally:
        tracer.uninstall()
    selfs = tracer.self_times()
    top = [k for k, span in enumerate(tracer.spans) if span[3] == -1]
    total = sum(tracer.spans[k][2] - tracer.spans[k][1] for k in top)
    assert [tracer.spans[k][0] for k in top] == ["corpus.corpus", "core.sample"]
    assert sum(selfs) == pytest.approx(total, rel=1e-9)
    assert all(s >= 0.0 for s in selfs)
    assert tracer.counters[0]["corpus.points"] == 5**4


def test_metric_registries_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, (unit, better, *_) in spans.PER_LAYER.items()
    ]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared_and_nothing_is_written_outside_out(trace):
    before = _repo_files()
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert _repo_files() == before


def test_sweep_pass_writes_only_to_its_temp_dir(tmp_path):
    before = _repo_files()
    sweep = workloads.Sweep(3, tmp_path)
    checks = workloads.Checks()
    sweep.run_pass(checks, 0)
    assert checks.failed == 0 and checks.attempted > 50
    assert list(tmp_path.iterdir()) == []
    assert _repo_files() == before
    assert np.isfinite(sweep.theta_mean(checks))


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
