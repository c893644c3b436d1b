"""roconvex benchmark: one workload, one seed, a fixed measuring window.

    python3 bench/run.py --workload openings --seed 3 --seconds 20 --trace 0

Runs from a source checkout: it imports `roconvex` from `src/` next to this
directory, as a single process calling the package in a closed loop (each
call starts after the previous one returns). With `--trace 0` it reports the
end-to-end metrics; with `--trace 1` it alternates untraced and traced passes
and reports the per-layer metrics of the traced ones. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}. Progress,
run metadata and deltas against the previous result of the same workload go
to stderr. Everything it writes stays under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "passed_frac": "ratio",
    "theta_mean": "opening",
}

SETUP_RUNS = 7
SETUP_CODE = """
import roconvex
from roconvex.core import grid_spec, make_grid
from roconvex.corpus import corpus
make_grid(grid_spec(corpus()[0].shape))
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports roconvex, builds
    corpus() and its first grid, after one untimed spawn warms the file cache."""
    times = []
    for k in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        # No timeout: with one, subprocess polls the child at up to 50 ms steps.
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=_child_env(), check=True)
        if k:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_pass(workload, checks, k: int, threads: int = 1) -> float:
    start = time.perf_counter()
    try:
        return workload.run_pass(checks, k, threads)
    except Exception:
        traceback.print_exc()
        checks.add(False, f"{workload.name}: pass {k} raised")
        return time.perf_counter() - start


def measure(workload, checks, seconds: float) -> list[float]:
    """Untraced passes until the next one would leave the window (at least min_passes)."""
    times: list[float] = []
    start = time.perf_counter()
    while True:
        times.append(run_pass(workload, checks, len(times)))
        elapsed = time.perf_counter() - start
        if len(times) >= workload.min_passes and elapsed + statistics.median(times) > seconds:
            return times


def measure_traced(workload, checks, seconds: float, tracer) -> tuple[list[float], list[float]]:
    """Alternate untraced and traced passes of the same inputs (at least 2 of each)."""
    plain: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while True:
        k = len(plain)
        plain.append(run_pass(workload, checks, k))
        tracer.pass_id = k
        tracer.install()
        try:
            traced.append(run_pass(workload, checks, k))
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - start
        pair = statistics.median(plain) + statistics.median(traced)
        if len(plain) >= 2 and elapsed + pair > seconds:
            return plain, traced


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def report_deltas(path: Path, metrics: dict) -> None:
    """Print each metric against the previous result file of this workload, if any."""
    if not path.exists():
        return
    try:
        before = json.loads(path.read_text())["result"]["metrics"]
    except (ValueError, KeyError):
        return
    print(f"delta against {path.name}:", file=sys.stderr)
    for name, entry in metrics.items():
        old = before.get(name, {}).get("value")
        new = entry["value"]
        if old is None:
            print(f"  {name}: {new:.6g} (new)", file=sys.stderr)
        else:
            rel = f" ({(new - old) / abs(old):+.1%})" if old else ""
            print(f"  {name}: {old:.6g} -> {new:.6g}{rel}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "openings", "envelopes", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "roconvex" / "__init__.py").is_file():
        print(f"error: no roconvex sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import spans
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    checks = workloads.Checks()
    if args.trace == 0:
        setup_s = measure_setup()
        workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
        times = measure(workload, checks, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        theta_mean = workload.theta_mean(checks)
        meta["passes"] = len(times)
        meta["pass_s"] = times
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(times),
            "peak_rss_mb": peak_rss_mb,
            "passed_frac": (checks.attempted - checks.failed) / checks.attempted,
            "theta_mean": theta_mean,
        }
        units = END_TO_END
    else:
        tracer = spans.Tracer()
        workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
        plain, traced = measure_traced(workload, checks, args.seconds, tracer)
        meta["passes"] = len(plain) + len(traced)
        meta["pass_s"] = {"untraced": plain, "traced": traced}
        metrics = tracer.pass_metrics(range(len(traced)))
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics["paraboloid.theta_field.speedup_2t"] = 0.0
        metrics["cli.artifacts_differ_2t"] = 0.0
        if args.workload == "openings":
            for threads in (1, 2):  # back to back, on block 0's points
                run_pass(workload, checks, 0, threads=threads)
            field_s = workload.theta_field_s
            metrics["paraboloid.theta_field.speedup_2t"] = field_s[(0, 1)] / field_s[(0, 2)]
        elif args.workload == "sweep":
            run_pass(workload, checks, len(plain), threads=2)
            metrics["cli.artifacts_differ_2t"] = float(len(workload.differing))
        tracer.dump(OUT / f"spans_{args.workload}.json")
        units = {name: unit for name, (unit, *_) in spans.PER_LAYER.items()}

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print("meta " + json.dumps(meta), file=sys.stderr)
    result_path = OUT / f"result_{args.workload}_trace{args.trace}.json"
    report_deltas(result_path, result["metrics"])
    result_path.write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
