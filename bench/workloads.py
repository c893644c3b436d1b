"""The benchmark's four workloads, each built from a seed and run pass by pass.

A workload generates all of its inputs from the seed when it is built. Each
call of `run_pass` does one pass of work through roconvex's public functions,
checks the outputs, and returns the seconds the pass spent in the program.
Checks are tallied in `Checks`; a raised exception counts as a failed check.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Traced functions are called as module attributes, so the tracer's patches reach them.
from roconvex import cli, convex1d, core, envelope, lowerbound, paraboloid, verify
from roconvex.core import MatrixPoint, MatrixShape, ball_samples, grid_spec
from roconvex.corpus import abs_entry, get_handle

corpus_mod = importlib.import_module("roconvex.corpus")  # the package rebinds `corpus` to the function

REPLAY_TOL = 1e-12
FEASIBILITY_TOL = 1e-9
ENVELOPE_TOL = 1e-12
VERDICT_TOL = 1e-9  # the CLI's analytic tolerance for convexity verdicts
CERTIFY_TOL = 1e-6  # the CLI's lower-bound slack tolerance


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def _seeds(seed: int, *shape: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2**31 - 1, size=shape)


def _check_touches(checks: Checks, f, tf, constraints, label: str) -> None:
    for touch in tf.touches:
        replay = abs(paraboloid.replay_opening(f, touch, constraints) - touch.opening)
        checks.add(replay <= REPLAY_TOL, f"{label}: replay gap {replay:.3e} at {touch.x0}")
        gap = paraboloid.touch_feasibility_gap(f, touch, constraints)
        checks.add(gap <= FEASIBILITY_TOL, f"{label}: feasibility gap {gap:.3e} at {touch.x0}")


def sentinel_openings(seed: int, checks: Checks) -> np.ndarray:
    """Certified openings of neg_det_2x2_sym at 12 seeded points, replay-checked.

    Gives `theta_mean` on workloads that compute no openings of their own; the
    caller runs it after the timed passes, so it stays out of `wall_s`.
    """
    h = get_handle("neg_det_2x2_sym")
    constraints = grid_spec(h.shape, 1.0, 13, "ball")
    tf = paraboloid.theta_field(h, constraints, count=12, seed=int(_seeds(seed, 1)[0]))
    _check_touches(checks, h, tf, constraints, "sentinel")
    return tf.theta


class Sweep:
    """`roconvex all` in process, writing to a fresh temp dir per pass."""

    name = "sweep"
    min_passes = 3

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.artifacts: dict | None = None  # sha256 per artifact, from the first pass
        self.differing: list[str] = []  # artifacts the latest pass changed
        self.theta: np.ndarray | None = None

    def run_pass(self, checks: Checks, k: int, threads: int = 1) -> float:
        out = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.scratch))
        try:
            argv = ["all", "--seed", str(self.seed), "--out", str(out), "--threads", str(threads)]
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = cli.main(argv)
                elapsed = time.perf_counter() - start
            checks.add(code == 0, f"sweep: roconvex all exited {code}")
            manifest = json.loads((out / "all" / "manifest.json").read_text())
            for name, ok in sorted(manifest["checks"].items()):
                checks.add(bool(ok), f"sweep: manifest check {name}")
            if self.artifacts is None:
                self.artifacts = manifest["artifacts"]
                self.theta = _theta_column(out / "theta" / "neg_det_2x2.csv")
            else:
                self.differing = _differing(self.artifacts, manifest["artifacts"])
                checks.add(not self.differing, f"sweep: pass {k} at {threads} threads changed {self.differing}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return elapsed

    def theta_mean(self, checks: Checks) -> float:
        return float(np.mean(self.theta))


def _differing(a: dict, b: dict) -> list[str]:
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def _theta_column(path: Path) -> np.ndarray:
    with path.open() as fh:
        return np.array([float(row["theta"]) for row in csv.DictReader(fh)])


class Openings:
    """theta_field on 13-point ball clouds, then replay and feasibility of every touch.

    The points come in blocks: pass k runs block k mod BLOCKS, 16 points per
    source. `theta_mean` is the mean over all blocks, so every run makes at
    least BLOCKS passes; later passes repeat a block and must reproduce it.
    """

    name = "openings"
    BLOCKS = 5
    POINTS = 16
    SOURCES = ("abs_x11", "abs_det_2x2", "neg_det_2x2_sym", "frob_norm")
    min_passes = BLOCKS

    def __init__(self, seed: int, scratch: Path):
        self.seeds = _seeds(seed, self.BLOCKS, len(self.SOURCES))
        self.theta: dict[int, np.ndarray] = {}
        self.theta_field_s: dict[tuple[int, int], float] = {}

    def run_pass(self, checks: Checks, k: int, threads: int = 1) -> float:
        block = k % self.BLOCKS
        elapsed = field_s = 0.0
        thetas = []
        for i, name in enumerate(self.SOURCES):
            start = time.perf_counter()
            h = get_handle(name)
            constraints = grid_spec(h.shape, 1.0, 13, "ball")
            f = core.sample(h, constraints) if name == "frob_norm" else h
            t0 = time.perf_counter()
            tf = paraboloid.theta_field(
                f, constraints, count=self.POINTS, seed=int(self.seeds[block, i]), threads=threads
            )
            field_s += time.perf_counter() - t0
            _check_touches(checks, f, tf, constraints, f"openings {name}")
            elapsed += time.perf_counter() - start
            thetas.append(tf.theta)
        theta = np.concatenate(thetas)
        if block in self.theta:
            same = np.array_equal(theta, self.theta[block])
            checks.add(same, f"openings: block {block} at {threads} threads changed its openings")
        else:
            self.theta[block] = theta
        self.theta_field_s[(block, threads)] = field_s
        return elapsed

    def theta_mean(self, checks: Checks) -> float:
        return float(np.mean(np.concatenate([self.theta[b] for b in sorted(self.theta)])))


class Envelopes:
    """Cone envelopes of every gradient component, with order, Lipschitz and idempotence.

    frob_norm on an 11-point cube (the large pairwise scans) and neg_det_2x2
    on a 9-point ball mask. The seed moves the grid center and radius.
    """

    name = "envelopes"
    SOURCES = (("frob_norm", 11, "cube"), ("neg_det_2x2", 9, "ball"))
    min_passes = 3

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.radius = 0.75 * float(rng.uniform(0.9, 1.1))
        self.offset = rng.uniform(-0.05, 0.05, size=4)

    def run_pass(self, checks: Checks, k: int, threads: int = 1) -> float:
        start = time.perf_counter()
        for name, points, clip in self.SOURCES:
            h = get_handle(name)
            center = MatrixPoint(h.shape, self.offset[: h.shape.dim])
            fld = core.sample(h, grid_spec(h.shape, self.radius, points, clip, center))
            L = 4.0 * max(1.0, fld.sup_abs())
            for j, src in enumerate(core.gradient_field(fld)):
                pair = envelope.cone_convolutions(src, L)
                order = envelope.sandwich_check(pair).global_order_violation
                lip = max(
                    envelope.envelope_lipschitz_violation(pair.w_minus, L),
                    envelope.envelope_lipschitz_violation(pair.w_plus, L),
                )
                idem = envelope.envelope_idempotence_gap(pair)
                label = f"envelopes {name}[{j}]"
                checks.add(order <= ENVELOPE_TOL, f"{label}: order violation {order:.3e}")
                checks.add(lip <= ENVELOPE_TOL, f"{label}: Lipschitz violation {lip:.3e}")
                checks.add(idem <= ENVELOPE_TOL, f"{label}: idempotence gap {idem:.3e}")
        return time.perf_counter() - start

    def theta_mean(self, checks: Checks) -> float:
        return float(np.mean(sentinel_openings(self.seed, checks)))


class Certify:
    """Convexity verdicts over the corpus, lower-bound certificates, and the 1-D tail.

    Rank-one and separate convexity on all 11 corpus functions with a 32x32
    sampler; an empirical majorant and its certificate on the 10 general-shape
    functions from 5000 ball samples each (25k build points after column
    splitting, for 2x2); the per-line tail of |x_1| on the plane.
    """

    name = "certify"
    SAMPLES = 5000
    min_passes = 3

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.sampler = verify.SegmentSampler(direction_count=32, step_count=32, seed=seed)
        rng = np.random.default_rng(seed)
        self.samples = {
            h.name: ball_samples(h.shape, np.zeros(h.shape.dim), 1.0, self.SAMPLES, rng)
            for h in corpus_mod.corpus()
            if not h.shape.symmetric
        }
        self.t_tail = np.exp(np.linspace(np.log(7.0), np.log(80.0), 8))

    def run_pass(self, checks: Checks, k: int, threads: int = 1) -> float:
        start = time.perf_counter()
        for h in corpus_mod.corpus():
            domain = grid_spec(h.shape, 1.0, 9, "cube")
            r1 = verify.rank_one_convexity_check(h, domain, self.sampler)
            checks.add(
                r1.passes(VERDICT_TOL) == h.flags.rank_one_convex,
                f"certify {h.name}: rank-one verdict {r1.worst_violation:.3e} against its flag",
            )
            sep = verify.separate_convexity_check(h, domain, self.sampler)
            checks.add(
                sep.passes(VERDICT_TOL) == h.flags.separately_convex,
                f"certify {h.name}: separate verdict {sep.worst_violation:.3e} against its flag",
            )
        for h in corpus_mod.corpus():
            if h.shape.symmetric:
                continue
            x0 = np.zeros(h.shape.dim)
            samples = self.samples[h.name]
            majorant = lowerbound.empirical_majorant(h, x0, samples)
            cert = lowerbound.lower_bound_certify(h, x0, majorant, samples, tol=CERTIFY_TOL)
            expected = h.flags.rank_one_convex or (h.flags.separately_convex and h.shape.rows == 1)
            checks.add(cert.passed == expected, f"certify {h.name}: certificate slack {cert.min_slack:.3e}")
            if h.name == "neg_half_norm_sq":
                checks.add(not cert.passed, "certify: the neg_half_norm_sq control was certified")
        tail = convex1d.fubini_tail_experiment(
            abs_entry(0, 0, MatrixShape(1, 2)), self.t_tail, lines_per_direction=48, seed=self.seed, probe_count=6
        )
        elapsed = time.perf_counter() - start
        slope = tail.fitted_slope
        checks.add(slope is not None and abs(slope + 1.0) <= 0.1, f"certify: tail slope {slope}")
        checks.add(
            all(p.axis_bound_ok and p.hull_bound_ok for p in tail.inclusion),
            "certify: tail inclusion bounds",
        )
        return elapsed

    def theta_mean(self, checks: Checks) -> float:
        return float(np.mean(sentinel_openings(self.seed, checks)))


WORKLOADS = {w.name: w for w in (Sweep, Openings, Envelopes, Certify)}
