"""Span tracing of roconvex's public functions, installed from outside the package.

`Tracer.install()` replaces each traced function with a wrapper that records a
span (name, start, end, parent span, pass id) and restores every original on
`uninstall()`. A function is patched everywhere the package holds a reference
to it: its defining module, every roconvex module that imported the name
(`paraboloid.make_grid`, `cli.sample`, ...), and module-level dicts such as
the CLI's pipeline table. Calls through module globals, like `theta_field`'s
inner `solve` reaching `theta_upper`, therefore land in the wrapper too.

Spans stay in memory; `dump()` writes them out once the run is over.
Self time is a span's duration minus the time its direct children cover.
Traced passes run at one thread, so one span stack serves every call.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (span name, module, attribute); "Class.method" patches the class attribute.
TARGETS = (
    ("core.make_grid", "roconvex.core", "make_grid"),
    ("core.sample", "roconvex.core", "sample"),
    ("core.gradient_field", "roconvex.core", "gradient_field"),
    ("core.interpolate", "roconvex.core", "SampledField.interpolate"),
    ("corpus.corpus", "roconvex.corpus", "corpus"),
    ("paraboloid.theta_field", "roconvex.paraboloid", "theta_field"),
    ("paraboloid.theta_upper", "roconvex.paraboloid", "theta_upper"),
    ("paraboloid.replay", "roconvex.paraboloid", "replay_opening"),
    ("paraboloid.feasibility", "roconvex.paraboloid", "touch_feasibility_gap"),
    ("paraboloid.tail", "roconvex.paraboloid", "tail_experiment"),
    ("envelope.cone_convolutions", "roconvex.envelope", "cone_convolutions"),
    ("envelope.sandwich", "roconvex.envelope", "sandwich_check"),
    ("envelope.lipschitz", "roconvex.envelope", "envelope_lipschitz_violation"),
    ("envelope.idempotence", "roconvex.envelope", "envelope_idempotence_gap"),
    ("envelope.remainder", "roconvex.envelope", "second_order_remainder"),
    ("lowerbound.empirical_majorant", "roconvex.lowerbound", "empirical_majorant"),
    ("lowerbound.certify", "roconvex.lowerbound", "lower_bound_certify"),
    ("verify.rank_one", "roconvex.verify", "rank_one_convexity_check"),
    ("verify.separate", "roconvex.verify", "separate_convexity_check"),
    ("verify.mollify", "roconvex.verify", "mollify"),
    ("verify.node_operator", "roconvex.verify", "viscosity_subharmonic_check"),
    ("verify.node_operator", "roconvex.verify", "symmetric_operator_check"),
    ("convex1d.fubini_tail", "roconvex.convex1d", "fubini_tail_experiment"),
    ("convex1d.weak11", "roconvex.convex1d", "weak_one_one_check"),
    ("convex1d.taylor", "roconvex.convex1d", "convex_taylor_check"),
    ("convex1d.l1_ball", "roconvex.convex1d", "l1_ball_containment"),
    ("fieldio.write", "roconvex.fieldio", "write_field"),
    ("fieldio.write", "roconvex.fieldio", "write_csv"),
    ("fieldio.write", "roconvex.fieldio", "write_json"),
    ("fieldio.sha256", "roconvex.fieldio", "sha256_file"),
    ("cli.main", "roconvex.cli", "main"),
    ("cli.verify", "roconvex.cli", "run_verify"),
    ("cli.theta", "roconvex.cli", "run_theta"),
    ("cli.tail", "roconvex.cli", "run_tail"),
    ("cli.envelope", "roconvex.cli", "run_envelope"),
    ("cli.lemma", "roconvex.cli", "run_lemma"),
    ("cli.appendix", "roconvex.cli", "run_appendix"),
)


@dataclass
class Pass:
    """What one traced pass recorded: (duration, self time) per span name, counters, samples."""

    spans: dict[str, list[tuple[float, float]]]
    counters: dict[str, float]
    samples: dict[str, list[float]]


def _calls(name):
    return lambda p: float(len(p.spans.get(name, ())))


def _self_s(*names):
    return lambda p: float(sum(s for name in names for _, s in p.spans.get(name, ())))


def _total_s(name):
    return lambda p: float(sum(d for d, _ in p.spans.get(name, ())))


def _counter(key):
    return lambda p: float(p.counters.get(key, 0.0))


def _mean(key):
    return lambda p: float(np.mean(p.samples[key])) if p.samples.get(key) else 0.0


def _solve_ms(q):
    def metric(p: Pass) -> float:
        ms = [1000.0 * d for d, _ in p.spans.get("paraboloid.theta_upper", ())]
        return float(np.percentile(ms, q)) if ms else 0.0

    return metric


def _cli_self_s(p: Pass) -> float:
    return _self_s(*(name for name in p.spans if name.startswith("cli.")))(p)


# Per-layer metric -> (unit, better, what it should move, how a pass yields it).
# BENCHMARK.json's `per_layer` list mirrors the first two fields; the
# self-tests keep them equal. Metrics without a function are set by run.py.
PER_LAYER = {
    "core.make_grid.calls": ("count", "lower", "wall_s on openings and envelopes", _calls("core.make_grid")),
    "core.make_grid.self_s": ("s", "lower", "wall_s on openings and envelopes", _self_s("core.make_grid")),
    "core.sample.self_s": ("s", "lower", "wall_s on openings and envelopes", _self_s("core.sample")),
    "core.gradient_field.self_s": ("s", "lower", "wall_s on envelopes", _self_s("core.gradient_field")),
    "core.interpolate.calls": ("count", "lower", "wall_s on openings", _calls("core.interpolate")),
    "core.interpolate.self_s": ("s", "lower", "wall_s on openings", _self_s("core.interpolate")),
    "corpus.points_evaluated": ("count", "lower", "wall_s on certify and openings", _counter("corpus.points")),
    "corpus.eval_s": ("s", "lower", "wall_s on certify and openings", _self_s("corpus.eval")),
    "paraboloid.theta_upper.calls": ("count", "lower", "wall_s on openings and sweep", _calls("paraboloid.theta_upper")),
    "paraboloid.theta_upper.self_s": ("s", "lower", "wall_s on openings and sweep", _self_s("paraboloid.theta_upper")),
    "paraboloid.theta_upper.ms_p50": ("ms", "lower", "wall_s on openings and sweep", _solve_ms(50)),
    "paraboloid.theta_upper.ms_p95": ("ms", "lower", "wall_s on openings and sweep", _solve_ms(95)),
    "paraboloid.iterations_mean": ("count", "lower", "wall_s and theta_mean on openings", _mean("paraboloid.iterations")),
    "paraboloid.constraints_per_solve": ("count", "lower", "wall_s on openings", _mean("paraboloid.constraints")),
    "paraboloid.replay.self_s": ("s", "lower", "wall_s on openings", _self_s("paraboloid.replay")),
    "paraboloid.theta_field.speedup_2t": ("ratio", "higher", "wall_s on openings at --threads 2", None),
    "envelope.cone_convolutions.self_s": (
        "s", "lower", "wall_s and peak_rss_mb on envelopes", _self_s("envelope.cone_convolutions")
    ),
    "envelope.lipschitz.self_s": ("s", "lower", "wall_s and peak_rss_mb on envelopes", _self_s("envelope.lipschitz")),
    "envelope.idempotence.self_s": (
        "s", "lower", "wall_s and peak_rss_mb on envelopes", _self_s("envelope.idempotence")
    ),
    "envelope.remainder.self_s": ("s", "lower", "wall_s on sweep", _self_s("envelope.remainder")),
    "envelope.pairs_scanned": ("count", "lower", "wall_s and peak_rss_mb on envelopes", _counter("envelope.pairs")),
    "lowerbound.empirical_majorant.self_s": (
        "s", "lower", "wall_s on certify and sweep", _self_s("lowerbound.empirical_majorant")
    ),
    "lowerbound.build_points": ("count", "lower", "wall_s on certify and sweep", _counter("lowerbound.build_points")),
    "lowerbound.certify.self_s": ("s", "lower", "wall_s on certify and sweep", _self_s("lowerbound.certify")),
    "verify.rank_one.self_s": ("s", "lower", "wall_s on certify and sweep", _self_s("verify.rank_one")),
    "verify.separate.self_s": ("s", "lower", "wall_s on certify and sweep", _self_s("verify.separate")),
    "verify.samples_checked": ("count", "higher", "passed_frac on certify and sweep", _counter("verify.checked")),
    "verify.samples_skipped": ("count", "lower", "passed_frac on certify and sweep", _counter("verify.skipped")),
    "verify.mollify.self_s": ("s", "lower", "wall_s on sweep", _self_s("verify.mollify")),
    "verify.node_operator.self_s": ("s", "lower", "wall_s on sweep", _self_s("verify.node_operator")),
    "convex1d.fubini_tail.self_s": ("s", "lower", "wall_s on sweep and certify", _self_s("convex1d.fubini_tail")),
    "convex1d.weak11.self_s": ("s", "lower", "wall_s on sweep", _self_s("convex1d.weak11")),
    "convex1d.taylor.self_s": ("s", "lower", "wall_s on sweep", _self_s("convex1d.taylor")),
    "convex1d.l1_ball.self_s": ("s", "lower", "wall_s on sweep", _self_s("convex1d.l1_ball")),
    "fieldio.write.calls": ("count", "lower", "wall_s on sweep", _calls("fieldio.write")),
    "fieldio.bytes_written": ("count", "lower", "wall_s on sweep", _counter("fieldio.bytes")),
    "fieldio.write_s": ("s", "lower", "wall_s on sweep", _self_s("fieldio.write")),
    "fieldio.sha256_s": ("s", "lower", "wall_s on sweep", _self_s("fieldio.sha256")),
    "cli.verify.s": ("s", "lower", "wall_s on sweep", _total_s("cli.verify")),
    "cli.theta.s": ("s", "lower", "wall_s on sweep", _total_s("cli.theta")),
    "cli.tail.s": ("s", "lower", "wall_s on sweep", _total_s("cli.tail")),
    "cli.envelope.s": ("s", "lower", "wall_s on sweep", _total_s("cli.envelope")),
    "cli.lemma.s": ("s", "lower", "wall_s on sweep", _total_s("cli.lemma")),
    "cli.appendix.s": ("s", "lower", "wall_s on sweep", _total_s("cli.appendix")),
    "cli.self_s": ("s", "lower", "wall_s on sweep", _cli_self_s),
    "cli.artifacts_differ_2t": ("count", "lower", "passed_frac on sweep at --threads 2", None),
    "trace.overhead_frac": ("ratio", "lower", "nothing: traced over untraced wall_s, minus 1", None),
}


def _resolve(module_name: str, attr: str) -> tuple[object, str]:
    owner: object = sys.modules[module_name]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory spans and counters for traced passes of one workload."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.samples: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.pass_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, object, object]] = []  # (owner, key, original)
        self._grid_nodes: dict[object, int] = {}

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: float) -> None:
        self.counters[self.pass_id][key] += amount

    def sample(self, key: str, value: float) -> None:
        self.samples[self.pass_id][key].append(value)

    def _wrap(self, name: str, fn, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent, tracer.pass_id))
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.pass_id)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every traced function wherever roconvex holds a reference to it."""
        from roconvex.corpus import FunctionHandle

        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sys.modules.items() if n == "roconvex" or n.startswith("roconvex.")]
        for name, module_name, attr in TARGETS:
            owner, key = _resolve(module_name, attr)
            original = getattr(owner, key)
            wrapper = self._wrap(name, original, _HOOKS.get(name))
            if owner is not sys.modules[module_name]:  # a method on a class
                self._patch(owner, key, wrapper)
                continue
            for module in modules:
                for mod_key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, mod_key, wrapper)
                    elif isinstance(value, dict):
                        for dict_key, item in list(value.items()):
                            if item is original:
                                self._patch(value, dict_key, wrapper)
        self._patch(FunctionHandle, "__init__", self._counting_init(FunctionHandle.__init__))

    def _patch(self, owner, key, replacement) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = replacement
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, replacement)

    def uninstall(self) -> None:
        """Put every original back, in reverse order of patching."""
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def _counting_init(self, original_init):
        """Handles built while tracing count and time every evaluation of `value`."""
        tracer = self

        def __init__(handle, *args, **kwargs):
            original_init(handle, *args, **kwargs)
            value = handle.value
            if getattr(value, "_bench_counted", False):
                return

            def counted(mats):
                if not tracer._patches:  # tracing is over: behave as the original
                    return value(mats)
                tracer.count("corpus.points", int(np.prod(np.shape(mats)[:-2])))
                return traced_value(mats)

            traced_value = tracer._wrap("corpus.eval", value)
            counted._bench_counted = True
            object.__setattr__(handle, "value", counted)

        return __init__

    def grid_nodes(self, spec) -> int:
        """Valid nodes of a constraint grid, from array sizes, cached per spec."""
        if spec not in self._grid_nodes:
            from roconvex.core import make_grid

            original = getattr(make_grid, "__wrapped__", make_grid)
            self._grid_nodes[spec] = int(np.sum(original(spec).mask))
        return self._grid_nodes[spec]

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[k] for k, (_, start, end, _, _) in enumerate(self.spans)]

    def pass_metrics(self, pass_ids) -> dict[str, float]:
        """Per-layer metrics for each traced pass, reduced by the median over passes."""
        selfs = self.self_times()
        per_pass = []
        for pid in pass_ids:
            spans: dict[str, list[tuple[float, float]]] = defaultdict(list)
            for k, (name, start, end, _, p) in enumerate(self.spans):
                if p == pid:
                    spans[name].append((end - start, selfs[k]))
            recorded = Pass(spans, self.counters[pid], self.samples[pid])
            per_pass.append({name: fn(recorded) for name, (*_, fn) in PER_LAYER.items() if fn})
        return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "pass"]
        rows = [list(span) for span in self.spans]
        path.write_text(json.dumps({"fields": fields, "spans": rows}) + "\n")


# -- hooks: counts taken from arguments and results, outside the span --------


def _theta_upper_hook(tracer, args, kwargs, touch) -> None:
    constraints = args[2] if len(args) > 2 else kwargs["constraints"]
    tracer.sample("paraboloid.iterations", touch.iterations)
    tracer.sample("paraboloid.constraints", tracer.grid_nodes(constraints))


def _cone_hook(tracer, args, kwargs, pair) -> None:
    source = args[0] if args else kwargs["source"]
    tracer.count("envelope.pairs", 2 * int(np.sum(pair.w_minus.mask)) * int(np.sum(source.mask)))


def _lipschitz_hook(tracer, args, kwargs, result) -> None:
    fld = args[0] if args else kwargs["fld"]
    tracer.count("envelope.pairs", int(np.sum(fld.mask)) ** 2)


def _idempotence_hook(tracer, args, kwargs, result) -> None:
    pair = args[0] if args else kwargs["pair"]
    for fld in (pair.w_minus, pair.w_plus):
        tracer.count("envelope.pairs", int(np.sum(fld.mask)) ** 2)


def _majorant_hook(tracer, args, kwargs, result) -> None:
    f = args[0] if args else kwargs["f"]
    samples = args[2] if len(args) > 2 else kwargs["samples"]
    augment = args[4] if len(args) > 4 else kwargs.get("augment_columns", True)
    n = int(np.shape(samples)[0])
    tracer.count("lowerbound.build_points", n * (1 + 2 * f.shape.cols) if augment else n)


def _convexity_hook(tracer, args, kwargs, report) -> None:
    tracer.count("verify.checked", report.samples_checked)
    tracer.count("verify.skipped", report.samples_skipped)


def _write_hook(tracer, args, kwargs, path) -> None:
    tracer.count("fieldio.bytes", Path(path).stat().st_size)


_HOOKS = {
    "paraboloid.theta_upper": _theta_upper_hook,
    "envelope.cone_convolutions": _cone_hook,
    "envelope.lipschitz": _lipschitz_hook,
    "envelope.idempotence": _idempotence_hook,
    "lowerbound.empirical_majorant": _majorant_hook,
    "verify.rank_one": _convexity_hook,
    "verify.separate": _convexity_hook,
    "fieldio.write": _write_hook,
}
