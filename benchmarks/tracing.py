"""Span recorder and per-layer metrics for the traced benchmark run.

The recorder keeps every span (name, start, end, parent) in memory and is
written out once, when the pass ends. Spans come from wrappers installed
from outside the package: every public qregsim function is replaced at
every module-level binding site (``qregsim.gates.hadamard`` and
``qregsim.algorithms.simon.hadamard`` are separate bindings of one
function), plus the few methods the per-layer metrics need. Nothing under
``src/`` is changed.

A span's self time is its duration minus the part of it that its child
spans cover. Child spans of one parent never overlap (one thread), so the
self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

MB = float(1 << 20)

# Layers are the modules under src/qregsim; errors does no work.
SKIPPED_MODULES = ("qregsim.errors",)

# Methods the per-layer metrics need, as (module, class, method).
METHODS = (
    ("qregsim.hilbert", "RegisterLayout", "values"),
    ("qregsim.hilbert", "StateVector", "__post_init__"),
    ("qregsim.hilbert", "StateVector", "records"),
    ("qregsim.oracles", "FunctionOracle", "__post_init__"),
    ("qregsim.oracles", "CountingOracle", "lookup"),
    ("qregsim.algorithms.trace", "AlgorithmTrace", "to_json"),
)

GATE_SPANS = (
    "gates.hadamard",
    "gates.qft",
    "gates.grover_diffusion",
    "gates.apply_function_add",
    "gates.apply_function_xor",
    "gates.apply_function_xor_controlled",
    "gates.apply_phase_oracle",
)
# Cached matrix constructors: their self time belongs to the gate, not its calls.
CACHED_SPANS = ("gates.hadamard_matrix", "gates.fourier_matrix")
MEMORY_SPANS = ("gates.hadamard", "gates.qft")
RUNNER_SPANS = (
    "algorithms.simon.run_simon",
    "algorithms.shor.run_shor_period",
    "algorithms.deutsch.run_deutsch",
    "algorithms.grover.run_grover2",
)

# Metric prefix -> span names whose self times add up to "<prefix>.self_s";
# "<prefix>.calls" counts the spans whose names are not in CACHED_SPANS.
GROUPS = {
    "gates.hadamard": ("gates.hadamard", "gates.hadamard_matrix"),
    "gates.qft": ("gates.qft", "gates.fourier_matrix"),
    "gates.diffusion": ("gates.grover_diffusion",),
    "gates.function": GATE_SPANS[3:],
    "hilbert.values": ("hilbert.RegisterLayout.values",),
    "hilbert.state_init": ("hilbert.StateVector.__post_init__",),
    "hilbert.records": ("hilbert.StateVector.records",),
    "hilbert.normalize": ("hilbert.normalize",),
    "algorithms.trace_to_json": ("algorithms.trace.AlgorithmTrace.to_json",),
    "cli.cmd_run": ("cli.cmd_run",),
    "cli.main": ("cli.main",),
    "measurement.measure": ("measurement.measure", "measurement.measure_forced"),
    "measurement.outcome_distribution": ("measurement.outcome_distribution",),
    "measurement.project": ("measurement.project",),
    "measurement.deferred_check": ("measurement.deferred_equivalence_check",),
    "measurement.schmidt_rank": ("measurement.schmidt_rank",),
    "measurement.solver": ("measurement.solve_measurement_constraints",),
    "measurement.premeasure": ("measurement.von_neumann_premeasurement",),
    "oracles.build": (
        "oracles.build_two_to_one",
        "oracles.build_modexp",
        "oracles.deutsch_family",
        "oracles.kronecker_family",
        "oracles.oracle_from_json",
        "oracles.FunctionOracle.__post_init__",
    ),
    "oracles.classical_solve": ("oracles.classical_collision_solve",),
    "oracles.lookup": ("oracles.CountingOracle.lookup",),
    "algorithms.gf2_solve": ("algorithms.simon.recover_r_from_constraints",),
    "algorithms.run_simon": (RUNNER_SPANS[0],),
    "algorithms.run_shor_period": (RUNNER_SPANS[1],),
    "algorithms.run_deutsch": (RUNNER_SPANS[2],),
    "algorithms.run_grover2": (RUNNER_SPANS[3],),
    "algorithms.runs": RUNNER_SPANS,
}

# The 13 checks run_all_checks() reports, by CheckResult name.
CHECK_NAMES = (
    "simon-checkpoints-fbar1",
    "simon-checkpoints-fbar0",
    "simon-deferred-joint",
    "shor-deferred-joint",
    "constraint-solver-vs-projection",
    "pointer-model-consistency",
    "deutsch-original-checkpoints",
    "deutsch-extended-checkpoints",
    "deutsch-mixture-correlation",
    "grover-standard-checkpoints",
    "grover-extended-checkpoints",
    "shor-comb-support",
    "entanglement-lifecycle",
)

# Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    [
        ("gates.hadamard.calls", "count"),
        ("gates.hadamard.self_s", "s"),
        ("gates.hadamard.peak_alloc_mb", "MB"),
        ("gates.qft.calls", "count"),
        ("gates.qft.self_s", "s"),
        ("gates.qft.peak_alloc_mb", "MB"),
        ("gates.diffusion.self_s", "s"),
        ("gates.function.calls", "count"),
        ("gates.function.self_s", "s"),
        ("gates.amps", "count"),
        ("gates.ns_per_amp", "ns"),
        ("hilbert.values.calls", "count"),
        ("hilbert.values.self_s", "s"),
        ("hilbert.state_init.calls", "count"),
        ("hilbert.state_init.self_s", "s"),
        ("hilbert.max_state_mb", "MB"),
        ("hilbert.records.self_s", "s"),
        ("hilbert.records.rows", "count"),
        ("algorithms.trace_to_json.self_s", "s"),
        ("cli.cmd_run.self_s", "s"),
        ("cli.emit_s", "s"),
        ("cli.output_bytes", "B"),
        ("measurement.measure.calls", "count"),
        ("measurement.measure.self_s", "s"),
        ("measurement.outcome_distribution.self_s", "s"),
        ("measurement.project.self_s", "s"),
        ("hilbert.normalize.self_s", "s"),
        ("measurement.deferred_check.self_s", "s"),
        ("measurement.deferred_check.branches", "count"),
        ("measurement.schmidt_rank.self_s", "s"),
        ("measurement.solver.self_s", "s"),
        ("measurement.premeasure.self_s", "s"),
    ]
    + [(f"verification.{name}.s", "s") for name in CHECK_NAMES]
    + [
        ("oracles.build.self_s", "s"),
        ("oracles.classical_solve.self_s", "s"),
        ("oracles.lookups", "count"),
        ("algorithms.gf2_solve.self_s", "s"),
        ("algorithms.run_simon.self_s", "s"),
        ("algorithms.run_shor_period.self_s", "s"),
        ("algorithms.run_deutsch.self_s", "s"),
        ("algorithms.run_grover2.self_s", "s"),
        ("algorithms.runs", "count"),
        ("algorithms.simon_useful_ratio", "ratio"),
        ("algorithms.shor_period_found_ratio", "ratio"),
        ("trace.wall_s", "s"),
        ("trace.run_s", "s"),
        ("trace.layer_self_s", "s"),
        ("trace.overhead", "ratio"),
    ]
)


class SpanRecorder:
    """In-memory spans plus counters taken at the same boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} ended out of order")

    def duration(self, index: int) -> float:
        _, start, end, _ = self.spans[index]
        return end - start

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        out = [self.duration(i) for i in range(len(self.spans))]
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                out[parent] -= self.duration(i)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, handle)


def _observe(rec: SpanRecorder, name: str, index: int, args, result) -> None:
    """Counts taken at a span boundary, after the span has ended."""
    if name in GATE_SPANS:
        rec.counters["gates.amps"] += args[0].layout.dim
    elif name == "hilbert.StateVector.__post_init__":
        mb = args[0].layout.dim * 16 / MB
        rec.counters["hilbert.max_state_mb"] = max(rec.counters["hilbert.max_state_mb"], mb)
    elif name == "hilbert.StateVector.records":
        rec.counters["hilbert.records.rows"] += len(result)
    elif name == "measurement.deferred_equivalence_check":
        for ordering in ("ordering_a", "ordering_b"):
            deferred = {next(iter(row["outcomes"].values())) for row in result[ordering]}
            rec.counters["measurement.deferred_check.branches"] += len(deferred)
    elif name.startswith("verification.check_"):
        rec.counters[f"verification.{result.name}.s"] += rec.duration(index)
    elif name == "algorithms.simon.solve_simon":
        rec.counters["simon.useful"] += args[0].domain_width - 1
        rec.counters["simon.runs"] += result.runs_used
    elif name == "algorithms.shor.run_shor_period":
        rec.counters["shor.runs"] += 1
        rec.counters["shor.found"] += result[1].recovered_period is not None


def _wrap(fn, name: str, rec: SpanRecorder):
    track_memory = name in MEMORY_SPANS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        # tracemalloc runs only inside the gates it measures: left on for
        # the whole pass it slows the pure-Python JSON encoder eightfold.
        measure = track_memory and not tracemalloc.is_tracing()
        if measure:
            tracemalloc.start()
        index = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(index)
            if measure:
                peak = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()
                key = f"{name}.peak_alloc_mb"
                rec.counters[key] = max(rec.counters[key], peak)
        _observe(rec, name, index, args, result)
        return result

    wrapper.__bench_wrapped__ = fn
    return wrapper


def span_name(fn) -> str:
    module = fn.__module__.removeprefix("qregsim.")
    return f"{module}.{fn.__qualname__}"


def _is_public_function(name: str, obj) -> bool:
    if name.startswith("_"):
        return False
    if not (inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)):
        return False
    return obj.__module__.startswith("qregsim.") and obj.__module__ not in SKIPPED_MODULES


def qregsim_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if (name == "qregsim" or name.startswith("qregsim.")) and name not in SKIPPED_MODULES
    ]


def install(rec: SpanRecorder):
    """Wrap every binding site; returns a function that undoes it."""
    undo = []
    wrappers: dict[int, object] = {}
    for module in qregsim_modules():
        for attr, obj in list(vars(module).items()):
            if not _is_public_function(attr, obj):
                continue
            if id(obj) not in wrappers:
                wrappers[id(obj)] = _wrap(obj, span_name(obj), rec)
            undo.append((module, attr, obj))
            setattr(module, attr, wrappers[id(obj)])
    for module_name, cls_name, method in METHODS:
        cls = getattr(sys.modules[module_name], cls_name)
        original = cls.__dict__[method]
        undo.append((cls, method, original))
        setattr(cls, method, _wrap(original, span_name(original), rec))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def layer_metrics(rec: SpanRecorder, facts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    The recorder must hold exactly two roots, "bench.setup" and
    "bench.body"; ``facts`` carries values the workload measured from its
    outputs (the CLI output size).
    """
    self_times = rec.self_times()
    by_name_self: dict[str, float] = defaultdict(float)
    by_name_calls: dict[str, int] = defaultdict(int)
    roots = {}
    for i, (name, _, _, parent) in enumerate(rec.spans):
        if parent < 0:
            roots[name] = i
            continue
        by_name_self[name] += self_times[i]
        by_name_calls[name] += 1
    out: dict[str, float] = {}
    for prefix, names in GROUPS.items():
        out[f"{prefix}.self_s"] = sum(by_name_self[n] for n in names)
        out[f"{prefix}.calls"] = sum(by_name_calls[n] for n in names if n not in CACHED_SPANS)
    counters = rec.counters
    gate_self = sum(out[f"gates.{g}.self_s"] for g in ("hadamard", "qft", "diffusion", "function"))
    amps = counters["gates.amps"]
    metrics = {name: out.get(name, counters.get(name, 0.0)) for name, _ in PER_LAYER}
    metrics.update(
        {
            "gates.amps": amps,
            "gates.ns_per_amp": 1e9 * gate_self / amps if amps else 0.0,
            "cli.emit_s": out["cli.main.self_s"],
            "cli.output_bytes": float(facts.get("cli.output_bytes", 0)),
            "oracles.lookups": out["oracles.lookup.calls"],
            "algorithms.runs": out["algorithms.runs.calls"],
            "algorithms.simon_useful_ratio": _ratio(counters["simon.useful"], counters["simon.runs"]),
            "algorithms.shor_period_found_ratio": _ratio(counters["shor.found"], counters["shor.runs"]),
            "trace.wall_s": sum(rec.duration(i) for i in roots.values()),
            "trace.run_s": rec.duration(roots["bench.body"]),
            "trace.layer_self_s": sum(by_name_self.values()),
            "trace.overhead": 0.0,  # run.py fills this in from the untraced passes
        }
    )
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
