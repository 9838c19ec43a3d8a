"""Self-tests of the span recorder and of the binding-site wrappers.

Run with: python3 -m pytest benchmarks/tests
"""

import json
import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import qregsim  # noqa: E402
import qregsim.algorithms.simon  # noqa: E402
import qregsim.cli  # noqa: E402
import qregsim.gates  # noqa: E402
import qregsim.verification  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _recorder(times):
    ticks = iter(times)
    return tracing.SpanRecorder(clock=lambda: next(ticks))


def test_self_time_is_duration_minus_children():
    rec = _recorder([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    root = rec.begin("root")
    a = rec.begin("a")
    b = rec.begin("b")
    rec.end(b)  # b: 2..3
    rec.end(a)  # a: 1..4
    c = rec.begin("c")
    rec.end(c)  # c: 5..9
    rec.end(root)  # root: 0..10
    selfs = rec.self_times()
    assert selfs == [3.0, 2.0, 1.0, 4.0]
    assert sum(selfs) == rec.duration(root)
    assert [span[3] for span in rec.spans] == [-1, 0, 1, 0]


def test_layer_metrics_group_self_times_and_counts():
    rec = _recorder([0.0, 0.5, 1.0, 1.25, 2.0, 3.0, 3.5, 7.0, 8.0, 10.0])
    setup = rec.begin("bench.setup")
    rec.end(rec.begin("oracles.build_two_to_one"))  # 0.5..1.0
    rec.end(setup)  # 0..1.25
    body = rec.begin("bench.body")  # 2..10
    h = rec.begin("gates.hadamard")  # 3..8
    rec.end(rec.begin("gates.hadamard_matrix"))  # 3.5..7
    rec.end(h)
    rec.end(body)
    metrics = tracing.layer_metrics(rec, {"cli.output_bytes": 7})
    assert metrics["gates.hadamard.calls"] == 1
    assert metrics["gates.hadamard.self_s"] == 5.0
    assert metrics["oracles.build.self_s"] == 0.5
    assert metrics["trace.run_s"] == 8.0
    assert metrics["trace.wall_s"] == 9.25
    assert metrics["trace.layer_self_s"] == 5.5
    assert metrics["cli.output_bytes"] == 7
    assert set(metrics) == {name for name, _ in tracing.PER_LAYER}


def _public_functions(module):
    for attr, obj in vars(module).items():
        original = getattr(obj, "__bench_wrapped__", obj)
        if tracing._is_public_function(attr, original):
            yield attr, obj


def test_install_wraps_every_binding_site_and_restores():
    rec = tracing.SpanRecorder()
    before = {m.__name__: dict(_public_functions(m)) for m in tracing.qregsim_modules()}
    restore = tracing.install(rec)
    try:
        wrapped = 0
        for module in tracing.qregsim_modules():
            for attr, obj in _public_functions(module):
                assert hasattr(obj, "__bench_wrapped__"), f"{module.__name__}.{attr}"
                wrapped += 1
        assert wrapped > 100
        assert qregsim.algorithms.simon.hadamard is qregsim.gates.hadamard
        assert qregsim.gates.hadamard.__bench_wrapped__ is before["qregsim.gates"]["hadamard"]
        for attr in vars(qregsim.verification):
            if attr.startswith("check_"):
                assert hasattr(getattr(qregsim.verification, attr), "__bench_wrapped__")
        for module_name, cls_name, method in tracing.METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            assert hasattr(cls.__dict__[method], "__bench_wrapped__")

        oracle = qregsim.build_two_to_one(3, 5, np.random.default_rng(0))
        root = rec.begin("bench.body")
        qregsim.run_simon(oracle, np.random.default_rng(1))
        rec.end(root)
        names = [span[0] for span in rec.spans]
        assert "algorithms.simon.run_simon" in names
        assert names.count("gates.hadamard") == 2
        assert "hilbert.StateVector.__post_init__" in names
        under_root = [s for i, s in enumerate(rec.self_times()) if i >= names.index("bench.body")]
        assert abs(sum(under_root) - rec.duration(names.index("bench.body"))) < 1e-9
    finally:
        restore()
    after = {m.__name__: dict(_public_functions(m)) for m in tracing.qregsim_modules()}
    assert after == before
    for module_name, cls_name, method in tracing.METHODS:
        cls = getattr(sys.modules[module_name], cls_name)
        assert not hasattr(cls.__dict__[method], "__bench_wrapped__")


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
