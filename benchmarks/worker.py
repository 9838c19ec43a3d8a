"""One benchmark pass, run by run.py in a fresh process.

    python3 benchmarks/worker.py WORKLOAD SEED MODE OUT_DIR

MODE is ``plain`` (timed, untraced), ``trace`` (spans recorded)
or ``setup`` (stop where the timed body would start). The pass prints one
JSON line. ``t_body_start`` is read from the system-wide monotonic clock, so
the parent can subtract the moment it spawned this process.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def digest(behaviour: dict) -> str:
    text = json.dumps(behaviour, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_pass(workload: str, seed: int, mode: str, out_dir: str) -> dict:
    import tracing
    import workloads

    spec = workloads.WORKLOADS[workload]
    rec = restore = None
    if mode == "trace":
        rec = tracing.SpanRecorder()
        restore = tracing.install(rec)
        root = rec.begin("bench.setup")
    inputs = spec.setup(seed, out_dir)
    if rec:
        rec.end(root)
        root = rec.begin("bench.body")
    t_body_start = time.monotonic()
    if mode == "setup":
        return {"t_body_start": t_body_start}
    start = time.perf_counter()
    outputs = spec.body(inputs)
    run_s = time.perf_counter() - start
    if rec:
        rec.end(root)
        restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome = spec.check(inputs, outputs)
    result = {
        "t_body_start": t_body_start,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures[:5],
        "digest": digest(outcome.behaviour),
    }
    if rec:
        result["layers"] = tracing.layer_metrics(rec, outcome.facts)
        rec.write(os.path.join(out_dir, f"spans-{workload}-seed{seed}.json"))
    return result


if __name__ == "__main__":
    name, seed_arg, mode_arg, out = sys.argv[1:5]
    print(json.dumps(run_pass(name, int(seed_arg), mode_arg, out)))
