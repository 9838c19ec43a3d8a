"""qregsim benchmark: runs one workload (or all) and prints its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and measures the package under
``src/`` as it stands; nothing is installed. Every pass is a fresh process
(``worker.py``), started one at a time, so ``ru_maxrss`` and the cold
``lru_cache`` matrices belong to that pass alone. Passes repeat until S
seconds have gone by.

``--trace 0`` reports the end-to-end metrics (medians over passes):

    setup_s      spawn of the pass process to the start of its timed body
    run_s        wall time of the timed body
    ops_per_s    completed ops / run_s
    peak_rss_mb  ru_maxrss of the pass process, in MB of 2^20 bytes

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.PER_LAYER`` (medians over traced passes),
with ``trace.overhead`` = traced run_s / untraced run_s.

The human-readable report, including ``error_rate``, the run_s quartiles
and the behaviour digest, goes to stdout first; the last line is one JSON
object with the keys correct, attempted, failed and metrics. Full results
and the environment are written to ``.bench_out/``. ``--workload all``
runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("wide_states", "cli_trials", "ledger", "verify_measurement")
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("ops_per_s", "ops/s"), ("peak_rss_mb", "MB"))
MIN_SETUP_SAMPLES = 5
# A run must finish within 180 s; no pass starts that could end past this.
PASS_DEADLINE_S = 160.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment(seed: int) -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": nproc(),
        "commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
    }


def source_digest() -> str:
    """Hash of src/, which identifies the code where no git metadata exists."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    h.update(handle.read())
    return h.hexdigest()


def spawn(workload: str, seed: int, mode: str, started: float) -> dict:
    """One pass; a pass that crashes or times out comes back as an error."""
    timeout = max(5.0, PASS_DEADLINE_S + 15.0 - (time.monotonic() - started))
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, workload, str(seed), mode, OUT_DIR],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"timed out after {timeout:.0f} s", "wall_s": time.monotonic() - t_spawn}
    wall_s = time.monotonic() - t_spawn
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"mode": mode, "error": tail[0], "wall_s": wall_s}
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    sample.update(mode=mode, wall_s=wall_s, setup_s=sample["t_body_start"] - t_spawn)
    return sample


def run_passes(workload: str, seed: int, seconds: int, modes: tuple[str, ...]) -> list[dict]:
    """Cycle through ``modes`` until ``seconds`` have passed and each mode ran."""
    started = time.monotonic()
    samples: list[dict] = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - started
        missing = [m for m in modes if not any(s["mode"] == m for s in samples)]
        if not missing and (elapsed >= seconds or elapsed + longest > PASS_DEADLINE_S):
            break
        samples.append(spawn(workload, seed, modes[len(samples) % len(modes)], started))
        longest = max(longest, samples[-1]["wall_s"])
    if "trace" not in modes:
        setups = sum(1 for s in samples if "setup_s" in s)
        for _ in range(MIN_SETUP_SAMPLES - setups):
            samples.append(spawn(workload, seed, "setup", started))
    return samples


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def summarize(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import tracing
    from workloads import WORKLOADS

    samples = run_passes(workload, seed, seconds, ("plain", "trace") if trace else ("plain",))
    timed = [s for s in samples if s["mode"] != "setup" and "error" not in s]
    plain = [s for s in timed if s["mode"] == "plain"]
    errors = [s for s in samples if "error" in s]
    died = sum(1 for s in errors if s["mode"] != "setup")  # a dead pass fails all its ops
    attempted = sum(s["attempted"] for s in timed) + WORKLOADS[workload].ops * died
    failed = sum(s["failed"] for s in timed) + WORKLOADS[workload].ops * died
    digests = sorted({s["digest"] for s in timed})
    if not plain or (trace and len(timed) == len(plain)):
        raise RuntimeError(f"{workload}: no usable pass: {[s.get('error') for s in errors]}")
    run_s = [s["run_s"] for s in plain]
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(timed),
        "run_s_quartiles": quartiles(run_s),
        "error_rate": failed / attempted,
        "digests": digests,
        "failures": [f for s in timed for f in s["failures"]] + [s["error"] for s in errors],
    }
    if trace:
        layers = tracing.median_metrics([s["layers"] for s in timed if s["mode"] == "trace"])
        layers["trace.overhead"] = layers["trace.run_s"] / statistics.median(run_s)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracing.PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in samples if "setup_s" in s),
            "run_s": statistics.median(run_s),
            "ops_per_s": statistics.median((s["attempted"] - s["failed"]) / s["run_s"] for s in plain),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    report.update(
        correct=failed == 0 and not errors and len(digests) == 1,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        samples=samples,
    )
    return report


def print_report(report: dict) -> None:
    print(f"== {report['workload']} (seed {report['seed']}, trace {report['trace']}, "
          f"{report['passes']} passes)")
    for name, metric in report["metrics"].items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    q1, q2, q3 = report["run_s_quartiles"]
    print(f"  {'run_s quartiles (untraced)':44s} {q1:.4f} / {q2:.4f} / {q3:.4f} s")
    print(f"  {'error_rate':44s} {report['error_rate']:.6g} ratio "
          f"({report['failed']} of {report['attempted']} ops failed)")
    print(f"  {'digest':44s} {' '.join(report['digests'])}")
    for failure in report["failures"][:5]:
        print(f"  failure: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qregsim", "__init__.py")):
        print(f"no qregsim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(nproc())
    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        report = summarize(name, args.seed, args.seconds, bool(args.trace))
        report["env"] = env
        path = os.path.join(OUT_DIR, f"results-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
        print_report(report)
        reports.append(report)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
