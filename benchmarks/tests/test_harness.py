"""Self-tests of the pass process and of run.py's refusal to run.

Run with: python3 -m pytest benchmarks/tests
"""

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")


def _pass(workload, seed, mode, out_dir):
    proc = subprocess.run(
        [sys.executable, WORKER, workload, str(seed), mode, str(out_dir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_two_passes_of_a_seed_give_the_same_digest(tmp_path):
    first = _pass("verify_measurement", 3, "plain", tmp_path)
    second = _pass("verify_measurement", 3, "plain", tmp_path)
    other = _pass("verify_measurement", 4, "plain", tmp_path)
    assert first["failed"] == 0 and first["attempted"] == 145
    assert first["digest"] == second["digest"]
    assert other["digest"] != first["digest"]


def test_traced_self_times_cover_the_traced_wall_time(tmp_path):
    layers = _pass("verify_measurement", 3, "trace", tmp_path)["layers"]
    assert layers["verification.entanglement-lifecycle.s"] > 0
    assert layers["measurement.solver.self_s"] > 0
    assert layers["gates.qft.peak_alloc_mb"] > 0
    assert 0.9 * layers["trace.wall_s"] < layers["trace.layer_self_s"] <= layers["trace.wall_s"]
    assert (tmp_path / "spans-verify_measurement-seed3.json").is_file()


def test_run_refuses_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "ledger", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
