"""The four benchmark workloads.

Each workload has three parts, all driven by the workload seed:

- ``setup(seed, out_dir)`` builds the inputs (oracle tables, CLI argv);
  it counts towards ``setup_s``.
- ``body(inputs)`` is the timed region. Each call into qregsim is one step;
  an exception escaping a step is caught and fails every op of that step.
- ``check(inputs, outputs)`` counts attempted and failed ops against the
  invariants, and returns the seeded behaviour that the digest covers.

The behaviour holds measurement outcomes, aggregates, ledger rows and check
results, never amplitudes, which a faster kernel may move by ~1e-14.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import qregsim as q
import qregsim.cli
import qregsim.verification

NORM_TOL = 1e-12
DEFERRED_TOL = 1e-12
SOLVER_TOL = 1e-10
# Joint outcomes lighter than this are left out of the digest: their
# presence depends on rounding noise, not on seeded behaviour.
SUPPORT_FLOOR = 1e-9


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    behaviour: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)

    def count(self, ops: int, ok: bool, why: str) -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.failures.append(why)


@dataclass(frozen=True)
class Workload:
    setup: Callable
    body: Callable
    check: Callable
    ops: int  # ops per pass, known from the inputs; a pass that dies fails them all


def _step(fn, *args, **kwargs):
    """Run one step; an escaping exception is returned, not raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # counted as failed ops by check()
        return exc


def _failed(result) -> str | None:
    return f"{type(result).__name__}: {result}" if isinstance(result, BaseException) else None


def _drift(state) -> float:
    return abs(1.0 - float(np.linalg.norm(state.amplitudes)))


def _outcomes(trace) -> list:
    return [[rec.register, rec.outcome] for rec in trace.measurements]


def _seeded_simon_oracle(rng: np.random.Generator, n: int):
    r = int(rng.integers(1, 1 << n))
    return r, q.build_two_to_one(n, r, rng, family="two_to_one_xor")


# wide_states: one 20-qubit Simon run and one 17-qubit period-finding run.

def wide_setup(seed: int, out_dir: str) -> dict:
    rng = np.random.default_rng(seed)
    r, oracle = _seeded_simon_oracle(rng, 10)
    return {"r": r, "oracle": oracle, "rng": rng}


def wide_body(inputs: dict) -> dict:
    rng = inputs["rng"]
    return {
        "simon": _step(q.run_simon, inputs["oracle"], rng),
        "shor": _step(q.run_shor_period, 2, 33, rng),
    }


def wide_check(inputs: dict, outputs: dict) -> Outcome:
    out = Outcome()
    simon, shor = outputs["simon"], outputs["shor"]
    if why := _failed(simon):
        out.count(1, False, f"simon: {why}")
    else:
        z = simon.measurements[-1].outcome
        drift = _drift(simon.checkpoints[-1][1])
        ok = bin(inputs["r"] & z).count("1") % 2 == 0 and drift <= NORM_TOL
        out.count(1, ok, f"simon: z={z} against r={inputs['r']}, drift {drift!r}")
        out.behaviour["simon"] = {"r": inputs["r"], "outcomes": _outcomes(simon)}
    if why := _failed(shor):
        out.count(1, False, f"shor: {why}")
    else:
        trace, result = shor
        p = result.recovered_period
        ok = (p is None or pow(2, p, 33) == 1) and _drift(trace.checkpoints[-1][1]) <= NORM_TOL
        out.count(1, ok, f"shor: period {p} or final norm")
        out.behaviour["shor"] = {"outcomes": _outcomes(trace), "period": p}
    return out


# cli_trials: 2000 narrow Simon trials through the CLI, written as JSON.

CLI_TRIALS = 2000
CLI_R = 3


def cli_setup(seed: int, out_dir: str) -> dict:
    output = os.path.join(out_dir, f"cli-{os.getpid()}.json")
    argv = ["run", "--algo", "simon", "--n", "4", "--r", str(CLI_R), "--seed", str(seed),
            "--trials", str(CLI_TRIALS), "--output", output]
    return {"argv": argv, "output": output}


def cli_body(inputs: dict) -> dict:
    try:
        return {"status": qregsim.cli.main(inputs["argv"])}
    except (Exception, SystemExit) as exc:  # argparse exits through SystemExit
        return {"status": exc}


def cli_check(inputs: dict, outputs: dict) -> Outcome:
    out = Outcome()
    status = outputs["status"]
    if status != 0:
        out.count(CLI_TRIALS, False, f"cli: exit {status!r}")
        return out
    out.facts["cli.output_bytes"] = os.path.getsize(inputs["output"])
    with open(inputs["output"], encoding="utf-8") as handle:
        payload = json.load(handle)
    os.remove(inputs["output"])
    trials = payload["trials"]
    outcomes = []
    for trial in trials:
        z = trial["measurements"][-1]["outcome"]
        final = trial["checkpoints"][-1]["state"]
        norm = sum(rec["re"] ** 2 + rec["im"] ** 2 for rec in final) ** 0.5
        ok = bin(CLI_R & z).count("1") % 2 == 0 and abs(1.0 - norm) <= NORM_TOL
        out.count(1, ok, f"cli trial {trial['trial']}: z={z}, norm {norm!r}")
        outcomes.append([m["outcome"] for m in trial["measurements"]])
    if len(trials) != CLI_TRIALS:
        out.count(CLI_TRIALS - len(trials), False, f"cli: {len(trials)} of {CLI_TRIALS} trials")
    out.behaviour = {"aggregate": payload["aggregate"], "outcomes": outcomes}
    return out


# ledger: the query-count ledger, rows x trials seeded circuit runs.

LEDGER_N = range(2, 9)
LEDGER_TRIALS = 20
LEDGER_OPS = (len(LEDGER_N) + 2) * LEDGER_TRIALS


def ledger_setup(seed: int, out_dir: str) -> dict:
    return {"seed": seed}


def ledger_body(inputs: dict) -> dict:
    return {"rows": _step(q.speedup_ledger, LEDGER_N, trials=LEDGER_TRIALS, seed=inputs["seed"])}


def _row_ok(row) -> bool:
    if row.algorithm == "deutsch":
        return row.quantum_queries_per_run == 1 and row.classical_queries_max == 2
    if row.algorithm == "grover2":
        return row.quantum_queries_per_run == 2 and row.classical_queries_max <= 3
    # Simon needs n-1 independent constraints; a birthday search of a 2-to-1
    # table collides within 2^(n-1) + 1 lookups.
    return (
        row.quantum_queries_per_run == 1
        and row.runs >= row.n - 1
        and row.classical_queries_max <= (1 << (row.n - 1)) + 1
    )


def ledger_check(inputs: dict, outputs: dict) -> Outcome:
    out = Outcome()
    rows = outputs["rows"]
    if why := _failed(rows):
        out.count(LEDGER_OPS, False, f"ledger: {why}")
        return out
    for row in rows:
        out.count(LEDGER_TRIALS, _row_ok(row), f"ledger row {row}")
    out.behaviour = {"rows": q.algorithms.ledger_to_json(rows)}
    return out


# verify_measurement: the golden checks plus analytic uses of measurement.

SOLVER_WIDTH = 8
# A 2-to-1 oracle on n bits takes 2^(n-1) values: that is the Schmidt rank
# of its t2 state and the number of solver calls.
SOLVER_VALUES = 1 << (SOLVER_WIDTH - 1)
# 13 checks, 2 deferred checks, 1 Schmidt rank, the solver calls, 1 premeasurement.
VERIFY_OPS = 13 + 2 + 1 + SOLVER_VALUES + 1


def verify_setup(seed: int, out_dir: str) -> dict:
    rng = np.random.default_rng(seed)
    return {n: _seeded_simon_oracle(rng, n)[1] for n in (6, 7, SOLVER_WIDTH)}


def _solver_gaps(state) -> list:
    """Solver vs project-and-renormalize for every outcome of register v."""
    gaps = []
    for eig, _ in q.outcome_distribution(state, "v").entries:
        solved = q.solve_measurement_constraints(state, "v", eig)
        projected = q.normalize(q.project(state, q.ProjectorSpec("v", eig)))
        gaps.append([eig, float(np.max(np.abs(solved.amplitudes - projected.amplitudes)))])
    return gaps


def _premeasure(t2):
    layout = q.RegisterLayout(t2.layout.registers + (("p", t2.layout.width("v")),))
    embedded = q.state_from_terms(
        layout, ((dict(rec["label"], p=0), complex(rec["re"], rec["im"])) for rec in t2.records())
    )
    return q.von_neumann_premeasurement(embedded, "v", "p")


def verify_body(inputs: dict) -> dict:
    out = {"checks": _step(qregsim.verification.run_all_checks)}
    out["deferred_simon"] = _step(
        q.deferred_equivalence_check, q.simon_staged_circuit(inputs[7]), "t2", "t4"
    )
    out["deferred_shor"] = _step(
        q.deferred_equivalence_check, q.shor_staged_circuit(2, 21), "t2", "t4"
    )
    t2 = _step(lambda: q.run_simon(inputs[SOLVER_WIDTH], measure_v_at_t3=False).state_at("t2"))
    out["t2"] = t2
    out["rank"] = t2 if isinstance(t2, Exception) else _step(q.schmidt_rank, t2, (("a",), ("v",)))
    out["solver"] = t2 if isinstance(t2, Exception) else _step(_solver_gaps, t2)
    t2_small = _step(lambda: q.run_simon(inputs[6], measure_v_at_t3=False).state_at("t2"))
    out["t2_small"] = t2_small
    out["pointer"] = t2_small if isinstance(t2_small, Exception) else _step(_premeasure, t2_small)
    return out


def _support(rows: list) -> list:
    return [sorted(r["outcomes"].items()) for r in rows if r["probability"] > SUPPORT_FLOOR]


def verify_check(inputs: dict, outputs: dict) -> Outcome:
    out = Outcome()
    checks = outputs["checks"]
    if why := _failed(checks):
        out.count(13, False, f"run_all_checks: {why}")
    else:
        for check in checks:
            out.count(1, check.passed, f"{check.name}: {check.detail}")
        out.behaviour["checks"] = [[c.name, c.passed] for c in checks]
    for key in ("deferred_simon", "deferred_shor"):
        report = outputs[key]
        if why := _failed(report):
            out.count(1, False, f"{key}: {why}")
            continue
        diff = report["max_abs_diff"]
        out.count(1, diff < DEFERRED_TOL, f"{key}: max_abs_diff {diff!r}")
        out.behaviour[key] = [_support(report["ordering_a"]), _support(report["ordering_b"])]
    rank = outputs["rank"]
    if why := _failed(rank):
        out.count(1, False, f"schmidt_rank: {why}")
    else:
        drift = _drift(outputs["t2"])
        out.count(1, rank == SOLVER_VALUES and drift <= NORM_TOL, f"rank {rank}, drift {drift!r}")
        out.behaviour["rank"] = rank
    gaps = outputs["solver"]
    if why := _failed(gaps):
        out.count(SOLVER_VALUES, False, f"solver: {why}")
    else:
        for eig, gap in gaps:
            out.count(1, gap <= SOLVER_TOL, f"solver v={eig}: gap {gap!r}")
        if len(gaps) != SOLVER_VALUES:
            out.count(SOLVER_VALUES - len(gaps), False, f"solver: {len(gaps)} outcomes")
        out.behaviour["solver_outcomes"] = [eig for eig, _ in gaps]
    pointer = outputs["pointer"]
    if why := _failed(pointer):
        out.count(1, False, f"premeasure: {why}")
    else:
        born = q.outcome_distribution(outputs["t2_small"], "v").as_dict()
        readout = q.outcome_distribution(pointer, "p").as_dict()
        gap = max(abs(born.get(k, 0.0) - readout.get(k, 0.0)) for k in set(born) | set(readout))
        ok = gap <= NORM_TOL and _drift(pointer) <= NORM_TOL
        out.count(1, ok, f"premeasure: pointer vs Born gap {gap!r}")
        out.behaviour["pointer_outcomes"] = sorted(readout)
    return out


WORKLOADS = {
    "wide_states": Workload(wide_setup, wide_body, wide_check, 2),
    "cli_trials": Workload(cli_setup, cli_body, cli_check, CLI_TRIALS),
    "ledger": Workload(ledger_setup, ledger_body, ledger_check, LEDGER_OPS),
    "verify_measurement": Workload(verify_setup, verify_body, verify_check, VERIFY_OPS),
}
