"""Oracle-use bookkeeping: quantum runs vs classical baselines.

Each row compares, for one algorithm and problem size, the oracle uses per
quantum run (and the mean number of runs needed to finish the job) against
measured lookup counts of the classical baseline solving the same problem.
Everything is measured by counting actual calls; nothing asymptotic is
claimed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass

import numpy as np

from ..oracles import (
    CountingOracle,
    FunctionOracle,
    build_two_to_one,
    classical_collision_solve,
    deutsch_family,
    kronecker_family,
)
from .deutsch import BALANCED_MODES, run_deutsch
from .grover import run_grover2
from .simon import solve_simon

CSV_COLUMNS = (
    "algorithm",
    "n",
    "quantum_queries_per_run",
    "runs",
    "classical_queries_mean",
    "classical_queries_max",
    "seed",
)


@dataclass(frozen=True)
class LedgerRow:
    algorithm: str
    n: int
    quantum_queries_per_run: int
    runs: float
    classical_queries_mean: float
    classical_queries_max: int
    seed: int


def classical_deutsch_queries(oracle: FunctionOracle) -> tuple[bool, int]:
    """Decide balanced vs unbalanced by evaluation: both points are needed."""
    counted = CountingOracle(oracle)
    balanced = counted.lookup(0) != counted.lookup(1)
    return balanced, counted.count


def classical_grover_queries(
    oracle: FunctionOracle, rng: np.random.Generator
) -> tuple[int, int]:
    """Find the marked item among four by probing in random order.

    Three misses pin the answer, so at most three lookups are ever spent.
    """
    counted = CountingOracle(oracle)
    order = [int(x) for x in rng.permutation(oracle.domain_size)]
    for x in order[:-1]:
        if counted.lookup(x) == 1:
            return x, counted.count
    return order[-1], counted.count


def _deutsch_row(trials: int, rng: np.random.Generator, seed: int) -> LedgerRow:
    family = deutsch_family()
    counts = []
    quantum = None
    for _ in range(trials):
        mode = int(rng.integers(4))
        trace, result = run_deutsch("original", k=mode, rng=rng)
        assert result.balanced == (mode in BALANCED_MODES)
        quantum = trace.oracle_queries
        _, used = classical_deutsch_queries(family[mode])
        counts.append(used)
    return LedgerRow(
        "deutsch", 1, quantum, 1.0, float(np.mean(counts)), int(max(counts)), seed
    )


def _grover_row(trials: int, rng: np.random.Generator, seed: int) -> LedgerRow:
    family = kronecker_family(2)
    counts = []
    quantum = None
    for _ in range(trials):
        k = int(rng.integers(4))
        trace, result = run_grover2("standard", k=k, rng=rng)
        assert result.answer == k and result.confirmed
        quantum = trace.oracle_queries
        found, used = classical_grover_queries(family[k], rng)
        assert found == k
        counts.append(used)
    return LedgerRow(
        "grover2", 2, quantum, 1.0, float(np.mean(counts)), int(max(counts)), seed
    )


def _simon_row(n: int, trials: int, rng: np.random.Generator, seed: int) -> LedgerRow:
    runs_used = []
    counts = []
    for _ in range(trials):
        r = int(rng.integers(1, 1 << n))
        oracle = build_two_to_one(n, r, rng, family="two_to_one_xor")
        result = solve_simon(oracle, rng)
        assert result.recovered_r == r
        runs_used.append(result.runs_used)
        solution = classical_collision_solve(oracle, strategy="birthday", rng=rng)
        counts.append(solution.queries_used)
    return LedgerRow(
        "simon",
        n,
        1,
        float(np.mean(runs_used)),
        float(np.mean(counts)),
        int(max(counts)),
        seed,
    )


def speedup_ledger(n_range=range(2, 9), trials: int = 30, seed: int = 0) -> list[LedgerRow]:
    """Rows for the one-bit game, the four-item search, and the collision
    problem over a range of sizes, all under one seed."""
    rng = np.random.default_rng(seed)
    rows = [_deutsch_row(trials, rng, seed), _grover_row(trials, rng, seed)]
    for n in n_range:
        rows.append(_simon_row(n, trials, rng, seed))
    return rows


def ledger_to_csv(rows: list[LedgerRow]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(asdict(row))
    return buf.getvalue()


def ledger_to_json(rows: list[LedgerRow]) -> list[dict]:
    return [asdict(row) for row in rows]
