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
from dataclasses import asdict, dataclass, fields
from functools import partial

import numpy as np

from ..errors import PreconditionError
from ..hilbert import _require_width
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

@dataclass(frozen=True)
class LedgerRow:
    algorithm: str
    n: int
    quantum_queries_per_run: int
    runs: float
    classical_queries_mean: float
    classical_queries_max: int
    seed: int


CSV_COLUMNS = tuple(column.name for column in fields(LedgerRow))


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


def _row(algorithm: str, n: int, trials: int, rng: np.random.Generator, seed: int, trial):
    """The row of trials calls of trial(rng). Each solves a fresh problem both ways and
    returns (oracle uses per quantum run, quantum runs, classical lookups)."""
    uses, runs, lookups = zip(*(trial(rng) for _ in range(trials)))
    mean_runs, mean_lookups = float(np.mean(runs)), float(np.mean(lookups))
    return LedgerRow(algorithm, n, uses[-1], mean_runs, mean_lookups, int(max(lookups)), seed)


def _deutsch_trial(family: list[FunctionOracle], rng: np.random.Generator) -> tuple[int, int, int]:
    mode = int(rng.integers(4))
    trace, result = run_deutsch("original", k=mode, rng=rng)
    assert result.balanced == (mode in BALANCED_MODES)
    return trace.oracle_queries, 1, classical_deutsch_queries(family[mode])[1]


def _grover_trial(family: list[FunctionOracle], rng: np.random.Generator) -> tuple[int, int, int]:
    k = int(rng.integers(4))
    trace, result = run_grover2("standard", k=k, rng=rng)
    assert result.answer == k and result.confirmed
    found, used = classical_grover_queries(family[k], rng)
    assert found == k
    return trace.oracle_queries, 1, used


def _simon_trial(n: int, rng: np.random.Generator) -> tuple[int, int, int]:
    r = int(rng.integers(1, 1 << n))
    oracle = build_two_to_one(n, r, rng, family="two_to_one_xor")
    result = solve_simon(oracle, rng)
    assert result.recovered_r == r
    solution = classical_collision_solve(oracle, strategy="birthday", rng=rng)
    return 1, result.runs_used, solution.queries_used


def speedup_ledger(n_range=range(2, 9), trials: int = 30, seed: int = 0) -> list[LedgerRow]:
    """Rows for the one-bit game, the four-item search, and the collision
    problem over a range of sizes, all under one seed."""
    n_range = list(n_range)
    if trials < 1 or not n_range or min(n_range) < 1:
        raise PreconditionError(f"trials and sizes n must be >= 1, got {trials} and {n_range}")
    # refuse an over-cap size before any row runs: Simon at n builds 2n qubits, the
    # four-item search 3
    _require_width(max(3, 2 * max(n_range)))
    rng = np.random.default_rng(seed)
    rows = [
        _row("deutsch", 1, trials, rng, seed, partial(_deutsch_trial, deutsch_family())),
        _row("grover2", 2, trials, rng, seed, partial(_grover_trial, kronecker_family(2))),
    ]
    return rows + [_row("simon", n, trials, rng, seed, partial(_simon_trial, n)) for n in n_range]


def ledger_to_csv(rows: list[LedgerRow]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(asdict(row))
    return buf.getvalue()


def ledger_to_json(rows: list[LedgerRow]) -> list[dict]:
    return [asdict(row) for row in rows]
