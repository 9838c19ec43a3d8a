"""Hidden-spacing collision algorithm on a 2-to-1 oracle.

One run prepares a uniform superposition over arguments, evaluates the
oracle into the value register, optionally measures the value register,
applies a second register Hadamard, and measures the argument register.
Every measured z satisfies popcount(r & z) even, so accumulating runs pins
the spacing r by mod-2 linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PreconditionError
# hadamard stays bound here: benchmarks/tests/test_tracing.py checks that the
# tracer wraps it at this binding site as well as in qregsim.gates.
from ..gates import GateSpec, hadamard  # noqa: F401
from ..hilbert import DEFAULT_WIDTH_CAP, RegisterLayout, make_basis_state
from ..measurement import MeasurementPoint, StagedCircuit
from ..oracles import FunctionOracle
from .trace import AlgorithmTrace, execute


@dataclass(frozen=True)
class SimonResult:
    """Constraints gathered across runs and the spacing they determine."""

    constraints: tuple[int, ...]
    recovered_r: int | None
    runs_used: int


def _require_two_to_one(oracle: FunctionOracle) -> None:
    if oracle.family not in ("two_to_one_xor", "two_to_one_arith"):
        raise PreconditionError(f"need a 2-to-1 oracle, got family {oracle.family!r}")


def run_simon(
    oracle: FunctionOracle,
    rng: np.random.Generator | None = None,
    measure_v_at_t3: bool = True,
    force_v_outcome: int | None = None,
    width_cap: int = DEFAULT_WIDTH_CAP,
) -> AlgorithmTrace:
    """One execution of simon_staged_circuit; the trace carries checkpoints t0..t5."""
    circuit = simon_staged_circuit(
        oracle, width_cap, measure_v_at_t3=measure_v_at_t3, force_v_outcome=force_v_outcome
    )
    return execute(circuit, rng)


def measured_constraint(trace: AlgorithmTrace) -> int:
    """The z value measured on register a in a completed run."""
    for record in trace.measurements:
        if record.register == "a":
            return record.outcome
    raise LookupError("trace has no measurement of register 'a'")


def recover_r_from_constraints(constraints: list[int] | tuple[int, ...], n: int) -> int | None:
    """Solve {popcount(r & z) even} for r over n bits.

    Returns the unique nonzero solution when the constraints span n-1
    dimensions, otherwise None (underdetermined).
    """
    rows = np.array(
        [[(z >> j) & 1 for j in range(n)] for z in constraints], dtype=np.uint8
    )
    if rows.size == 0:
        rows = rows.reshape(0, n)
    rank = 0
    pivot_cols: list[int] = []
    for col in range(n):
        hits = [i for i in range(rank, len(rows)) if rows[i, col]]
        if not hits:
            continue
        rows[[rank, hits[0]]] = rows[[hits[0], rank]]
        for i in range(len(rows)):
            if i != rank and rows[i, col]:
                rows[i] ^= rows[rank]
        pivot_cols.append(col)
        rank += 1
    if rank != n - 1:
        return None
    free_col = next(c for c in range(n) if c not in pivot_cols)
    bits = np.zeros(n, dtype=np.uint8)
    bits[free_col] = 1
    for row_idx, col in enumerate(pivot_cols):
        bits[col] = rows[row_idx, free_col]
    return int(sum(int(b) << j for j, b in enumerate(bits)))


def solve_simon(
    oracle: FunctionOracle,
    rng: np.random.Generator,
    max_runs: int = 256,
    measure_v_at_t3: bool = True,
) -> SimonResult:
    """Repeat runs until the constraints determine r (or max_runs is hit)."""
    _require_two_to_one(oracle)
    constraints: list[int] = []
    for runs in range(1, max_runs + 1):
        trace = run_simon(oracle, rng, measure_v_at_t3=measure_v_at_t3)
        constraints.append(measured_constraint(trace))
        r = recover_r_from_constraints(constraints, oracle.domain_width)
        if r is not None:
            return SimonResult(tuple(constraints), r, runs)
    return SimonResult(tuple(constraints), None, max_runs)


def simon_staged_circuit(
    oracle: FunctionOracle,
    width_cap: int = DEFAULT_WIDTH_CAP,
    measure_v_at_t3: bool = True,
    force_v_outcome: int | None = None,
) -> StagedCircuit:
    """The run: Hadamard on a (t1), the oracle into v (t2), the optional
    measurement of v (t3), Hadamard on a (t4), measurement of a (t5).

    The interference-extraction half (t4, t5) is present only when the
    oracle's collision pairing is realized by a single xor mask, which is
    the case for every oracle the 2-to-1 constructors accept; the measured z
    then lands only on values with popcount(mask & z) even. The value
    register is the deferred one: measuring it right after t2 or only after
    the final Hadamard (t4) must not change the joint statistics.
    """
    _require_two_to_one(oracle)
    n = oracle.domain_width
    layout = RegisterLayout((("a", n), ("v", n)), width_cap=width_cap)
    mask = oracle.collision_xor_mask()
    steps = [
        ("t1", GateSpec("hadamard", ("a",))),
        ("t2", GateSpec("function-add", ("a", "v"), oracle=oracle)),
    ]
    if measure_v_at_t3:
        steps.append(("t3", MeasurementPoint("v", force_v_outcome)))
    if mask is not None:
        steps += [("t4", GateSpec("hadamard", ("a",))), ("t5", MeasurementPoint("a"))]
    return StagedCircuit(
        initial=make_basis_state(layout, {"a": 0, "v": 0}),
        steps=steps,
        deferred_register="v",
        final_registers=("a",),
        metadata={
            "algorithm": "simon",
            "family": oracle.family,
            "n": n,
            "r": int(oracle.params["r"]),
            "xor_mask": mask,
            "measure_v_at_t3": measure_v_at_t3,
        },
    )
