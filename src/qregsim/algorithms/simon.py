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
    dimensions, otherwise None (underdetermined). Each constraint is masked to
    n bits and reduced against an XOR basis: rows kept as ints, keyed by their
    pivot bit, each with no other pivot bit set.
    """
    mask = (1 << n) - 1
    rows: dict[int, int] = {}
    for z in constraints:
        row = int(z) & mask
        for pivot, other in rows.items():
            if row >> pivot & 1:
                row ^= other
        if row:
            pivot = (row & -row).bit_length() - 1
            for other_pivot, other in rows.items():
                if other >> pivot & 1:
                    rows[other_pivot] = other ^ row
            rows[pivot] = row
    if len(rows) != n - 1:
        return None
    # r has the free bit set, and each pivot bit whose row holds the free bit
    free = next(bit for bit in range(n) if bit not in rows)
    return (1 << free) | sum(1 << pivot for pivot, row in rows.items() if row >> free & 1)


_MAX_RUNS = 256


def solve_simon(oracle: FunctionOracle, rng: np.random.Generator) -> SimonResult:
    """Execute one prebuilt circuit until the constraints determine r (or
    _MAX_RUNS runs have not)."""
    circuit = simon_staged_circuit(oracle)
    constraints: list[int] = []
    for runs in range(1, _MAX_RUNS + 1):
        constraints.append(measured_constraint(execute(circuit, rng)))
        r = recover_r_from_constraints(constraints, oracle.domain_width)
        if r is not None:
            return SimonResult(tuple(constraints), r, runs)
    return SimonResult(tuple(constraints), None, _MAX_RUNS)


def simon_staged_circuit(
    oracle: FunctionOracle,
    width_cap: int = DEFAULT_WIDTH_CAP,
    measure_v_at_t3: bool = True,
    force_v_outcome: int | None = None,
) -> StagedCircuit:
    """_query_circuit finished by a second Hadamard. Both 2-to-1 families pair x
    with x ^ r, so every measured z has popcount(r & z) even."""
    if oracle.family not in ("two_to_one_xor", "two_to_one_arith"):
        raise PreconditionError(f"need a 2-to-1 oracle, got family {oracle.family!r}")
    n, r = oracle.domain_width, int(oracle.params["r"])
    metadata = {
        "algorithm": "simon",
        "family": oracle.family,
        "n": n,
        "r": r,
        "xor_mask": r,
        "measure_v_at_t3": measure_v_at_t3,
    }
    layout = RegisterLayout((("a", n), ("v", n)), width_cap=width_cap)
    return _query_circuit(layout, oracle, "hadamard", measure_v_at_t3, force_v_outcome, metadata)


def _query_circuit(
    layout: RegisterLayout,
    oracle: FunctionOracle,
    finish: str,
    measure_v: bool,
    force_v_outcome: int | None,
    metadata: dict,
) -> StagedCircuit:
    """The run that Simon's algorithm and period finding share: Hadamard on a (t1),
    the oracle added into v (t2), the optional measurement of v (t3), the finishing
    gate on a (t4: "hadamard" or "qft"), measurement of a (t5). Measuring the
    deferred register v right after t2 or only after t4 gives the same statistics."""
    steps = [
        ("t1", GateSpec("hadamard", ("a",))),
        ("t2", GateSpec("function-add", ("a", "v"), oracle=oracle)),
    ]
    if measure_v:
        steps.append(("t3", MeasurementPoint("v", force_v_outcome)))
    steps += [("t4", GateSpec(finish, ("a",))), ("t5", MeasurementPoint("a"))]
    return StagedCircuit(
        initial=make_basis_state(layout, {"a": 0, "v": 0}),
        steps=steps,
        deferred_register="v",
        final_registers=("a",),
        metadata=metadata,
    )
