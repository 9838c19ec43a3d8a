"""One-hot search over four items: one amplification round finds the marked
item with certainty.

standard  the challenger marks item k; a single oracle evaluation against a
          value register held in (|0> - |1>)/sqrt(2) plus one inversion
          about the mean steers the argument register exactly onto |k>. The
          solver then spends one more (classical) oracle lookup confirming
          the hit, for two oracle uses in total; a classical search needs
          three lookups in the worst case to be certain.
extended  the mark index lives in a register m in superposition; the same
          round correlates m with the argument register so that measuring
          m fixes the challenger's choice and the solver's answer at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PreconditionError, RangeError
from ..measurement import StagedCircuit
from ..oracles import CountingOracle, kronecker_family
from .deutsch import _game_circuit
from .trace import AlgorithmTrace, execute

VARIANTS = ("standard", "extended")


@dataclass(frozen=True)
class GroverResult:
    variant: str
    target: int
    answer: int
    confirmed: bool
    oracle_uses: int


def run_grover2(
    variant: str = "standard",
    k: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[AlgorithmTrace, GroverResult]:
    if variant == "extended" and k is None and rng is None:
        raise PreconditionError("extended variant needs an rng")
    circuit = _search_circuit(variant, k)
    trace = execute(circuit, rng)
    return trace, _search_result(circuit, trace)


def _search_circuit(variant: str, k: int | None) -> StagedCircuit:
    """The circuit of the variant; it serves any number of runs."""
    if variant not in VARIANTS:
        raise RangeError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    metadata = {"algorithm": "grover2", "variant": variant}
    if variant == "extended":
        if k is not None:
            raise PreconditionError("extended variant selects the mark itself; drop k")
        return _game_circuit(kronecker_family(2), "diffusion", metadata)
    if k is None or not str(k).isdecimal() or int(k) >= 4:
        raise RangeError(f"standard variant needs a marked item k in 0..3, got {k!r}")
    k = int(k)
    return _game_circuit(kronecker_family(2)[k], "diffusion", {**metadata, "k": k})


def _search_result(circuit: StagedCircuit, trace: AlgorithmTrace) -> GroverResult:
    """The mark and answer of one execution of the circuit. The standard variant
    confirms its answer with one more oracle lookup, which it adds to the trace."""
    if circuit.metadata["variant"] == "extended":
        mode, answer = (record.outcome for record in trace.measurements)
        return GroverResult("extended", mode, answer, answer == mode, trace.oracle_queries)
    answer = trace.measurements[-1].outcome
    # Confirmation lookup: certainty about the answer costs one more use.
    _, query = circuit.steps[circuit.label_position("t2")]
    counted = CountingOracle(query.oracle)
    confirmed = counted.lookup(answer) == 1
    trace.metadata["gate_applications"] = 1
    trace.metadata["confirmation_lookups"] = counted.count
    trace.oracle_queries += counted.count
    return GroverResult(
        "standard", circuit.metadata["k"], answer, confirmed, trace.oracle_queries
    )
