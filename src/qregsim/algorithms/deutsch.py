"""The one-bit oracle identification game, in three tellings.

original  the challenger fixes a mode k and hands over the oracle; one
          quantum evaluation decides balanced vs unbalanced, where two
          classical evaluations would be needed.
extended  the mode itself sits in a register m in superposition; one oracle
          evaluation entangles m with the answer register, and measuring m
          selects the challenger's mode and the solver's answer together.
mixture   same circuit, but the mode superposition carries independent
          random phases, making the handed-over state indistinguishable
          from a classical random choice; the (mode, answer) correlation is
          untouched by the phases.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from ..errors import PreconditionError, RangeError
from ..gates import GateSpec, hadamard
from ..hilbert import RegisterLayout, _sparse_basis
from ..measurement import MeasurementPoint, StagedCircuit
from ..oracles import FunctionOracle, deutsch_family
from .trace import AlgorithmTrace, execute

VARIANTS = ("original", "extended", "mixture")

BALANCED_MODES = (0b01, 0b10)


@dataclass(frozen=True)
class DeutschResult:
    variant: str
    mode: int
    balanced: bool
    phases: tuple[float, ...] | None = None

    @property
    def mode_label(self) -> str:
        return f"{self.mode:02b}"

    @property
    def answer(self) -> str:
        return "balanced" if self.balanced else "unbalanced"


def parse_mode(k: int | str) -> int:
    """Accept a mode as an int 0..3 or a two-bit string like '10'."""
    try:
        mode = int(k, 2) if isinstance(k, str) else int(k)
    except ValueError as exc:
        raise RangeError(f"mode {k!r} is not one of 00, 01, 10, 11") from exc
    if not 0 <= mode < 4:
        raise RangeError(f"mode {k!r} is not one of 00, 01, 10, 11")
    return mode


def _game_circuit(
    oracles: FunctionOracle | list[FunctionOracle], finish: str, metadata: dict
) -> StagedCircuit:
    """The challenger/solver circuit shared with the four-item search.

    The value register v starts in (|0> - |1>)/sqrt(2) (t0) and the argument
    register a in uniform superposition (t1); one oracle use (t2) and one
    finishing gate on a (t3) follow, then a is measured. Given a whole
    family, the challenger's mode register m is put in uniform
    superposition too, selects the family member inside one controlled
    gate, and is measured before a.
    """
    if isinstance(oracles, FunctionOracle):
        players, mode_register = ("a",), ()
        query = GateSpec("function-xor", ("a", "v"), oracle=oracles)
        width = oracles.domain_width
    else:
        players, mode_register = ("m", "a"), (("m", (len(oracles) - 1).bit_length()),)
        query = GateSpec("function-xor-controlled", ("m", "a", "v"), family=oracles)
        width = oracles[0].domain_width
        metadata = {
            **metadata,
            "mode_register": "m",
            "mode_chosen_by": "challenger",
            "answer_register": "a",
            "answered_by": "solver",
        }
    layout = RegisterLayout(mode_register + (("a", width), ("v", 1)))
    steps = [("t1", GateSpec("hadamard", (reg,))) for reg in players]
    steps += [("t2", query), ("t3", GateSpec(finish, ("a",)))]
    steps += [(None, MeasurementPoint(reg)) for reg in players]
    return StagedCircuit(
        initial=hadamard(_sparse_basis(layout, {"v": 1}), "v"),
        steps=steps,
        deferred_register="m" if mode_register else "v",
        final_registers=("a",),
        metadata=metadata,
    )


def run_deutsch(
    variant: str = "original",
    k: int | str | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[AlgorithmTrace, DeutschResult]:
    """Run one variant; see the module docstring for what each one does."""
    if variant in ("extended", "mixture") and k is None and rng is None:
        raise PreconditionError(f"{variant} variant needs an rng")
    circuit = _deutsch_circuits(variant, k)(rng)
    trace = execute(circuit, rng)
    return trace, _deutsch_result(circuit, trace)


def _deutsch_circuits(
    variant: str, k: int | str | None
) -> Callable[[np.random.Generator | None], StagedCircuit]:
    """The circuit of each run of the variant, as a function of the run's rng.

    Only mixture reads rng: it draws the run's three phases from it and puts them on a
    copy of one circuit (see _phased), so every run shares the oracle family and the
    initial state built here. Every other variant's one circuit serves any number of
    runs as it is.
    """
    if variant not in VARIANTS:
        raise RangeError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    metadata = {"algorithm": "deutsch", "variant": variant}
    if variant == "original":
        if k is None:
            raise PreconditionError("original variant needs an explicit mode k")
        mode = parse_mode(k)
        circuit = _game_circuit(deutsch_family()[mode], "hadamard", {**metadata, "mode": mode})
    elif k is not None:
        raise PreconditionError(f"{variant} variant selects the mode itself; drop k")
    else:
        circuit = _game_circuit(deutsch_family(), "hadamard", metadata)
    if variant != "mixture":
        return lambda rng: circuit
    return lambda rng: _phased(
        circuit, tuple(float(p) for p in rng.uniform(0.0, 2.0 * np.pi, size=3))
    )


def _phased(circuit: StagedCircuit, phases: tuple[float, ...]) -> StagedCircuit:
    """A copy of a game circuit over a whole family whose t1 ends with a phase step on
    the mode register m: phases on m's values 1, 2, ... and none on 0."""
    at = circuit.label_position("t1") + 1
    step = ("t1", GateSpec("phase", ("m",), phases=(0.0,) + phases))
    return replace(
        circuit,
        steps=circuit.steps[:at] + (step,) + circuit.steps[at:],
        metadata={**circuit.metadata, "phases": list(phases)},
    )


def _deutsch_result(circuit: StagedCircuit, trace: AlgorithmTrace) -> DeutschResult:
    """The mode and answer of one execution of the circuit."""
    metadata = circuit.metadata
    if metadata["variant"] == "original":
        mode = metadata["mode"]
    else:
        mode = trace.measurements[0].outcome
    phases = metadata.get("phases")
    balanced = trace.measurements[-1].outcome == 1
    return DeutschResult(
        metadata["variant"], mode, balanced, None if phases is None else tuple(phases)
    )


def deutsch_extended_staged_circuit() -> StagedCircuit:
    """Extended-variant circuit with the mode measurement deferrable.

    Measuring the mode register right after the oracle (t2) or only after
    the final interference step (t3) must leave the joint (mode, answer)
    statistics unchanged, since t3 never touches the mode register.
    """
    return _deutsch_circuits("extended", None)(None)
