"""Measurement of register observables.

Covers Born-rule partial measurement of one register, the two-step pointer
model (unitary copy onto a pointer register, then reinterpretation of the
branches as exclusive outcomes), a constraint-based solver that recovers the
post-measurement state as the solution of an optimization over the outcome
eigenspace, an analytic check that measuring an untouched register early or
late leaves joint statistics unchanged, and a Schmidt-rank entanglement
diagnostic.

Only measure() consumes randomness, and it takes an explicit generator;
everything else is deterministic and pure. StagedCircuit is the one
description of an algorithm run: the executor in algorithms.trace samples
it, and deferred_equivalence_check evaluates it analytically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateStateError,
    PreconditionError,
    RangeError,
    RegisterError,
)
from .gates import GateSpec, _permute_register, _register_view
from .hilbert import StateVector, _adopt, _live_index

# Outcomes below this probability are treated as absent.
PROBABILITY_FLOOR = 1e-14

# measure() and measure_forced() need outcome probabilities summing to 1 within this.
NORMALIZATION_TOL = 1e-10


@dataclass(frozen=True)
class ProjectorSpec:
    """Projector onto one register's eigenvalue subspace."""

    register: str
    eigenvalue: int


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities of each possible value of one register."""

    register: str
    entries: tuple[tuple[int, float], ...]

    def as_dict(self) -> dict[int, float]:
        return {eig: p for eig, p in self.entries}

    def probability(self, eigenvalue: int) -> float:
        return self.as_dict().get(eigenvalue, 0.0)

    @property
    def outcomes(self) -> np.ndarray:
        return np.array([eig for eig, _ in self.entries], dtype=np.int64)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.entries], dtype=np.float64)


@dataclass(frozen=True)
class MeasurementRecord:
    """One measurement event: which register, what came out, how likely,
    and the normalized state left behind.

    measure and measure_forced return the post_state; the records an
    AlgorithmTrace keeps have post_state None, because the trace's checkpoint
    after the measurement holds that state.
    """

    register: str
    outcome: int
    probability: float
    post_state: StateVector | None

    def to_json(self) -> dict:
        return {
            "register": self.register,
            "outcome": self.outcome,
            "probability": self.probability,
        }


def outcome_distribution(state: StateVector, register: str) -> OutcomeDistribution:
    """Born distribution of one register's value: summed squared amplitudes."""
    view = _register_view(state.amplitudes, state.layout, register)
    probs = (np.abs(view) ** 2).sum(axis=(0, 2))
    if not np.isfinite(probs.sum()):
        raise DegenerateStateError(f"state has non-finite amplitudes; cannot measure {register!r}")
    kept = np.flatnonzero(probs >= PROBABILITY_FLOOR)
    return OutcomeDistribution(register, tuple(zip(kept.tolist(), probs[kept].tolist())))


def project(state: StateVector, spec: ProjectorSpec) -> StateVector:
    """Zero every amplitude whose register value differs from the eigenvalue.

    The result is intentionally not normalized; it is idempotent.
    """
    layout = state.layout
    if not 0 <= spec.eigenvalue < layout.register_dim(spec.register):
        raise RangeError(
            f"eigenvalue {spec.eigenvalue} outside register {spec.register!r} range"
        )
    return _adopt(layout, _slab(state, spec.register, spec.eigenvalue)[0])


def _slab(state: StateVector, register: str, eigenvalue: int) -> tuple[np.ndarray, np.ndarray]:
    """A fresh flat array that holds the state's amplitudes where the register holds the
    eigenvalue and zeros elsewhere, and a (left, right) view of that kept slab."""
    view = _register_view(state.amplitudes, state.layout, register)
    out = np.zeros(view.shape, dtype=np.complex128)
    slab = out[:, eigenvalue]
    slab[...] = view[:, eigenvalue]
    return out.reshape(-1), slab


def _collapse(state: StateVector, register: str, eigenvalue: int) -> StateVector:
    """normalize(project(state, ProjectorSpec(register, eigenvalue))), built in one array.

    The eigenvalue must have a probability of at least PROBABILITY_FLOOR. The norm is
    taken over the whole array, as normalize does, so the result is bit-for-bit the
    same; only the kept slab is then scaled.
    """
    flat, slab = _slab(state, register, eigenvalue)
    slab /= float(np.linalg.norm(flat))
    return _adopt(state.layout, flat)


def _require_normalized(register: str, probs: np.ndarray) -> None:
    total = float(probs.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise PreconditionError(
            f"state is not normalized: outcomes of {register!r} sum to {total!r}"
        )


def measure(
    state: StateVector, register: str, rng: np.random.Generator
) -> MeasurementRecord:
    """Sample an outcome for one register and collapse onto it.

    The state must be normalized. Repeatable under a fixed generator state.
    """
    dist = outcome_distribution(state, register)
    probs = dist.probabilities
    _require_normalized(register, probs)
    pick = int(rng.choice(len(probs), p=probs / probs.sum()))
    outcome = int(dist.outcomes[pick])
    post = _collapse(state, register, outcome)
    return MeasurementRecord(register, outcome, float(probs[pick]), post)


def measure_forced(state: StateVector, register: str, outcome: int) -> MeasurementRecord:
    """Collapse onto a chosen outcome, keeping its true Born probability.

    Useful for reproducing a specific run; the state must be normalized and
    the outcome must have nonzero probability.
    """
    dist = outcome_distribution(state, register)
    _require_normalized(register, dist.probabilities)
    probability = dist.probability(outcome)
    if probability < PROBABILITY_FLOOR:
        raise DegenerateStateError(
            f"outcome {outcome} of register {register!r} has zero probability"
        )
    post = _collapse(state, register, outcome)
    return MeasurementRecord(register, outcome, probability, post)


def von_neumann_premeasurement(
    state: StateVector, register: str, pointer: str
) -> StateVector:
    """Unitary first half of the pointer model: copy the register onto the
    pointer in the computational basis, |y>|0>_p -> |y>|y>_p.

    The pointer must have the same width as the measured register and be
    sharp at 0. Reading the pointer's distribution afterwards reproduces the
    Born distribution of the measured register exactly.
    """
    layout = state.layout
    if layout.width(pointer) != layout.width(register):
        raise RegisterError(
            f"pointer {pointer!r} width {layout.width(pointer)} != register "
            f"{register!r} width {layout.width(register)}"
        )
    stray = _register_view(state.amplitudes, layout, pointer)[:, 1:]
    if np.abs(stray).max() > 1e-12:
        raise PreconditionError(f"pointer register {pointer!r} is not sharp at 0")
    identity = np.arange(layout.register_dim(register))
    return _permute_register(state, (register, pointer), identity, np.bitwise_xor)


def solve_measurement_constraints(
    state_before: StateVector, register: str, selected_eigenvalue: int
) -> StateVector:
    """Post-measurement state as the solution of the measurement constraints.

    Among unit vectors lying entirely in the selected eigenvalue's subspace,
    returns the one with maximal overlap magnitude against the state before
    measurement. It is found by expanding over the eigenspace basis: the
    overlap with each eigenspace basis vector is the state's amplitude
    there, and the maximizer is that coefficient vector renormalized. This
    deliberately never calls project(), so the two routes can be compared.
    """
    layout = state_before.layout
    if not 0 <= selected_eigenvalue < layout.register_dim(register):
        raise RangeError(
            f"eigenvalue {selected_eigenvalue} outside register {register!r} range"
        )
    view = _register_view(state_before.amplitudes, layout, register)
    coefficients = view[:, selected_eigenvalue]
    weight = float(np.sum(np.abs(coefficients) ** 2))
    if weight < PROBABILITY_FLOOR:
        raise DegenerateStateError(
            f"eigenvalue {selected_eigenvalue} has zero probability; the "
            "constraints admit no solution"
        )
    amplitudes = np.zeros_like(view)
    amplitudes[:, selected_eigenvalue] = coefficients / np.sqrt(weight)
    return _adopt(layout, amplitudes.reshape(-1))


def schmidt_rank(
    state: StateVector, cut: tuple[Sequence[str], Sequence[str]], tol: float = 1e-10
) -> int:
    """Number of singular values above tol across a bipartition of registers.

    A rank of 1 means the state is a product across the cut.
    """
    layout = state.layout
    group_a, group_b = (tuple(cut[0]), tuple(cut[1]))
    if not group_a or not group_b:
        raise RegisterError("both sides of the cut must be nonempty")
    names = layout.names
    if sorted(group_a + group_b) != sorted(names) or set(group_a) & set(group_b):
        raise RegisterError(
            f"cut {group_a} | {group_b} is not a partition of {names}"
        )
    dims = [1 << width for _, width in layout.registers]
    order_a = [names.index(r) for r in sorted(group_a, key=names.index)]
    order_b = [names.index(r) for r in sorted(group_b, key=names.index)]
    tensor = state.amplitudes.reshape(dims).transpose(order_a + order_b)
    dim_a = int(np.prod([dims[i] for i in order_a]))
    singular = np.linalg.svd(tensor.reshape(dim_a, -1), compute_uv=False)
    return int(np.sum(singular > tol))


@dataclass(frozen=True)
class MeasurementPoint:
    """A step of a StagedCircuit that measures one register.

    The outcome is sampled, unless outcome fixes it (see measure_forced).
    """

    register: str
    outcome: int | None = None

    def apply(self, state: StateVector, rng: np.random.Generator) -> MeasurementRecord:
        if self.outcome is None:
            return measure(state, self.register, rng)
        return measure_forced(state, self.register, self.outcome)


@dataclass(frozen=True)
class StagedCircuit:
    """One algorithm run as data: an initial state and labelled steps.

    Each step pairs a time label with a GateSpec or a MeasurementPoint. A run
    (algorithms.execute) records the initial state as checkpoint t0 and one
    checkpoint after the last step of each run of equally labelled steps;
    steps labelled None record none. For measurement-ordering checks,
    deferred_register is the register whose measurement is moved and
    final_registers are measured after the last step in both orderings.
    metadata is copied into the trace of every run.
    """

    initial: StateVector
    steps: tuple[tuple[str | None, GateSpec | MeasurementPoint], ...]
    deferred_register: str
    final_registers: tuple[str, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "final_registers", tuple(self.final_registers))

    def label_position(self, label: str) -> int:
        positions = [i for i, (lbl, _) in enumerate(self.steps) if lbl == label]
        if not positions:
            raise PreconditionError(f"no step labeled {label!r} in circuit")
        return positions[-1]


def joint_distribution(
    state: StateVector, registers: Sequence[str], floor: float
) -> dict[tuple[int, ...], float]:
    """Born probabilities of the registers' joint values, summed over basis
    states whose probability exceeds floor (>= 0), keyed in the order in which
    the joint values first occur along the basis."""
    layout = state.layout
    index = _live_index(state.amplitudes)
    probs = np.abs(state.amplitudes[index]) ** 2
    index, probs = index[probs > floor], probs[probs > floor]
    values = np.empty((index.size, len(registers)), dtype=np.int64)
    code = np.zeros_like(index)
    for column, reg in enumerate(registers):
        values[:, column] = (index >> layout.shift(reg)) & (layout.register_dim(reg) - 1)
        code = (code << layout.width(reg)) | values[:, column]
    _, first, which = np.unique(code, return_index=True, return_inverse=True)
    # bincount adds each key's probabilities in basis-index order, as a running sum does
    sums = np.bincount(which, weights=probs)
    order = np.argsort(first)
    return dict(zip(map(tuple, values[first[order]].tolist()), sums[order].tolist()))


def _branching_joint_distribution(
    circuit: StagedCircuit, branch_after: int
) -> dict[tuple[int, ...], float]:
    """Joint distribution over (deferred outcome, final outcomes) when the
    deferred register is measured right after step index branch_after."""
    state = circuit.initial
    for _, gate in circuit.steps[: branch_after + 1]:
        state = gate.apply(state)
    joint: dict[tuple[int, ...], float] = {}
    for eig, p_branch in outcome_distribution(state, circuit.deferred_register).entries:
        branch = _collapse(state, circuit.deferred_register, eig)
        for _, gate in circuit.steps[branch_after + 1 :]:
            branch = gate.apply(branch)
        finals = joint_distribution(branch, circuit.final_registers, PROBABILITY_FLOOR)
        joint.update({(eig,) + key: p_branch * p for key, p in finals.items()})
    return joint


def _format_joint(
    circuit: StagedCircuit, joint: dict[tuple[int, ...], float]
) -> list[dict]:
    regs = (circuit.deferred_register,) + circuit.final_registers
    return [
        {"outcomes": dict(zip(regs, key)), "probability": joint[key]}
        for key in sorted(joint)
    ]


def deferred_equivalence_check(
    circuit: StagedCircuit, measure_now: str, measure_later: str
) -> dict:
    """Compare measuring the deferred register early versus late.

    Both orderings are evaluated analytically (no sampling): the joint
    distribution over (deferred outcome, final outcomes) with the deferred
    register measured right after the step labeled measure_now, and again
    with it measured after measure_later. No gate between the two labels may
    touch the deferred register; that hypothesis is checked, not assumed.
    Only the gate steps take part, so the labels name gate steps: the check
    places every measurement itself.
    """
    gates = [(label, step) for label, step in circuit.steps if isinstance(step, GateSpec)]
    circuit = replace(circuit, steps=gates)
    i_now = circuit.label_position(measure_now)
    i_later = circuit.label_position(measure_later)
    if i_later < i_now:
        raise PreconditionError(
            f"label {measure_later!r} precedes {measure_now!r} in the circuit"
        )
    for label, gate in circuit.steps[i_now + 1 : i_later + 1]:
        if circuit.deferred_register in gate.registers:
            raise PreconditionError(
                f"step {label!r} operates on deferred register "
                f"{circuit.deferred_register!r} between the two measurement points"
            )
    joint_now = _branching_joint_distribution(circuit, i_now)
    joint_later = _branching_joint_distribution(circuit, i_later)
    keys = set(joint_now) | set(joint_later)
    max_diff = max(
        (abs(joint_now.get(k, 0.0) - joint_later.get(k, 0.0)) for k in keys),
        default=0.0,
    )
    return {
        "ordering_a": _format_joint(circuit, joint_now),
        "ordering_b": _format_joint(circuit, joint_later),
        "max_abs_diff": float(max_diff),
    }
