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
from .gates import GateSpec
from .hilbert import StateVector, normalize

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
    and the normalized state left behind."""

    register: str
    outcome: int
    probability: float
    post_state: StateVector

    def to_json(self, include_state: bool = False) -> dict:
        out = {
            "register": self.register,
            "outcome": self.outcome,
            "probability": self.probability,
        }
        if include_state:
            out["post_state"] = self.post_state.records()
        return out


def outcome_distribution(state: StateVector, register: str) -> OutcomeDistribution:
    """Born distribution of one register's value: summed squared amplitudes."""
    layout = state.layout
    probs = np.bincount(
        layout.values(register),
        weights=np.abs(state.amplitudes) ** 2,
        minlength=layout.register_dim(register),
    )
    if not np.isfinite(probs.sum()):
        raise DegenerateStateError(f"state has non-finite amplitudes; cannot measure {register!r}")
    entries = tuple(
        (int(eig), float(p)) for eig, p in enumerate(probs) if p >= PROBABILITY_FLOOR
    )
    return OutcomeDistribution(register, entries)


def project(state: StateVector, spec: ProjectorSpec) -> StateVector:
    """Zero every amplitude whose register value differs from the eigenvalue.

    The result is intentionally not normalized; it is idempotent.
    """
    layout = state.layout
    if not 0 <= spec.eigenvalue < layout.register_dim(spec.register):
        raise RangeError(
            f"eigenvalue {spec.eigenvalue} outside register {spec.register!r} range"
        )
    keep = layout.values(spec.register) == spec.eigenvalue
    return StateVector(layout, np.where(keep, state.amplitudes, 0.0))


def _require_normalized(dist: OutcomeDistribution) -> None:
    total = float(dist.probabilities.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise PreconditionError(
            f"state is not normalized: outcomes of {dist.register!r} sum to {total!r}"
        )


def measure(
    state: StateVector, register: str, rng: np.random.Generator
) -> MeasurementRecord:
    """Sample an outcome for one register and collapse onto it.

    The state must be normalized. Repeatable under a fixed generator state.
    """
    dist = outcome_distribution(state, register)
    _require_normalized(dist)
    probs = dist.probabilities
    pick = int(rng.choice(len(probs), p=probs / probs.sum()))
    outcome = int(dist.outcomes[pick])
    post = normalize(project(state, ProjectorSpec(register, outcome)))
    return MeasurementRecord(register, outcome, float(probs[pick]), post)


def measure_forced(state: StateVector, register: str, outcome: int) -> MeasurementRecord:
    """Collapse onto a chosen outcome, keeping its true Born probability.

    Useful for reproducing a specific run; the state must be normalized and
    the outcome must have nonzero probability.
    """
    dist = outcome_distribution(state, register)
    _require_normalized(dist)
    probability = dist.probability(outcome)
    if probability < PROBABILITY_FLOOR:
        raise DegenerateStateError(
            f"outcome {outcome} of register {register!r} has zero probability"
        )
    post = normalize(project(state, ProjectorSpec(register, outcome)))
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
    pointer_values = layout.values(pointer)
    stray = np.abs(state.amplitudes[pointer_values != 0])
    if stray.size and stray.max() > 1e-12:
        raise PreconditionError(f"pointer register {pointer!r} is not sharp at 0")
    shift = layout.shift(pointer)
    mask = (layout.register_dim(pointer) - 1) << shift
    idx = np.arange(layout.dim, dtype=np.int64)
    new_idx = (idx & ~mask) | ((pointer_values ^ layout.values(register)) << shift)
    new = np.empty_like(state.amplitudes)
    new[new_idx] = state.amplitudes
    return StateVector(layout, new)


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
    basis_indices = np.nonzero(layout.values(register) == selected_eigenvalue)[0]
    coefficients = state_before.amplitudes[basis_indices]
    weight = float(np.sum(np.abs(coefficients) ** 2))
    if weight < PROBABILITY_FLOOR:
        raise DegenerateStateError(
            f"eigenvalue {selected_eigenvalue} has zero probability; the "
            "constraints admit no solution"
        )
    amplitudes = np.zeros(layout.dim, dtype=np.complex128)
    amplitudes[basis_indices] = coefficients / np.sqrt(weight)
    return StateVector(layout, amplitudes)


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
    states whose probability exceeds floor."""
    layout = state.layout
    probs = np.abs(state.amplitudes) ** 2
    joint: dict[tuple[int, ...], float] = {}
    for idx in np.nonzero(probs > floor)[0]:
        key = tuple(layout.value_at(int(idx), reg) for reg in registers)
        joint[key] = joint.get(key, 0.0) + float(probs[idx])
    return joint


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
        branch = normalize(project(state, ProjectorSpec(circuit.deferred_register, eig)))
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
