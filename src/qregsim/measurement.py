"""Measurement of register observables, and the outcome tree that runs a
StagedCircuit.

Covers Born-rule partial measurement of one register, the two-step pointer
model (unitary copy onto a pointer register, then reinterpretation of the
branches as exclusive outcomes), a constraint-based solver that recovers the
post-measurement state as the solution of an optimization over the outcome
eigenspace, an analytic check that measuring an untouched register early or
late leaves joint statistics unchanged, and a Schmidt-rank entanglement
diagnostic.

StagedCircuit is the one description of an algorithm run. A run is a path
through the circuit's outcome tree: one node per outcome prefix, holding the
supports of the checkpoints its steps record and, at a measurement point, what
the measurement picks from. A node is built the first time a path reaches it and
kept on the circuit, so repeated runs of one circuit object simulate the
preparation once and each measurement branch once. A node is built on supports:
its state goes from step to step as the flat indices of its exact nonzeros and
their amplitudes, so a branch that a measurement leaves on a few amplitudes never
holds an array of the whole state. The executor in
algorithms.trace samples one path per run; measure and measure_forced are one-step
runs; deferred_equivalence_check walks every branch at its measurement point. Only
the sampling consumes randomness, through an explicit generator; everything else is
deterministic.
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
from .hilbert import StateVector, _adopt, _shared, _Support, _support

# Outcomes below this probability are treated as absent.
PROBABILITY_FLOOR = 1e-14

# A measurement needs outcome probabilities summing to 1 within this.
NORMALIZATION_TOL = 1e-10

# schmidt_rank counts the singular values above this.
_SCHMIDT_TOL = 1e-10


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


def _require_finite(squared_norm: float, task: str) -> None:
    """Refuse a state whose squared norm is not finite: it has a NaN or infinite
    amplitude, or squares that overflow, so no probability read off it means anything."""
    if not np.isfinite(squared_norm):
        raise DegenerateStateError(f"state has non-finite amplitudes; cannot {task}")


def _born(support: _Support, register: str) -> tuple[np.ndarray, np.ndarray]:
    """The Born distribution of one register's value, read from a state's support: the
    values of probability at least PROBABILITY_FLOOR, ascending, and their probabilities.

    Each probability sums |amplitude|^2 over the support in basis-index order.
    """
    _, layout, index, values = support
    d = layout.register_dim(register)
    eigenvalues = (index >> layout.shift(register)) & (d - 1)
    probs = np.bincount(eigenvalues, weights=np.abs(values) ** 2, minlength=d)
    _require_finite(probs.sum(), f"measure {register!r}")
    kept = np.flatnonzero(probs >= PROBABILITY_FLOOR)
    return kept, probs[kept]


def outcome_distribution(state: StateVector, register: str) -> OutcomeDistribution:
    """Born distribution of one register's value: summed squared amplitudes."""
    kept, probs = _born(_support(None, state), register)
    return OutcomeDistribution(register, tuple(zip(kept.tolist(), probs.tolist())))


def project(state: StateVector, spec: ProjectorSpec) -> StateVector:
    """Zero every amplitude whose register value differs from the eigenvalue.

    The result is intentionally not normalized; it is idempotent.
    """
    layout = state.layout
    if not 0 <= spec.eigenvalue < layout.register_dim(spec.register):
        raise RangeError(
            f"eigenvalue {spec.eigenvalue} outside register {spec.register!r} range"
        )
    view = _register_view(state.amplitudes, layout, spec.register)
    out = np.zeros(view.shape, dtype=np.complex128)
    out[:, spec.eigenvalue] = view[:, spec.eigenvalue]
    return _adopt(layout, out.reshape(-1))


def _collapse_support(support: _Support, register: str, eigenvalue: int) -> _Support:
    """The support of the collapse of the state whose support this is onto the register's
    eigenvalue, unlabelled: the entries where the register holds the eigenvalue (the
    nonzeros of project's array), divided by their own norm.

    The eigenvalue must have a probability of at least PROBABILITY_FLOOR.
    """
    _, layout, index, values = support
    keep = ((index >> layout.shift(register)) & (layout.register_dim(register) - 1)) == eigenvalue
    values = values[keep]
    values /= float(np.linalg.norm(values))
    return _shared(None, layout, index[keep], values)


def _require_normalized(register: str, probs: np.ndarray) -> None:
    total = float(probs.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise PreconditionError(
            f"state is not normalized: outcomes of {register!r} sum to {total!r}"
        )


def _weights(
    support: _Support, register: str, forced: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """What a measurement of the register picks from, read from the support of the
    measured state: the outcomes, their Born probabilities (see _born), and the p that
    the draw hands to rng.choice. A forced outcome is the only pick and needs no draw
    (p None).

    The state must be normalized, and a forced outcome must have nonzero probability.
    """
    outcomes, probs = _born(support, register)
    _require_normalized(register, probs)
    if forced is None:
        return outcomes, probs, probs / probs.sum()
    hit = np.flatnonzero(outcomes == forced)
    if not hit.size:
        raise DegenerateStateError(
            f"outcome {forced} of register {register!r} has zero probability"
        )
    return np.array([forced]), probs[hit], None


def _measured(
    state: StateVector, point: MeasurementPoint, rng: np.random.Generator | None
) -> MeasurementRecord:
    """The measurement of a one-step run of the outcome tree that measures the state at
    point, with its post_state: the checkpoint that the run records after it."""
    circuit = StagedCircuit(state, (("t1", point),), point.register, ())
    leaf = _outcome_path(circuit, rng)[-1]
    return replace(leaf.record, post_state=leaf.supports[-1].state())


def measure(
    state: StateVector, register: str, rng: np.random.Generator
) -> MeasurementRecord:
    """Sample an outcome for one register and collapse onto it, as a run of a circuit
    that measures the register does.

    The state must be normalized. Repeatable under a fixed generator state.
    """
    return _measured(state, MeasurementPoint(register), rng)


def measure_forced(state: StateVector, register: str, outcome: int) -> MeasurementRecord:
    """Collapse onto a chosen outcome, keeping its true Born probability.

    Useful for reproducing a specific run; the state must be normalized and
    the outcome must have nonzero probability.
    """
    return _measured(state, MeasurementPoint(register, outcome), None)


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
    # written so that a NaN, which fails every comparison, counts as stray
    if not np.abs(stray).max() <= 1e-12:
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
    amps = state_before.amplitudes
    _require_finite(np.vdot(amps, amps).real, f"solve for {register!r}")
    view = _register_view(amps, layout, register)
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
    state: StateVector, cut: tuple[Sequence[str], Sequence[str]]
) -> int:
    """Number of singular values above _SCHMIDT_TOL across a bipartition of registers.

    A rank of 1 means the state is a product across the cut. The SVD is taken of the
    matrix's nonzero rows and columns only: the zero ones add only zero singular values.
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
    _require_finite(np.vdot(state.amplitudes, state.amplitudes).real, "take a Schmidt rank")
    dims = [1 << width for _, width in layout.registers]
    order_a = [names.index(r) for r in sorted(group_a, key=names.index)]
    order_b = [names.index(r) for r in sorted(group_b, key=names.index)]
    tensor = state.amplitudes.reshape(dims).transpose(order_a + order_b)
    dim_a = int(np.prod([dims[i] for i in order_a]))
    matrix = tensor.reshape(dim_a, -1)
    live = matrix != 0
    singular = np.linalg.svd(
        matrix[np.ix_(live.any(axis=1), live.any(axis=0))], compute_uv=False
    )
    return int(np.sum(singular > _SCHMIDT_TOL))


@dataclass(frozen=True)
class MeasurementPoint:
    """A step of a StagedCircuit that measures one register.

    The outcome is sampled, unless outcome fixes it (see measure_forced).
    """

    register: str
    outcome: int | None = None


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

    A circuit keeps the outcome tree of the runs made on it (see _Node):
    the supports of every path taken so far. A copy (dataclasses.replace) starts
    with none.
    """

    initial: StateVector
    steps: tuple[tuple[str | None, GateSpec | MeasurementPoint], ...]
    deferred_register: str
    final_registers: tuple[str, ...]
    metadata: dict = field(default_factory=dict)
    _tree: _Node | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "final_registers", tuple(self.final_registers))

    def label_position(self, label: str) -> int:
        positions = [i for i, (lbl, _) in enumerate(self.steps) if lbl == label]
        if not positions:
            raise PreconditionError(f"no step labeled {label!r} in circuit")
        return positions[-1]


@dataclass(eq=False)
class _Node:
    """One outcome prefix of a StagedCircuit: the steps from the measurement that
    picked its last outcome (from the start, at the root) up to the next measurement
    point, steps[end], or to the end of the circuit (end == len(steps), a leaf).

    record is the measurement that starts the node (None at the root); supports are
    the checkpoints its steps record, and uses its oracle uses. At a measurement
    point, pre is the support of the state that is measured, and outcomes, probs and p
    are what the measurement picks from (see _weights); children are keyed by pick.
    A node holds supports only, never a dense state.
    """

    record: MeasurementRecord | None
    supports: tuple[_Support, ...]
    uses: int
    end: int
    pre: _Support | None = None
    outcomes: np.ndarray | None = None
    probs: np.ndarray | None = None
    p: np.ndarray | None = None
    children: dict[int, _Node] = field(default_factory=dict)


def _outcome_path(circuit: StagedCircuit, rng: np.random.Generator | None) -> list[_Node]:
    """The nodes of one run's path through the circuit's tree, root first.

    Each pick is one rng.choice over the node's p, and a forced outcome draws nothing, so
    the rng stream is that of stepping the circuit afresh (rng may be None if every
    measurement point is forced). Nodes that the path needs and the tree lacks are built
    on the way and kept.
    """
    path: list[_Node] = []
    node = circuit._tree or _grow(circuit, None, 0, None)
    while True:
        path.append(node)
        if node.supports:
            last_label = node.supports[-1].label
        if node.end == len(circuit.steps):
            return path
        pick = 0 if node.p is None else int(rng.choice(len(node.p), p=node.p))
        node = node.children.get(pick) or _grow(circuit, node, pick, last_label)


def _grow(
    circuit: StagedCircuit, parent: _Node | None, pick: int, last_label: str | None
) -> _Node:
    """Build the parent's child at pick (the root when parent is None) and attach it to
    the tree; last_label is the last checkpoint label on the path to it.

    The node's state goes from step to step as a support (see GateSpec.apply). The root
    starts from the support of the initial state, its checkpoint t0; a child starts from
    the collapse of its parent's pre. A checkpoint is the support of the state after its
    step, under its label, and pre is the support of the state at the node's end. So a
    node is built on as many amplitudes as its states have nonzeros; only a box step on a
    support bigger than the dense array briefly makes the state dense. The node joins the
    tree only once its steps have run and its checkpoint labels and measurement have been
    checked, so a path that raises leaves nothing behind and raises again the same way.
    """
    steps = circuit.steps
    if parent is None:
        start, record = 0, None
        state = _support("t0", circuit.initial)
        supports, last_label = [state], "t0"
    else:
        start, supports = parent.end, []
        outcome = int(parent.outcomes[pick])
        register = steps[start][1].register
        record = MeasurementRecord(register, outcome, float(parent.probs[pick]), None)
    end, uses = len(steps), 0
    for i in range(start, len(steps)):
        label, step = steps[i]
        if isinstance(step, GateSpec):
            state = step.apply(state)
            uses += step.uses_oracle
        elif i == start and parent is not None:
            state = _collapse_support(parent.pre, register, outcome)
        else:
            end = i
            break
        following = steps[i + 1][0] if i + 1 < len(steps) else None
        if label is not None and label != following:
            if label <= last_label:
                raise ValueError(f"checkpoint label {label!r} does not follow {last_label!r}")
            state = state._replace(label=label)
            supports.append(state)
            last_label = label
    node = _Node(record, tuple(supports), uses, end)
    if end < len(steps):
        point = steps[end][1]
        node.outcomes, node.probs, node.p = _weights(state, point.register, point.outcome)
        node.pre = state
    if parent is None:
        object.__setattr__(circuit, "_tree", node)
    else:
        parent.children[pick] = node
    return node


def _joint(
    support: _Support, registers: Sequence[str], floor: float
) -> dict[tuple[int, ...], float]:
    """joint_distribution of the state whose support this is."""
    _, layout, index, amps = support
    probs = np.abs(amps) ** 2
    _require_finite(probs.sum(), "read a joint distribution")
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


def joint_distribution(
    state: StateVector, registers: Sequence[str], floor: float
) -> dict[tuple[int, ...], float]:
    """Born probabilities of the registers' joint values, summed over basis
    states whose probability exceeds floor (>= 0), keyed in the order in which
    the joint values first occur along the basis."""
    return _joint(_support(None, state), registers, floor)


def _branching_joint_distribution(
    circuit: StagedCircuit, branch_after: int
) -> dict[tuple[int, ...], float]:
    """Joint distribution over (deferred outcome, final outcomes) when the
    deferred register is measured right after step index branch_after.

    The gates run through the outcome tree of a copy of the circuit with that
    measurement inserted and one checkpoint, at its last step: the root holds the
    gates before the measurement, each branch is one child, and the child's
    checkpoint gives the final registers' distribution.
    """
    steps = [(None, gate) for _, gate in circuit.steps]
    steps.insert(branch_after + 1, (None, MeasurementPoint(circuit.deferred_register)))
    steps[-1] = ("t1", steps[-1][1])
    branched = replace(circuit, steps=steps)
    root = _grow(branched, None, 0, None)
    joint: dict[tuple[int, ...], float] = {}
    for pick, (eig, p_branch) in enumerate(zip(root.outcomes.tolist(), root.probs.tolist())):
        leaf = _grow(branched, root, pick, "t0")
        finals = _joint(leaf.supports[-1], circuit.final_registers, PROBABILITY_FLOOR)
        # each branch is read once, so the check keeps none of them
        root.children.clear()
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
