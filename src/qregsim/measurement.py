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
(label, state) checkpoints its steps record and, at a measurement point, what
the measurement picks from. A node is built the first time a path reaches it and
kept on the circuit, so repeated runs of one circuit object simulate the
preparation once and each measurement branch once. A node is built on supports:
its state goes from step to step as the flat indices of its exact nonzeros and
their amplitudes, so a branch that a measurement leaves on a few amplitudes never
holds an array of the whole state. The executor in algorithms.trace samples one
path per run; measure and measure_forced are one-step runs; deferred_equivalence_check
grows every branch of the tree of a copy that measures the deferred register, one
branch at a time. Only the sampling consumes randomness, through an explicit
generator; everything else is deterministic.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    DegenerateStateError,
    PreconditionError,
    RangeError,
    RegisterError,
)
from .gates import GateSpec, _permute_register, _register_view, _stray
from .hilbert import (
    RegisterLayout,
    StateVector,
    _decode,
    _rescaled,
    _sparse_view,
    _stored,
)

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


def _born(state: StateVector, register: str) -> tuple[np.ndarray, np.ndarray]:
    """The Born distribution of one register's value, read from a state's support: the
    values of probability at least PROBABILITY_FLOOR, ascending, and their probabilities.

    Each probability sums |amplitude|^2 over the support in basis-index order.
    """
    state, layout = _sparse_view(state), state.layout
    d = layout.register_dim(register)
    probs = np.bincount(_decode(layout, (register,), state.index), np.abs(state.values) ** 2, d)
    _require_finite(probs.sum(), f"measure {register!r}")
    kept = np.flatnonzero(probs >= PROBABILITY_FLOOR)
    return kept, probs[kept]


def outcome_distribution(state: StateVector, register: str) -> OutcomeDistribution:
    """Born distribution of one register's value: summed squared amplitudes."""
    kept, probs = _born(state, register)
    return OutcomeDistribution(register, tuple(zip(kept.tolist(), probs.tolist())))


def project(state: StateVector, spec: ProjectorSpec) -> StateVector:
    """Zero every amplitude whose register value differs from the eigenvalue, in the
    storage the state was given: a support keeps the entries of the eigenvalue.

    The result is intentionally not normalized; it is idempotent.
    """
    layout = state.layout
    if not 0 <= spec.eigenvalue < layout.register_dim(spec.register):
        raise RangeError(
            f"eigenvalue {spec.eigenvalue} outside register {spec.register!r} range"
        )
    if state._sparse:
        keep = _decode(layout, (spec.register,), state.index) == spec.eigenvalue
        return _stored(layout, index=state.index[keep], values=state.values[keep])
    view = _register_view(state.amplitudes, layout, spec.register)
    out = np.zeros(view.shape, dtype=np.complex128)
    out[:, spec.eigenvalue] = view[:, spec.eigenvalue]
    return _stored(layout, amplitudes=out.reshape(-1))


def _require_normalized(register: str, probs: np.ndarray) -> None:
    total = float(probs.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise PreconditionError(
            f"state is not normalized: outcomes of {register!r} sum to {total!r}"
        )


def _weights(
    state: StateVector, register: str, forced: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """What a measurement of the register picks from, read from the support of the
    measured state: the outcomes, their Born probabilities (see _born), and the CDF
    that a draw searches. A forced outcome is the only pick and needs no draw (CDF None).

    The CDF is the array that rng.choice(len(p), p=p) builds inside every call, with p
    the probabilities divided by their sum: cdf = p.cumsum(); cdf /= cdf[-1]. Kept on
    the node, it is built once per measurement point instead of once per draw.

    The state must be normalized, and a forced outcome in range with nonzero probability.
    """
    outcomes, probs = _born(state, register)
    _require_normalized(register, probs)
    if forced is None:
        cdf = (probs / probs.sum()).cumsum()
        cdf /= cdf[-1]
        return outcomes, probs, cdf
    if not 0 <= forced < state.layout.register_dim(register):
        raise RangeError(f"outcome {forced} outside register {register!r} range")
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
    point, with its post_state: the checkpoint that the run records after it, stored as
    its support."""
    circuit = StagedCircuit(state, (("t1", point),), point.register, ())
    leaf = _outcome_path(circuit, rng)[-1]
    return replace(leaf.record, post_state=leaf.pre)


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
    if _stray(state, pointer, 1, 1e-12):
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
    amplitudes = np.zeros(view.shape, dtype=np.complex128)
    amplitudes[:, selected_eigenvalue] = coefficients / np.sqrt(weight)
    return _stored(layout, amplitudes=amplitudes.reshape(-1))


def schmidt_rank(
    state: StateVector, cut: tuple[Sequence[str], Sequence[str]]
) -> int:
    """Number of singular values above _SCHMIDT_TOL across a bipartition of registers.

    A rank of 1 means the state is a product across the cut. See _schmidt_rank.
    """
    group_a, group_b = (tuple(cut[0]), tuple(cut[1]))
    if not group_a or not group_b:
        raise RegisterError("both sides of the cut must be nonempty")
    names = state.layout.names
    if sorted(group_a + group_b) != sorted(names) or set(group_a) & set(group_b):
        raise RegisterError(f"cut {group_a} | {group_b} is not a partition of {names}")
    return _schmidt_rank(state, (group_a, group_b))


def _schmidt_rank(state: StateVector, cut: tuple[Sequence[str], Sequence[str]]) -> int:
    """schmidt_rank of the state, read from its support, across a partition of its registers.

    The singular values are those of the cut matrix's rows and columns that the support
    reaches, in ascending order; the zero ones add only zero singular values. When each
    reached row holds one entry, the columns are orthogonal and the singular values are
    their norms, read in O(support); so too the rows' norms when each column holds one.
    Only a matrix with neither shape takes an SVD."""
    state = _sparse_view(state)
    layout, index, values = state.layout, state.index, state.values
    _require_finite(np.vdot(values, values).real, "take a Schmidt rank")
    axes = []
    for side in cut:
        joint = _decode(layout, sorted(side, key=layout.names.index), index)
        # return_index keeps np.unique on the stable sort that _joint runs
        distinct, _, at = np.unique(joint, return_index=True, return_inverse=True)
        axes.append((distinct.size, at))
    (rows, row_at), (columns, column_at) = axes
    if values.size in (rows, columns):
        at, size = (column_at, columns) if values.size == rows else (row_at, rows)
        singular = np.sqrt(np.bincount(at, np.abs(values) ** 2, size))
    else:
        matrix = np.zeros((rows, columns), dtype=np.complex128)
        matrix[row_at, column_at] = values
        singular = np.linalg.svd(matrix, compute_uv=False)
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

    A run reads initial through its support (see hilbert.StateVector), so a circuit
    built on a state stored as its support never holds an array of the whole state.

    Each step pairs a time label with a GateSpec or a MeasurementPoint. A run
    (algorithms.execute) records the initial state as checkpoint t0 and one
    checkpoint after the last step of each run of equally labelled steps;
    steps labelled None record none. For measurement-ordering checks,
    deferred_register is the register whose measurement is moved and
    final_registers are measured after the last step in both orderings.
    metadata is copied into the trace of every run.

    A circuit keeps the outcome tree of the runs made on it (see _Node):
    the checkpoints of every path taken so far. A copy (dataclasses.replace) starts
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

    record is the measurement that starts the node (None at the root); checkpoints are
    the (label, state) pairs its steps record, label the path's last checkpoint label
    up to the node's end, uses its oracle uses, and pre the state at the node's end. At
    a measurement point, outcomes, probs and cdf are what the measurement picks from
    (see _weights); order is pre's positions sorted stably by the register's value, and
    keys those values in that order, so the entries of one outcome are one slice of
    order. children are keyed by pick. Every state of a node is stored as its support.
    """

    record: MeasurementRecord | None
    checkpoints: tuple[tuple[str, StateVector], ...]
    label: str
    uses: int
    end: int
    pre: StateVector
    outcomes: np.ndarray | None = None
    probs: np.ndarray | None = None
    cdf: np.ndarray | None = None
    order: np.ndarray | None = None
    keys: np.ndarray | None = None
    children: dict[int, _Node] = field(default_factory=dict)


def _outcome_path(circuit: StagedCircuit, rng: np.random.Generator | None) -> list[_Node]:
    """The nodes of one run's path through the circuit's tree, root first.

    Each pick is bisect_right of one rng.random() in the node's CDF, the search that
    rng.choice over the probabilities makes with side="right": its draw, and the
    generator state it leaves (see _weights). bisect reads the array in place; on a
    small CDF it is about 3x as fast as ndarray.searchsorted, which is mostly call
    overhead there.
    A forced outcome draws nothing, so the rng stream is that of stepping the circuit
    afresh (rng may be None if every measurement point is forced). Nodes that the path
    needs and the tree lacks are built on the way and kept.
    """
    path: list[_Node] = []
    node = circuit._tree or _grow(circuit, None, 0)
    while True:
        path.append(node)
        if node.end == len(circuit.steps):
            return path
        pick = 0 if node.cdf is None else bisect_right(node.cdf, rng.random())
        node = node.children.get(pick) or _grow(circuit, node, pick)


def _label_order(label: str) -> tuple[str, int]:
    """A checkpoint label's place in order: its text before any trailing digits, then those
    digits as an integer (-1 when there are none), so that t10 follows t9."""
    stem = label.rstrip("0123456789")
    return stem, int(label[len(stem) :] or -1)


def _grow(circuit: StagedCircuit, parent: _Node | None, pick: int) -> _Node:
    """Build the parent's child at pick (the root when parent is None) and attach it to
    the tree.

    The node's state goes from step to step stored as its support (see GateSpec.apply).
    The root starts from the circuit's initial state stored as its support, its
    checkpoint t0; a child starts from the collapse of its parent's pre: its outcome's
    slice of the parent's order, divided by its own norm, and its checkpoint labels must
    follow parent.label in _label_order. A checkpoint pairs its label with the state after
    its step, and pre is the state at the node's end. So a node is built on as many
    amplitudes as its states have nonzeros; only a box step on a support bigger than the
    dense array briefly makes the state dense. The node joins the tree only once its steps
    have run and its checkpoint labels and measurement have been checked, so a path that
    raises leaves nothing behind and raises again the same way.
    """
    steps = circuit.steps
    if parent is None:
        start, record, state, last_label = 0, None, _sparse_view(circuit.initial), "t0"
        checkpoints = [(last_label, state)]
    else:
        start, last_label, checkpoints = parent.end, parent.label, []
        outcome, probability = int(parent.outcomes[pick]), float(parent.probs[pick])
        at = parent.order[bisect_left(parent.keys, outcome) : bisect_right(parent.keys, outcome)]
        pre, values = parent.pre, parent.pre.values[at]
        values = _rescaled(values, float(np.linalg.norm(values)))
        state = _stored(pre.layout, pre.index[at], values)
        record = MeasurementRecord(steps[start][1].register, outcome, probability, None)
    end, uses = len(steps), 0
    for i in range(start, len(steps)):
        label, step = steps[i]
        if isinstance(step, GateSpec):
            state = step.apply(state)
            uses += step.uses_oracle
        elif i > start or parent is None:  # a child's first step is the collapse above
            end = i
            break
        following = steps[i + 1][0] if i + 1 < len(steps) else None
        if label is not None and label != following:
            if _label_order(label) <= _label_order(last_label):
                raise ValueError(f"checkpoint label {label!r} does not follow {last_label!r}")
            checkpoints.append((label, state))
            last_label = label
    node = _Node(record, tuple(checkpoints), last_label, uses, end, state)
    if end < len(steps):
        register, forced = steps[end][1].register, steps[end][1].outcome
        node.outcomes, node.probs, node.cdf = _weights(state, register, forced)
        layout = state.layout
        # numpy sorts a key of 8 or 16 bits stably by radix, several times as fast as int64
        key = _decode(layout, (register,), state.index)
        key = key.astype(np.min_scalar_type(layout.register_dim(register) - 1))
        node.order = key.argsort(kind="stable")
        node.keys = key[node.order]
    if parent is None:
        object.__setattr__(circuit, "_tree", node)
    else:
        parent.children[pick] = node
    return node


def _joint(
    state: StateVector, registers: Sequence[str], floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The registers' joint distribution on the state, read from its support, over the
    entries of probability above floor: the joint values (see _decode) in ascending order,
    their probabilities, and the position among those entries at which each first occurs."""
    state = _sparse_view(state)
    layout, index = state.layout, state.index
    probs = np.abs(state.values) ** 2
    _require_finite(probs.sum(), "read a joint distribution")
    index, probs = index[probs > floor], probs[probs > floor]
    # return_index makes np.unique sort stably (see gates._permute_register)
    codes, first, which = np.unique(
        _decode(layout, registers, index), return_index=True, return_inverse=True
    )
    # bincount adds each key's probabilities in basis-index order, as a running sum does
    return codes, np.bincount(which, weights=probs), first


def _keys(layout: RegisterLayout, registers: Sequence[str], codes: np.ndarray) -> Iterator:
    """The joint values codes (see _decode) as tuples of the registers' values, one at a
    time."""
    columns, shift = [], 0
    for reg in reversed(registers):
        columns.insert(0, (codes >> shift & layout.register_dim(reg) - 1).tolist())
        shift += layout.width(reg)
    return zip(*columns) if columns else repeat((), codes.size)


def joint_distribution(
    state: StateVector, registers: Sequence[str], floor: float
) -> dict[tuple[int, ...], float]:
    """Born probabilities of the registers' joint values, summed over basis
    states whose probability exceeds floor (>= 0), keyed in the order in which
    the joint values first occur along the basis."""
    codes, sums, first = _joint(state, registers, floor)
    order = np.argsort(first)
    return dict(zip(_keys(state.layout, registers, codes[order]), sums[order].tolist()))


def _branching_joint_distribution(
    circuit: StagedCircuit, branch_after: int
) -> tuple[np.ndarray, np.ndarray]:
    """Joint distribution over (deferred outcome, final outcomes) when the deferred
    register is measured right after step index branch_after of a circuit of gates: the
    joint values of the deferred and final registers, in ascending order, and their
    probabilities.

    It is read off the outcome tree of a copy of the circuit, unlabelled, with a
    measurement of the deferred register after step branch_after: the root, then each
    outcome's leaf in turn, read at its end state and dropped before the next is grown,
    so the tree holds one branch at a time."""
    steps = [(None, gate) for _, gate in circuit.steps]
    steps.insert(branch_after + 1, (None, MeasurementPoint(circuit.deferred_register)))
    branching = replace(circuit, steps=steps)
    root = _grow(branching, None, 0)
    layout = circuit.initial.layout
    shift = sum(layout.width(reg) for reg in circuit.final_registers)
    codes, joint = [], []
    for pick in range(root.outcomes.size):
        leaf = _grow(branching, root, pick)
        del root.children[pick]
        finals, sums, _ = _joint(leaf.pre, circuit.final_registers, PROBABILITY_FLOOR)
        codes.append(finals | leaf.record.outcome << shift)
        joint.append(leaf.record.probability * sums)
    return np.concatenate(codes), np.concatenate(joint)


def _format_joint(circuit: StagedCircuit, codes: np.ndarray, probs: np.ndarray) -> list[dict]:
    regs = (circuit.deferred_register,) + circuit.final_registers
    keys = _keys(circuit.initial.layout, regs, codes)
    return [
        {"outcomes": dict(zip(regs, key)), "probability": p}
        for key, p in zip(keys, probs.tolist())
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
    places every measurement itself, on copies: the circuit's own tree is left alone.
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
    codes_now, joint_now = _branching_joint_distribution(circuit, i_now)
    codes_later, joint_later = _branching_joint_distribution(circuit, i_later)
    # one merge of the two orderings: a value's difference is 0 + p_now - p_later, with a
    # missing side left out, as abs(joint_now.get(k, 0.0) - joint_later.get(k, 0.0))
    _, _, which = np.unique(
        np.concatenate((codes_now, codes_later)), return_index=True, return_inverse=True
    )
    diff = np.bincount(which, weights=np.concatenate((joint_now, -joint_later)))
    return {
        "ordering_a": _format_joint(circuit, codes_now, joint_now),
        "ordering_b": _format_joint(circuit, codes_later, joint_later),
        "max_abs_diff": float(np.abs(diff).max(initial=0.0)),
    }
