"""Labeled execution traces, and the one executor that produces them from a
StagedCircuit for all four algorithm runners."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from ..hilbert import (
    AMPLITUDE_DUMP_TOL,
    RegisterLayout,
    StateVector,
    _adopt,
    _live_index,
    _records,
)
from ..measurement import MeasurementPoint, MeasurementRecord, StagedCircuit


class _Support(NamedTuple):
    """A checkpoint as the flat indices of its exact nonzeros and their amplitudes."""

    label: str
    layout: RegisterLayout
    index: np.ndarray
    values: np.ndarray

    def state(self) -> StateVector:
        amps = np.zeros(self.layout.dim, dtype=np.complex128)
        amps[self.index] = self.values
        return _adopt(self.layout, amps)


@dataclass
class AlgorithmTrace:
    """Checkpoint states keyed by time labels t0..t5, plus measurement
    records, the number of oracle uses, and run metadata.

    A checkpoint is kept as its support: the flat indices of its exact nonzero
    amplitudes and those amplitudes, so a trace holds no dense array. state_at and
    checkpoints rebuild a fresh read-only StateVector on every call, exactly equal
    to the state that was added. The measurement records carry no post_state: the
    state after a measurement is the checkpoint the executor records after it.

    dumped_supports gives each checkpoint as it is written out, without the
    amplitudes at or below AMPLITUDE_DUMP_TOL. to_json is built on it, and so is
    `qregsim run`, which encodes each distinct dumped support once per run.
    """

    measurements: list[MeasurementRecord] = field(default_factory=list)
    oracle_queries: int = 0
    metadata: dict = field(default_factory=dict)
    _supports: list[_Support] = field(default_factory=list, init=False, repr=False)

    def add(self, label: str, state: StateVector) -> StateVector:
        if self._supports and label <= self._supports[-1].label:
            raise ValueError(
                f"checkpoint label {label!r} does not follow {self._supports[-1].label!r}"
            )
        index = _live_index(state.amplitudes)
        self._supports.append(_Support(label, state.layout, index, state.amplitudes[index]))
        return state

    def state_at(self, label: str) -> StateVector:
        """The checkpoint's state, rebuilt; the cheap way to read one checkpoint."""
        for support in self._supports:
            if support.label == label:
                return support.state()
        raise KeyError(f"no checkpoint labeled {label!r}")

    @property
    def checkpoints(self) -> list[tuple[str, StateVector]]:
        """Every (label, state) pair, each state rebuilt: all of them are dense at once."""
        return [(support.label, support.state()) for support in self._supports]

    @property
    def labels(self) -> list[str]:
        return [support.label for support in self._supports]

    def dumped_supports(self) -> Iterator[_Support]:
        """Each checkpoint's support as it is dumped: only the amplitudes whose
        magnitude exceeds AMPLITUDE_DUMP_TOL, at their ascending flat indices."""
        for label, layout, index, values in self._supports:
            keep = np.abs(values) > AMPLITUDE_DUMP_TOL
            yield _Support(label, layout, index[keep], values[keep])

    def to_json(self, include_states: bool = True) -> dict:
        """The trace as JSON-ready data; each checkpoint's state is what
        StateVector.records() gives for it."""
        if include_states:
            checkpoints = [
                {"label": label, "state": _records(layout, index, values)}
                for label, layout, index, values in self.dumped_supports()
            ]
        else:
            checkpoints = [{"label": label, "state": None} for label in self.labels]
        return {
            "metadata": self.metadata,
            "oracle_queries": self.oracle_queries,
            "checkpoints": checkpoints,
            "measurements": [rec.to_json() for rec in self.measurements],
        }


def execute(circuit: StagedCircuit, rng: np.random.Generator | None) -> AlgorithmTrace:
    """Run a circuit once: apply its gates in order, sample (or force) its
    measurement points with rng, and record checkpoints, measurements and
    oracle uses. rng=None stands for default_rng(0), so runs stay repeatable.

    The running state is the only dense array the run keeps; the trace
    keeps supports.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    trace = AlgorithmTrace(metadata=dict(circuit.metadata))
    state = trace.add("t0", circuit.initial)
    next_labels = [label for label, _ in circuit.steps[1:]] + [None]
    for (label, step), next_label in zip(circuit.steps, next_labels):
        if isinstance(step, MeasurementPoint):
            record = step.apply(state, rng)
            state = record.post_state
            trace.measurements.append(
                MeasurementRecord(record.register, record.outcome, record.probability, None)
            )
            # a record kept alive here would pin this state through the next step
            del record
        else:
            state = step.apply(state)
            trace.oracle_queries += step.uses_oracle
        if label is not None and label != next_label:
            trace.add(label, state)
    return trace
