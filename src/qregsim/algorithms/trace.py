"""Labeled execution traces, and the one executor that produces them from a
StagedCircuit for all four algorithm runners.

execute samples one path through the circuit's outcome tree (see measurement):
it draws each outcome as measure does and copies the path's supports, records and
oracle uses into a fresh trace. Traces of one circuit object share the read-only
arrays of the checkpoints they have in common.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..hilbert import StateVector, _dumped, _records, _Support
from ..measurement import MeasurementRecord, StagedCircuit, _outcome_path


@dataclass
class AlgorithmTrace:
    """Checkpoint states keyed by time labels t0..t5, plus measurement
    records, the number of oracle uses, and run metadata.

    A checkpoint is kept as its support: the flat indices of its exact nonzero
    amplitudes and those amplitudes, so a trace holds no dense array. state_at and
    checkpoints rebuild a fresh read-only StateVector on every call, exactly equal
    to the state that was recorded. The measurement records carry no post_state: the
    state after a measurement is the checkpoint the executor records after it.

    dumped_supports gives each checkpoint as it is written out, without the
    amplitudes at or below AMPLITUDE_DUMP_TOL. to_json is built on it, and so is
    `qregsim run`, which encodes each distinct dumped support once per run.
    """

    measurements: list[MeasurementRecord] = field(default_factory=list)
    oracle_queries: int = 0
    metadata: dict = field(default_factory=dict)
    _supports: list[_Support] = field(default_factory=list, init=False, repr=False)

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
            yield _Support(label, layout, *_dumped(index, values))

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
    """Run a circuit once: sample (or force) its measurement points with rng, and
    return the checkpoints, measurements and oracle uses of the path taken. rng=None
    stands for default_rng(0), so runs stay repeatable.

    The run is one path through the circuit's outcome tree (measurement._outcome_path),
    drawn as measure draws each outcome, so the rng stream, the outcomes and the trace
    are those of stepping the circuit afresh. The steps of a path that an earlier run on
    this circuit object took are not simulated again: the trace shares their supports.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    trace = AlgorithmTrace(metadata=dict(circuit.metadata))
    for node in _outcome_path(circuit, rng):
        if node.record is not None:
            trace.measurements.append(node.record)
        trace._supports += node.supports
        trace.oracle_queries += node.uses
    return trace
