"""Labeled execution traces, and the one executor that produces them from a
StagedCircuit for all four algorithm runners.

execute draws one path through the circuit's outcome tree (see measurement), each
outcome as measure draws it, and _path_trace copies the path's checkpoints, records and
oracle uses into a fresh trace. Traces of one circuit object share the read-only
arrays of the checkpoints they have in common.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..hilbert import StateVector
from ..measurement import MeasurementRecord, StagedCircuit, _Node, _outcome_path


@dataclass
class AlgorithmTrace:
    """Checkpoint states keyed by time labels t0..t5, plus measurement
    records, the number of oracle uses, and run metadata.

    Each checkpoint label maps to the state the run recorded, stored as its support:
    the flat indices of its exact nonzero amplitudes and those amplitudes, so a trace
    holds no dense array. Labels ascend along a path, so the map's insertion order is
    checkpoint order. state_at and checkpoints return the trace's own states, in O(1); a
    dense array read off one is built for that read (see hilbert.StateVector). The
    measurement records carry no post_state: the state after a measurement is the
    checkpoint the executor records after it.
    """

    measurements: list[MeasurementRecord] = field(default_factory=list)
    oracle_queries: int = 0
    metadata: dict = field(default_factory=dict)
    _states: dict[str, StateVector] = field(default_factory=dict, init=False, repr=False)

    def state_at(self, label: str) -> StateVector:
        """The checkpoint's state, stored as its support."""
        if label not in self._states:
            raise KeyError(f"no checkpoint labeled {label!r}")
        return self._states[label]

    @property
    def checkpoints(self) -> list[tuple[str, StateVector]]:
        """Every (label, state) pair, in checkpoint order."""
        return list(self._states.items())

    @property
    def labels(self) -> list[str]:
        return list(self._states)

    def to_json(self) -> dict:
        """The trace as JSON-ready data; each checkpoint's state is its records()."""
        return {
            "metadata": self.metadata,
            "oracle_queries": self.oracle_queries,
            "checkpoints": [
                {"label": label, "state": state.records()} for label, state in self._states.items()
            ],
            "measurements": [rec.to_json() for rec in self.measurements],
        }


def execute(circuit: StagedCircuit, rng: np.random.Generator | None) -> AlgorithmTrace:
    """Run a circuit once: sample (or force) its measurement points with rng, and
    return the checkpoints, measurements and oracle uses of the path taken. rng=None
    stands for default_rng(0), so runs stay repeatable.

    The run is one path through the circuit's outcome tree (measurement._outcome_path),
    drawn as measure draws each outcome, so the rng stream, the outcomes and the trace
    are those of stepping the circuit afresh. The steps of a path that an earlier run on
    this circuit object took are not simulated again: the trace shares their states.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    return _path_trace(circuit, _outcome_path(circuit, rng))


def _path_trace(circuit: StagedCircuit, path: list[_Node]) -> AlgorithmTrace:
    """A fresh trace of the run that took path, root first, through the circuit's tree."""
    trace = AlgorithmTrace(metadata=dict(circuit.metadata))
    for node in path:
        if node.record is not None:
            trace.measurements.append(node.record)
        trace._states.update(node.checkpoints)
        trace.oracle_queries += node.uses
    return trace
