"""Labeled execution traces, and the one executor that produces them from a
StagedCircuit for all four algorithm runners."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..hilbert import StateVector
from ..measurement import MeasurementPoint, MeasurementRecord, StagedCircuit


@dataclass
class AlgorithmTrace:
    """Checkpoint states keyed by time labels t0..t5, plus measurement
    records, the number of oracle uses, and run metadata."""

    checkpoints: list[tuple[str, StateVector]] = field(default_factory=list)
    measurements: list[MeasurementRecord] = field(default_factory=list)
    oracle_queries: int = 0
    metadata: dict = field(default_factory=dict)

    def add(self, label: str, state: StateVector) -> StateVector:
        if self.checkpoints and label <= self.checkpoints[-1][0]:
            raise ValueError(
                f"checkpoint label {label!r} does not follow {self.checkpoints[-1][0]!r}"
            )
        self.checkpoints.append((label, state))
        return state

    def state_at(self, label: str) -> StateVector:
        for lbl, state in self.checkpoints:
            if lbl == label:
                return state
        raise KeyError(f"no checkpoint labeled {label!r}")

    @property
    def labels(self) -> list[str]:
        return [lbl for lbl, _ in self.checkpoints]

    def to_json(self, include_states: bool = True) -> dict:
        return {
            "metadata": self.metadata,
            "oracle_queries": self.oracle_queries,
            "checkpoints": [
                {"label": lbl, "state": state.records() if include_states else None}
                for lbl, state in self.checkpoints
            ],
            "measurements": [rec.to_json() for rec in self.measurements],
        }


def execute(circuit: StagedCircuit, rng: np.random.Generator | None) -> AlgorithmTrace:
    """Run a circuit once: apply its gates in order, sample (or force) its
    measurement points with rng, and record checkpoints, measurements and
    oracle uses. rng=None stands for default_rng(0), so runs stay repeatable.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    trace = AlgorithmTrace(metadata=dict(circuit.metadata))
    state = trace.add("t0", circuit.initial)
    next_labels = [label for label, _ in circuit.steps[1:]] + [None]
    for (label, step), next_label in zip(circuit.steps, next_labels):
        if isinstance(step, MeasurementPoint):
            record = step.apply(state, rng)
            trace.measurements.append(record)
            state = record.post_state
        else:
            state = step.apply(state)
            trace.oracle_queries += step.uses_oracle
        if label is not None and label != next_label:
            trace.add(label, state)
    return trace
