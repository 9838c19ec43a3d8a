"""Dense complex state vectors over a joint basis of named qubit registers.

The basis index encoding is fixed once and for all: register values are
concatenated in declaration order with the first register most significant,
and each value is written MSB-first in binary inside its register. Every
printed amplitude in this package follows that convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateStateError,
    LayoutMismatchError,
    RangeError,
    RegisterError,
)

DEFAULT_WIDTH_CAP = 24

# Amplitudes below this magnitude are dropped from dumps and distributions.
AMPLITUDE_DUMP_TOL = 1e-14


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named registers (name, qubit width) fixing the joint basis.

    The total width is capped (default 24 qubits) so the dense amplitude
    array stays comfortably in memory at 16 bytes per amplitude.
    """

    registers: tuple[tuple[str, int], ...]
    width_cap: int = field(default=DEFAULT_WIDTH_CAP, compare=False)

    def __post_init__(self) -> None:
        regs = tuple((str(name), int(width)) for name, width in self.registers)
        object.__setattr__(self, "registers", regs)
        names = [name for name, _ in regs]
        if not regs:
            raise RegisterError("layout needs at least one register")
        if len(set(names)) != len(names):
            raise RegisterError(f"duplicate register names in {names}")
        for name, width in regs:
            if width < 1:
                raise RegisterError(f"register {name!r} must have width >= 1, got {width}")
        if self.total_width > self.width_cap:
            raise RegisterError(
                f"total width {self.total_width} exceeds cap {self.width_cap} qubits"
            )

    @cached_property
    def total_width(self) -> int:
        return sum(width for _, width in self.registers)

    @cached_property
    def dim(self) -> int:
        return 1 << self.total_width

    @cached_property
    def _shifts(self) -> dict[str, int]:
        shifts: dict[str, int] = {}
        used = 0
        for name, width in self.registers:
            used += width
            shifts[name] = self.total_width - used
        return shifts

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.registers)

    def width(self, name: str) -> int:
        for reg, width in self.registers:
            if reg == name:
                return width
        raise RegisterError(f"unknown register {name!r}; layout has {self.names}")

    def register_dim(self, name: str) -> int:
        return 1 << self.width(name)

    def shift(self, name: str) -> int:
        if name not in self._shifts:
            raise RegisterError(f"unknown register {name!r}; layout has {self.names}")
        return self._shifts[name]

    def index_of(self, label: Mapping[str, int]) -> int:
        """Encode a per-register value assignment into a basis index.

        Registers missing from the label default to 0.
        """
        for name in label:
            if name not in self._shifts:
                raise RegisterError(f"unknown register {name!r}; layout has {self.names}")
        index = 0
        for name, width in self.registers:
            value = int(label.get(name, 0))
            if not 0 <= value < (1 << width):
                raise RangeError(
                    f"value {value} out of range [0, {1 << width}) for register {name!r}"
                )
            index = (index << width) | value
        return index

    def label_of(self, index: int) -> dict[str, int]:
        """Decode a basis index into the per-register value assignment."""
        if not 0 <= index < self.dim:
            raise RangeError(f"basis index {index} out of range [0, {self.dim})")
        return {
            name: (index >> self._shifts[name]) & ((1 << width) - 1)
            for name, width in self.registers
        }

    def value_at(self, index: int, name: str) -> int:
        return (index >> self.shift(name)) & (self.register_dim(name) - 1)

    def values(self, name: str) -> np.ndarray:
        """Vector of the register's value at every basis index."""
        idx = np.arange(self.dim, dtype=np.int64)
        return (idx >> self.shift(name)) & (self.register_dim(name) - 1)


@dataclass(frozen=True, repr=False)
class StateVector:
    """Immutable dense amplitude vector over a layout's joint basis.

    Amplitudes are complex128 and read-only; all operations in this package
    are pure functions returning new StateVector values. The norm is not
    forced to 1 here: operations that promise normalization state so.
    """

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amps.shape != (self.layout.dim,):
            raise LayoutMismatchError(
                f"amplitude array of shape {amps.shape} does not match layout dim {self.layout.dim}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def amplitude(self, label: Mapping[str, int]) -> complex:
        return complex(self.amplitudes[self.layout.index_of(label)])

    def records(self, tol: float = AMPLITUDE_DUMP_TOL) -> list[dict]:
        """Nonzero amplitudes as JSON-ready records, sorted by basis index."""
        out = []
        for index in np.nonzero(np.abs(self.amplitudes) > tol)[0]:
            amp = self.amplitudes[index]
            out.append(
                {
                    "label": self.layout.label_of(int(index)),
                    "re": float(amp.real),
                    "im": float(amp.imag),
                }
            )
        return out

    def __repr__(self) -> str:
        terms = []
        for rec in self.records(tol=1e-12)[:8]:
            amp = complex(rec["re"], rec["im"])
            ket = ",".join(f"{reg}={val}" for reg, val in rec["label"].items())
            terms.append(f"({amp:.4g})|{ket}>")
        body = " + ".join(terms) if terms else "0"
        return f"StateVector({body})"


def make_basis_state(layout: RegisterLayout, label: Mapping[str, int]) -> StateVector:
    """Unit vector with amplitude 1 at the encoded label, 0 elsewhere."""
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[layout.index_of(label)] = 1.0
    return StateVector(layout, amps)


def state_from_terms(
    layout: RegisterLayout, terms: Iterable[tuple[Mapping[str, int], complex]]
) -> StateVector:
    """Build a state from (label, amplitude) terms; amplitudes at equal labels add."""
    amps = np.zeros(layout.dim, dtype=np.complex128)
    for label, amp in terms:
        amps[layout.index_of(label)] += amp
    return StateVector(layout, amps)


def _check_same_layout(x: StateVector, y: StateVector) -> None:
    if x.layout != y.layout:
        raise LayoutMismatchError(
            f"layouts differ: {x.layout.registers} vs {y.layout.registers}"
        )


def inner_product(x: StateVector, y: StateVector) -> complex:
    """<x|y>, conjugate-linear in the first argument."""
    _check_same_layout(x, y)
    return complex(np.vdot(x.amplitudes, y.amplitudes))


def normalize(x: StateVector) -> StateVector:
    """Scale to unit norm, preserving direction."""
    n = x.norm
    if n == 0.0:
        raise DegenerateStateError("cannot normalize the zero vector")
    return StateVector(x.layout, x.amplitudes / n)


def equals_up_to_global_phase(x: StateVector, y: StateVector, tol: float = 1e-12) -> bool:
    """True iff x equals c*y for some unit-modulus scalar c, within tol.

    The candidate phase is read off at y's largest-magnitude amplitude.
    """
    _check_same_layout(x, y)
    pivot = int(np.argmax(np.abs(y.amplitudes)))
    y_piv = y.amplitudes[pivot]
    if abs(y_piv) == 0.0:
        return bool(np.linalg.norm(x.amplitudes) <= tol)
    ratio = x.amplitudes[pivot] * np.conj(y_piv)
    if abs(ratio) == 0.0:
        return False
    phase = ratio / abs(ratio)
    return bool(np.linalg.norm(x.amplitudes - phase * y.amplitudes) <= tol)


def state_from_records(layout: RegisterLayout, records: Sequence[Mapping]) -> StateVector:
    """Inverse of StateVector.records for the given layout."""
    return state_from_terms(
        layout,
        ((rec["label"], complex(rec["re"], rec["im"])) for rec in records),
    )
