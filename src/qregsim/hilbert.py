"""Dense complex state vectors over a joint basis of named qubit registers.

The basis index encoding is fixed once and for all: register values are
concatenated in declaration order with the first register most significant,
and each value is written MSB-first in binary inside its register. Every
printed amplitude in this package follows that convention.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateStateError,
    LayoutMismatchError,
    RangeError,
    RegisterError,
)

DEFAULT_WIDTH_CAP = 24

# Amplitudes below this magnitude are dropped from dumps. Rounding-noise level is enough: the
# butterfly Hadamard and the FFT keep exact zeros exact (a dense QFT left 1.3e-13 at 20 qubits).
AMPLITUDE_DUMP_TOL = 1e-14


def _width_cap() -> int:
    """The most qubits a layout may have: DIS_WIDTH_CAP if set, else DEFAULT_WIDTH_CAP."""
    raw = os.environ.get("DIS_WIDTH_CAP", str(DEFAULT_WIDTH_CAP))
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise RegisterError(f"DIS_WIDTH_CAP must be an integer >= 1, got {raw!r}")
    return cap


def _require_width(total_width: int) -> None:
    """Refuse a layout of this many qubits, built or planned, when it is over the cap."""
    cap = _width_cap()
    if total_width > cap:
        raise RegisterError(f"total width {total_width} exceeds cap {cap} qubits")


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named registers (name, qubit width) fixing the joint basis.

    The total width is capped (DIS_WIDTH_CAP, default 24 qubits) so the dense
    amplitude array stays comfortably in memory at 16 bytes per amplitude.
    """

    registers: tuple[tuple[str, int], ...]

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
        _require_width(self.total_width)

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

    def values(self, name: str) -> np.ndarray:
        """Vector of the register's value at every basis index."""
        idx = np.arange(self.dim, dtype=np.int64)
        return (idx >> self.shift(name)) & (self.register_dim(name) - 1)


class _Fresh(np.ndarray):
    """Marks an array the package has just built and holds no other reference to:
    StateVector keeps it instead of copying it (see _adopt)."""


@dataclass(frozen=True, repr=False)
class StateVector:
    """Immutable dense amplitude vector over a layout's joint basis.

    Amplitudes are complex128 and read-only; all operations in this package
    are pure functions returning new StateVector values. The constructor
    copies the array it is given, so the caller may go on mutating it. The
    norm is not forced to 1 here: operations that promise normalization state so.
    """

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = self.amplitudes
        if type(amps) is _Fresh:
            amps = amps.view(np.ndarray)
            if amps.dtype != np.complex128:
                raise TypeError(f"adopted amplitudes must be complex128, got {amps.dtype}")
        else:
            amps = np.array(amps, dtype=np.complex128, copy=True)
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
        """Amplitudes of magnitude above tol (>= 0) as JSON-ready records, sorted by
        basis index."""
        index = _live_index(self.amplitudes)
        return _records(self.layout, *_dumped(index, self.amplitudes[index], tol))

    def __repr__(self) -> str:
        # the first 8 terms, found block by block: a wide state is not dumped whole
        amps, first = self.amplitudes, []
        step = 1 << 14
        for start in range(0, amps.size, step):
            index = _live_index(amps[start : start + step]) + start
            first += _dumped(index, amps[index], 1e-12)[0][: 8 - len(first)].tolist()
            if len(first) == 8:
                break
        terms = []
        index = np.array(first, dtype=np.int64)
        for rec in _records(self.layout, index, amps[index]):
            amp = complex(rec["re"], rec["im"])
            ket = ",".join(f"{reg}={val}" for reg, val in rec["label"].items())
            terms.append(f"({amp:.4g})|{ket}>")
        body = " + ".join(terms) if terms else "0"
        return f"StateVector({body})"


def _nonzero(amps: np.ndarray) -> np.ndarray:
    """The mask of nonzero entries of a complex128 array whose last axis is contiguous.

    It compares the float64 view and pairs each entry's two bytes of result: from about
    2^11 amplitudes up that is 2-3.5x faster than amps != 0 on complex numbers. -0.0
    counts as zero and NaN as nonzero, as they do there.
    """
    return (amps.view(np.float64) != 0).view(np.uint16) != 0


# _live_index reads the amplitudes this many at a time, so that its masks stay small
# (a whole-array mask of a 20-qubit state is 3 MB of fresh pages on every scan).
_SCAN_BLOCK = 1 << 16
# Up to this many amplitudes amps.nonzero() on complex numbers costs less than _nonzero's
# four array operations: 7.3 against 13.7 us at 2^10, 16.9 against 15.7 us at 2^11.
_SMALL_SCAN = 1 << 10


def _live_index(amps: np.ndarray) -> np.ndarray:
    """Ascending flat indices of the nonzero entries of a 1-d complex128 array."""
    if amps.size <= _SMALL_SCAN:
        return amps.nonzero()[0]
    if amps.size <= _SCAN_BLOCK:
        return _nonzero(amps).nonzero()[0]
    return np.concatenate(
        [
            _live_index(amps[start : start + _SCAN_BLOCK]) + start
            for start in range(0, amps.size, _SCAN_BLOCK)
        ]
    )


def _dumped(
    index: np.ndarray, values: np.ndarray, tol: float = AMPLITUDE_DUMP_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """The entries of a support (flat indices and their amplitudes) that a dump writes:
    those whose magnitude exceeds tol."""
    keep = np.abs(values) > tol
    return index[keep], values[keep]


def _records(layout: RegisterLayout, index: np.ndarray, amps: np.ndarray) -> list[dict]:
    """JSON-ready records of the amplitudes amps at the ascending basis indices index."""
    # the basis encoding is C order over the register dims, first register slowest:
    # one unravel decodes every register's column; tolist() gives plain ints and floats
    names = layout.names
    dims = [1 << width for _, width in layout.registers]
    columns = [column.tolist() for column in np.unravel_index(index, dims)]
    return [
        {"label": dict(zip(names, values)), "re": re, "im": im}
        for values, re, im in zip(zip(*columns), amps.real.tolist(), amps.imag.tolist())
    ]


def _adopt(layout: RegisterLayout, amps: np.ndarray) -> StateVector:
    """Wrap a freshly built amplitude array without copying it; it becomes read-only."""
    return StateVector(layout, amps.view(_Fresh))


class _Support(NamedTuple):
    """A state as the flat indices of its exact nonzeros and their amplitudes, under a
    checkpoint label (None: no checkpoint). Both arrays are read-only: the traces of one
    circuit share them."""

    label: str | None
    layout: RegisterLayout
    index: np.ndarray
    values: np.ndarray

    def state(self) -> StateVector:
        amps = np.zeros(self.layout.dim, dtype=np.complex128)
        amps[self.index] = self.values
        return _adopt(self.layout, amps)


def _shared(
    label: str | None, layout: RegisterLayout, index: np.ndarray, values: np.ndarray
) -> _Support:
    """A support of freshly built arrays, made read-only so that traces may share them."""
    index.setflags(write=False)
    values.setflags(write=False)
    return _Support(label, layout, index, values)


def _support(label: str | None, state: StateVector) -> _Support:
    """The state's support, exact: every nonzero amplitude is kept, however small."""
    index = _live_index(state.amplitudes)
    return _shared(label, state.layout, index, state.amplitudes[index])


def make_basis_state(layout: RegisterLayout, label: Mapping[str, int]) -> StateVector:
    """Unit vector with amplitude 1 at the encoded label, 0 elsewhere."""
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[layout.index_of(label)] = 1.0
    return _adopt(layout, amps)


def state_from_terms(
    layout: RegisterLayout, terms: Iterable[tuple[Mapping[str, int], complex]]
) -> StateVector:
    """Build a state from (label, amplitude) terms; amplitudes at equal labels add."""
    amps = np.zeros(layout.dim, dtype=np.complex128)
    for label, amp in terms:
        amps[layout.index_of(label)] += amp
    return _adopt(layout, amps)


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
    if not np.isfinite(n):
        raise DegenerateStateError("cannot normalize a state whose norm is not finite")
    return _adopt(x.layout, x.amplitudes / n)


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
