"""Complex state vectors over a joint basis of named qubit registers.

The basis index encoding is fixed once and for all: register values are
concatenated in declaration order with the first register most significant,
and each value is written MSB-first in binary inside its register. Every
printed amplitude in this package follows that convention.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
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
        return _decode(self, (name,), np.arange(self.dim, dtype=np.int64))


def _decode(layout: RegisterLayout, registers: Sequence[str], index: np.ndarray) -> np.ndarray:
    """The joint value of the registers at each flat index, as a new array: their values
    concatenated, the first register most significant (0 for no register). The one
    decode of the basis encoding that the package's array code uses."""
    joint = None
    for name in registers:
        value = index >> layout.shift(name)
        value &= layout.register_dim(name) - 1
        joint = value if joint is None else (joint << layout.width(name)) | value
    return np.zeros_like(index) if joint is None else joint


@dataclass(frozen=True, eq=False, repr=False)
class StateVector:
    """Immutable amplitude vector over a layout's joint basis.

    A state stores one of two forms, chosen where it is built: its dense array of
    amplitudes, or its support, the ascending flat indices of its exact nonzero
    amplitudes (index) and those amplitudes (values). Reading the other form builds it
    for that read only, read-only, and does not keep it, so a state never changes after
    it is built. Every array is read-only; all operations in this package are pure
    functions returning new StateVector values, and a kernel returns the form it was
    given. The constructor copies the array it is given, so the caller may go on
    mutating it. The norm is not forced to 1 here: operations that promise
    normalization state so. Equality is identity.
    """

    layout: RegisterLayout
    amplitudes: np.ndarray
    # whether the state stores its support; the package's own states are built by _stored
    _sparse = False

    def __post_init__(self) -> None:
        """Copy the array, check it against the layout, and make it read-only."""
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amps.shape != (self.layout.dim,):
            raise LayoutMismatchError(
                f"amplitude array of shape {amps.shape} does not match layout dim {self.layout.dim}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def __getattr__(self, name: str):
        # only the form that the state does not store gets here; it is built for this read
        if name in ("index", "values") and not self._sparse:
            return getattr(_sparse_view(self), name)
        if name != "amplitudes" or not self._sparse:
            raise AttributeError(f"'StateVector' object has no attribute {name!r}")
        amps = np.zeros(self.layout.dim, dtype=np.complex128)
        amps[self.index] = self.values
        amps.setflags(write=False)
        return amps

    @property
    def norm(self) -> float:
        _, n, largest = _norm(self.values if self._sparse else self.amplitudes)
        return largest * n

    def amplitude(self, label: Mapping[str, int]) -> complex:
        flat = self.layout.index_of(label)
        if self._sparse:
            return complex(self.values[self.index == flat].sum())
        return complex(self.amplitudes[flat])

    def records(self, tol: float = AMPLITUDE_DUMP_TOL) -> list[dict]:
        """Amplitudes of magnitude above tol (>= 0) as JSON-ready records, sorted by
        basis index."""
        support = _sparse_view(self)
        return _records(self.layout, *_dumped(support.index, support.values, tol))

    def __repr__(self) -> str:
        # the first 8 terms; a dense state is scanned block by block, so that reading a
        # wide one builds neither its dump nor its support
        if self._sparse:
            index, values = (part[:8] for part in _dumped(self.index, self.values, 1e-12))
        else:
            amps, first, step = self.amplitudes, [], 1 << 14
            for start in range(0, amps.size, step):
                block = _live_index(amps[start : start + step]) + start
                first += _dumped(block, amps[block], 1e-12)[0][: 8 - len(first)].tolist()
                if len(first) == 8:
                    break
            index = np.array(first, dtype=np.int64)
            values = amps[index]
        terms = []
        for rec in _records(self.layout, index, values):
            amp = complex(rec["re"], rec["im"])
            ket = ",".join(f"{reg}={val}" for reg, val in rec["label"].items())
            terms.append(f"({amp:.4g})|{ket}>")
        body = " + ".join(terms) if terms else "0"
        return f"StateVector({body})"


def _stored(layout: RegisterLayout, index=None, values=None, amplitudes=None) -> StateVector:
    """A state that stores freshly built arrays without a copy, made read-only so that
    states may share them: its support, index and values, or else its dense amplitudes.
    It costs what a tuple of the arrays does, for the outcome tree builds thousands."""
    state = object.__new__(StateVector)
    stored = vars(state)
    stored["layout"] = layout
    if amplitudes is None:
        stored["index"], stored["values"], stored["_sparse"] = index, values, True
        index.setflags(write=False)
        values.setflags(write=False)
    else:
        stored["amplitudes"] = amplitudes
        amplitudes.setflags(write=False)
    return state


def _sparse_view(state: StateVector) -> StateVector:
    """The state stored as its support: state itself if it stores its support, else a
    new state over the support of its dense array, found in one scan."""
    if state._sparse:
        return state
    amps = state.amplitudes
    index = _live_index(amps)
    return _stored(state.layout, index=index, values=amps[index])


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
    # tolist() gives the plain ints and floats that json writes
    names = layout.names
    columns = [_decode(layout, (name,), index).tolist() for name in names]
    return [
        {"label": dict(zip(names, values)), "re": re, "im": im}
        for values, re, im in zip(zip(*columns), amps.real.tolist(), amps.imag.tolist())
    ]


def _sparse_basis(layout: RegisterLayout, label: Mapping[str, int]) -> StateVector:
    """The basis state at the encoded label, stored as its support: its one index, with
    amplitude 1. No array of the whole state is made."""
    index = np.array([layout.index_of(label)], dtype=np.intp)
    return _stored(layout, index=index, values=np.ones(1, dtype=np.complex128))


def make_basis_state(layout: RegisterLayout, label: Mapping[str, int]) -> StateVector:
    """Unit vector with amplitude 1 at the encoded label, 0 elsewhere."""
    return _stored(layout, amplitudes=_sparse_basis(layout, label).amplitudes)


def state_from_terms(
    layout: RegisterLayout, terms: Iterable[tuple[Mapping[str, int], complex]]
) -> StateVector:
    """Build a state from (label, amplitude) terms; amplitudes at equal labels add."""
    amps = np.zeros(layout.dim, dtype=np.complex128)
    for label, amp in terms:
        amps[layout.index_of(label)] += amp
    return _stored(layout, amplitudes=amps)


def _check_same_layout(x: StateVector, y: StateVector) -> None:
    if x.layout != y.layout:
        raise LayoutMismatchError(
            f"layouts differ: {x.layout.registers} vs {y.layout.registers}"
        )


def inner_product(x: StateVector, y: StateVector) -> complex:
    """<x|y>, conjugate-linear in the first argument."""
    _check_same_layout(x, y)
    return complex(np.vdot(x.amplitudes, y.amplitudes))


# Above this many entries _rescaled checks and multiplies instead of dividing. numpy's
# complex division against the check and multiply: 1.5 against 2.7 us at 2 entries, 4.6
# against 3.9 us at 2^10, 37 against 12 us at 2^13.
_RESCALE_BY_MULTIPLY = 1 << 10
# -0.0's bits read as an int64: the least int64, which no other float64 has.
_NEGATIVE_ZERO_BITS = np.iinfo(np.int64).min
# np.linalg.norm squares without scaling: below this norm the squares it sums are
# subnormal, or 0, and the norm has lost bits.
_NORM_FLOOR = float(np.sqrt(np.finfo(np.float64).tiny))


def _rescaled(values: np.ndarray, n: float) -> np.ndarray:
    """values / n as a new array, bit for bit: values a 1-d complex128 array and n a finite
    float above 0.

    numpy divides by n as by the complex n + 0j (Smith's method): re' = (re + im*0) * (1/n)
    and im' = (im - re*0) * (1/n), which equal re * (1/n) and im * (1/n) unless a part is
    -0.0. So a large contiguous array with no -0.0 part is multiplied part by part, which
    costs less than the complex division."""
    if values.size > _RESCALE_BY_MULTIPLY and values.flags.c_contiguous:
        parts = values.view(np.float64)
        if parts.view(np.int64).min() != _NEGATIVE_ZERO_BITS:
            return (parts * (1.0 / n)).view(np.complex128)
    return values / n


def _norm(amps: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(scaled, n, largest): the norm of amps is largest * n, n the norm of scaled.

    A finite nonzero array whose norm overflows (an amplitude above about 1e154) or is
    below _NORM_FLOOR (about 1.5e-154), where its squares are subnormal, is scaled by its
    largest real or imaginary part. Every other array is its own scaled, with n its
    np.linalg.norm and largest 1.0."""
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(amps))
    if (n < _NORM_FLOOR or n == np.inf) and np.isfinite(amps).all() and amps.any():
        # part by part: dividing the complex array multiplies by 1/largest, which
        # rounds twice, and overflows when largest is subnormal
        parts = np.ascontiguousarray(amps).view(np.float64)  # re, im, re, im, ...
        largest = float(np.abs(parts).max())
        amps = (parts / largest).view(np.complex128)
        return amps, float(np.linalg.norm(amps)), largest
    return amps, n, 1.0


def normalize(x: StateVector) -> StateVector:
    """Scale to unit norm, preserving direction: the state's stored form, its support's
    values or its dense array, scaled as _norm scales it, divided by the norm of that."""
    amps, n, _ = _norm(x.values if x._sparse else x.amplitudes)
    if n == 0.0:
        raise DegenerateStateError("cannot normalize the zero vector")
    if not np.isfinite(n):
        raise DegenerateStateError("cannot normalize a state whose norm is not finite")
    out = _rescaled(amps, n)
    return _stored(x.layout, x.index, out) if x._sparse else _stored(x.layout, amplitudes=out)


def equals_up_to_global_phase(x: StateVector, y: StateVector, tol: float = 1e-12) -> bool:
    """True iff x equals c*y for some unit-modulus scalar c, within tol.

    The candidate phase is read off at y's largest-magnitude amplitude.
    """
    _check_same_layout(x, y)
    xs, ys = x.amplitudes, y.amplitudes
    pivot = int(np.argmax(np.abs(ys)))
    y_piv = ys[pivot]
    if abs(y_piv) == 0.0:
        return bool(np.linalg.norm(xs) <= tol)
    ratio = xs[pivot] * np.conj(y_piv)
    if abs(ratio) == 0.0:
        return False
    phase = ratio / abs(ratio)
    return bool(np.linalg.norm(xs - phase * ys) <= tol)


def state_from_records(layout: RegisterLayout, records: Sequence[Mapping]) -> StateVector:
    """Inverse of StateVector.records for the given layout."""
    return state_from_terms(
        layout,
        ((rec["label"], complex(rec["re"], rec["im"])) for rec in records),
    )
