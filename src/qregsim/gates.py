"""Unitary building blocks: register Hadamard, Fourier transform, reversible
function gates (additive and mod-2), diffusion, diagonal phases, and their
GateSpec wrapper.

All gates act on one or more named registers of a StateVector and return a
new StateVector; inputs are never mutated. Register gates work on a (left, d, right)
view of the amplitudes, never a d x d matrix; function gates share one permutation kernel,
which finds the nonzero amplitudes block by block and scatters only those into a zeroed
output, so its cost follows the state's support and it builds no index table.

The Hadamard, Fourier and diffusion kernels are linear along the register's axis, so an
all-zero (left, right) fiber stays exactly zero. They skip the all-zero fibers outside the
smallest box of left rows and right columns that holds every nonzero amplitude: they
transform that box and write it into a zeroed output. A state after a measurement, or a
basis state, has a box of one fiber. Every kernel builds its output array fresh and the
StateVector adopts it without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import RangeError, RegisterError
from .hilbert import RegisterLayout, StateVector, _adopt, _live_index, _nonzero
from .oracles import FunctionOracle


def _register_view(amplitudes: np.ndarray, layout: RegisterLayout, register: str) -> np.ndarray:
    """The amplitudes as (left, d, right), without a copy; axis 1 is the register's value."""
    return amplitudes.reshape(-1, layout.register_dim(register), 1 << layout.shift(register))


def _span(live: np.ndarray) -> slice:
    """The shortest slice that holds every True entry of a 1-d mask (all of it if none is)."""
    return slice(int(live.argmax()), live.size - int(live[::-1].argmax()))


def _live_box(view: np.ndarray) -> tuple[slice, slice, slice]:
    """Slices of the left rows and right columns of a (left, d, right) view that bound
    every nonzero amplitude. After a measurement, or on a basis state, the box is one fiber."""
    nonzero = _nonzero(view)
    return _span(nonzero.any(axis=(1, 2))), slice(None), _span(nonzero.any(axis=(0, 1)))


def _on_live_box(state: StateVector, register: str, transform) -> StateVector:
    """Apply a linear map along the register's axis to the box of fibers that holds every
    nonzero amplitude.

    transform gets the box as a read-only (rows, d, columns) view and returns the mapped
    block as a new array. An all-zero fiber maps to zero, so the output is zero outside the box.
    """
    view = _register_view(state.amplitudes, state.layout, register)
    box = _live_box(view)
    block = transform(view[box])
    # allocated after the transform, so its temporaries and this array are never alive together
    out = np.zeros(view.shape, dtype=np.complex128)
    out[box] = block
    return _adopt(state.layout, out.reshape(-1))


def _butterflies(block: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along axis 1 of a (rows, d, columns) block, into a copy."""
    block = block.copy()
    rows, d, columns = block.shape
    half = 1
    while half < d:
        # the pairs of values that differ in one bit only
        low, high = block.reshape(rows * d // (2 * half), 2, half * columns).swapaxes(0, 1)
        diff = low - high
        low += high
        high[...] = diff
        half <<= 1
    block *= 1.0 / np.sqrt(d)
    return block


def hadamard(state: StateVector, register: str) -> StateVector:
    """Apply H to every qubit of one register; self-inverse.

    On a register holding x, the amplitude sent to z carries the sign
    (-1)^(popcount(x & z)), i.e. the mod-2 inner product of the binary words.
    """
    return _on_live_box(state, register, _butterflies)


def qft(state: StateVector, register: str, inverse: bool = False) -> StateVector:
    """Discrete Fourier transform on one register.

    The amplitude at z becomes (1/sqrt(N)) * sum_x exp(2*pi*i*x*z/N) * amp[x]
    over that register's dimension N (conjugated when inverse=True).
    """
    # numpy's ifft carries the exp(+2*pi*i*x*z/N) sign, fft the conjugate.
    transform = np.fft.fft if inverse else np.fft.ifft
    return _on_live_box(state, register, lambda block: transform(block, axis=1, norm="ortho"))


def grover_diffusion(state: StateVector, register: str) -> StateVector:
    """Inversion about the mean, 2|s><s| - I, on one register."""
    return _on_live_box(
        state, register, lambda block: 2.0 * block.mean(axis=1, keepdims=True) - block
    )


def apply_phases(state: StateVector, register: str, phases: Sequence[float]) -> StateVector:
    """Multiply each branch whose register holds j by e^(i*phases[j])."""
    layout = state.layout
    if len(phases) != layout.register_dim(register):
        raise RegisterError(
            f"register {register!r} needs {layout.register_dim(register)} phases, got {len(phases)}"
        )
    factors = np.exp(1j * np.asarray(phases, dtype=np.float64))
    view = _register_view(state.amplitudes, layout, register)
    return _adopt(layout, (view * factors[:, None]).reshape(-1))


def _check_widths(state: StateVector, oracle: FunctionOracle, in_reg: str, out_reg: str) -> None:
    layout = state.layout
    if layout.width(in_reg) != oracle.domain_width:
        raise RegisterError(
            f"register {in_reg!r} width {layout.width(in_reg)} != oracle domain width "
            f"{oracle.domain_width}"
        )
    if layout.width(out_reg) != oracle.codomain_width:
        raise RegisterError(
            f"register {out_reg!r} width {layout.width(out_reg)} != oracle codomain width "
            f"{oracle.codomain_width}"
        )


# The permutation kernel moves this many amplitudes at a time, so that its index
# temporaries stay small (2^14 was the fastest at 16-20 qubits, dense or one-fiber).
_PERMUTE_BLOCK = 1 << 14


def _permute_register(
    state: StateVector, registers: tuple[str, ...], fc: np.ndarray, combine: np.ufunc
) -> StateVector:
    """|c>|y> -> |c>|combine(fc[c], y) mod d> for target y = registers[-1] and c the joint
    value of the others (first most significant); combine(fc[c], .) must permute range(d).

    Only live amplitudes move: block by block, the flat index i of each nonzero amplitude
    is decoded into c and y, and the amplitude is scattered to i with y replaced. A
    permutation sends zeros to zeros, so the rest of the output stays zero."""
    if len(set(registers)) != len(registers):
        raise RegisterError(f"a gate's registers must be distinct, got {tuple(registers)}")
    layout = state.layout
    *controls, target = registers
    shift, d = layout.shift(target), layout.register_dim(target)
    amps = state.amplitudes
    out = np.zeros(layout.dim, dtype=np.complex128)
    for start in range(0, layout.dim, _PERMUTE_BLOCK):
        block = amps[start : start + _PERMUTE_BLOCK]
        index = _live_index(block)
        if not index.size:
            continue
        values = block[index]
        index += start
        c = 0
        for name in controls:
            value = (index >> layout.shift(name)) & (layout.register_dim(name) - 1)
            c = (c << layout.width(name)) | value
        y = index >> shift
        y &= d - 1
        moved = combine(fc[c], y)
        moved &= d - 1
        moved ^= y
        moved <<= shift
        moved ^= index
        out[moved] = values
    return _adopt(layout, out)


def apply_function_xor(
    state: StateVector, oracle: FunctionOracle, in_reg: str, out_reg: str
) -> StateVector:
    """|x>|y> -> |x>|y ^ f(x)>, extended linearly; self-inverse."""
    _check_widths(state, oracle, in_reg, out_reg)
    return _permute_register(state, (in_reg, out_reg), oracle.table_array, np.bitwise_xor)


def apply_function_add(
    state: StateVector, oracle: FunctionOracle, in_reg: str, out_reg: str
) -> StateVector:
    """|x>|y> -> |x>|y + f(x) mod 2^w>; modular addition is a permutation."""
    _check_widths(state, oracle, in_reg, out_reg)
    return _permute_register(state, (in_reg, out_reg), oracle.table_array, np.add)


def apply_phase_oracle(state: StateVector, oracle: FunctionOracle, in_reg: str) -> StateVector:
    """Multiply each |x> branch by (-1)^f(x); needs a 1-bit codomain."""
    if oracle.codomain_width != 1:
        raise RegisterError("phase oracle needs a 1-bit codomain")
    if state.layout.width(in_reg) != oracle.domain_width:
        raise RegisterError(
            f"register {in_reg!r} width != oracle domain width {oracle.domain_width}"
        )
    signs = 1.0 - 2.0 * oracle.table_array
    view = _register_view(state.amplitudes, state.layout, in_reg)
    return _adopt(state.layout, (view * signs[:, None]).reshape(-1))


def apply_function_xor_controlled(
    state: StateVector,
    family: Sequence[FunctionOracle],
    mode_reg: str,
    in_reg: str,
    out_reg: str,
) -> StateVector:
    """|k>|x>|y> -> |k>|x>|y ^ f_k(x)>: one gate for a whole indexed family.

    The mode register selects which family member acts; its content is left
    unchanged, which keeps the gate reversible. Mode values past the end of
    the family are rejected if the state has support there.
    """
    if not family:
        raise RegisterError("empty oracle family")
    widths = {(o.domain_width, o.codomain_width) for o in family}
    if len(widths) != 1:
        raise RegisterError("family members must share domain and codomain widths")
    _check_widths(state, family[0], in_reg, out_reg)
    mode_dim = state.layout.register_dim(mode_reg)
    if mode_dim < len(family):
        raise RegisterError(
            f"mode register {mode_reg!r} has {mode_dim} values but family has {len(family)}"
        )
    stray = _register_view(state.amplitudes, state.layout, mode_reg)[:, len(family) :]
    if stray.size and np.abs(stray).max() > 1e-14:
        raise RangeError("state has support on mode values outside the family")
    tables = np.zeros((mode_dim, family[0].domain_size), dtype=np.int64)
    tables[: len(family)] = [oracle.table for oracle in family]
    return _permute_register(state, (mode_reg, in_reg, out_reg), tables.ravel(), np.bitwise_xor)


# kind -> (register count, the GateSpec field of its payload or None, kernel(state, payload,
# *registers)). A kernel's name is looked up per call, so a replaced module attribute is used.
_KINDS = {
    "hadamard": (1, None, lambda state, _, reg: hadamard(state, reg)),
    "qft": (1, None, lambda state, _, reg: qft(state, reg)),
    "inverse-qft": (1, None, lambda state, _, reg: qft(state, reg, inverse=True)),
    "function-xor": (2, "oracle", lambda state, f, *regs: apply_function_xor(state, f, *regs)),
    "function-add": (2, "oracle", lambda state, f, *regs: apply_function_add(state, f, *regs)),
    "function-xor-controlled": (
        3, "family", lambda state, fs, *regs: apply_function_xor_controlled(state, fs, *regs)
    ),
    "phase-oracle": (1, "oracle", lambda state, f, reg: apply_phase_oracle(state, f, reg)),
    "diffusion": (1, None, lambda state, _, reg: grover_diffusion(state, reg)),
    "phase": (1, "phases", lambda state, phases, reg: apply_phases(state, reg, phases)),
}
GATE_KINDS = tuple(_KINDS)


@dataclass(frozen=True)
class GateSpec:
    """Declarative description of one gate application.

    registers holds the target names in the role order of the kind's kernel; no name
    repeats. The kind fixes their number and which of oracle, family and phases is set:
    a spec that does not match its kind is refused when it is built.
    """

    kind: str
    registers: tuple[str, ...]
    oracle: FunctionOracle | None = None
    family: tuple[FunctionOracle, ...] | None = None
    phases: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise RegisterError(f"unknown gate kind {self.kind!r}")
        count, payload, _ = _KINDS[self.kind]
        object.__setattr__(self, "registers", tuple(self.registers))
        if len(self.registers) != count or len(set(self.registers)) != count:
            raise RegisterError(
                f"a {self.kind} gate acts on {count} distinct registers, got {self.registers}"
            )
        given = [name for name in ("oracle", "family", "phases") if getattr(self, name) is not None]
        if given != ([payload] if payload else []):
            raise RegisterError(
                f"a {self.kind} gate takes {payload or 'no payload'}, got {given or 'none'}"
            )
        if payload in ("family", "phases"):
            object.__setattr__(self, payload, tuple(getattr(self, payload)))

    @property
    def uses_oracle(self) -> bool:
        """Each application of a gate that evaluates an oracle is one oracle use."""
        _, payload, _ = _KINDS[self.kind]
        return payload in ("oracle", "family")

    def apply(self, state: StateVector) -> StateVector:
        _, payload, kernel = _KINDS[self.kind]
        return kernel(state, payload and getattr(self, payload), *self.registers)
