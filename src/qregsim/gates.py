"""Unitary building blocks: register Hadamard, Fourier transform, reversible
function gates (additive and mod-2), diffusion, diagonal phases, and their
GateSpec wrapper.

All gates act on one or more named registers of a StateVector and return a
new StateVector; inputs are never mutated. Register gates work on a (left, d, right)
view of the amplitudes, never a d x d matrix; function gates share one permutation kernel,
which finds the nonzero amplitudes block by block and scatters only those into a zeroed
output, so its cost follows the state's support and it builds no index table.

The Hadamard, Fourier and diffusion kernels are linear along the register's axis, so an
all-zero (left, right) fiber stays exactly zero. Each is one block transform (_butterflies,
_fourier and _inverse_fourier, _inversion_about_mean), applied in one of two ways:

- _on_live_box, on a dense state, transforms the smallest box of left rows and right
  columns that holds every nonzero amplitude and writes it into a zeroed output; when the
  box is the whole state, the transform's output is the new state.
- _on_support, on a state held as its support (as the outcome tree in measurement holds
  every state), reads the box off the support's indices, scatters the values into a
  zeroed box and returns the transformed box's nonzeros as a support. No dense array of
  the whole state is built.

hadamard, qft and grover_diffusion take a state in either form and return that form
(_on_box): a support bigger than the dense array is made dense for _on_live_box. A state
after a measurement, or a basis state, has a box of one fiber. Every kernel builds its
output array fresh and the StateVector adopts it without a copy.

The function and phase gates take either form too, and on a support never build a dense
array: a permutation moves each entry's index by the rule the dense kernel uses (_moved)
and sorts only if the moved indices are out of order; a phase multiplies each value by the
factor of its register value (_phased). So every kind takes either form, as GateSpec.apply does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import RangeError, RegisterError
from .hilbert import (
    RegisterLayout,
    StateVector,
    _adopt,
    _live_index,
    _nonzero,
    _shared,
    _support,
    _Support,
)
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
    if block.shape == view.shape:
        # the box is the whole state: no zeros to add, and no second array to fill
        return _adopt(state.layout, block.reshape(-1))
    # allocated after the transform, so its temporaries and this array are never alive together
    out = np.zeros(view.shape, dtype=np.complex128)
    out[box] = block
    return _adopt(state.layout, out.reshape(-1))


def _on_support(support: _Support, register: str, transform) -> _Support:
    """_on_live_box for the state whose support this is, read from the support alone.

    The box's rows and columns are the span of the support's left and right indices. The
    support's values are scattered into a zeroed box, which matches the dense state's box
    but for the sign of its zeros, and transform maps it as it maps the dense box; the
    result is the mapped box's exact nonzeros, at ascending flat indices, unlabelled.
    """
    layout, index = support.layout, support.index
    if not index.size:
        return support._replace(label=None)
    shift, d = layout.shift(register), layout.register_dim(register)
    right = 1 << shift
    # the support is ascending, so its left rows are too
    rows = index >> (shift + layout.width(register))
    columns = index & (right - 1)
    top, first = int(rows[0]), int(columns.min())
    width = int(columns.max()) - first + 1
    block = np.zeros((int(rows[-1]) - top + 1, d, width), dtype=np.complex128)
    block[rows - top, (index >> shift) & (d - 1), columns - first] = support.values
    block = transform(block).reshape(-1)
    live = _live_index(block)
    # live = (row * d + value) * width + column within the box
    fiber, column = np.divmod(live, width)
    fiber += top * d
    fiber *= right
    fiber += column
    fiber += first
    return _shared(None, layout, fiber, block[live])


def _on_box(
    state: StateVector | _Support, register: str, transform
) -> StateVector | _Support:
    """Apply a box kind's block transform to a state in either form, returning that form.

    A support is transformed on its box (_on_support) while it is smaller than the dense
    array, 24 bytes an entry against 16 an amplitude; a bigger one is made dense for
    _on_live_box, and the support of the result is taken.
    """
    if not isinstance(state, _Support):
        return _on_live_box(state, register, transform)
    if 3 * state.index.size <= 2 * state.layout.dim:
        return _on_support(state, register, transform)
    return _support(None, _on_live_box(state.state(), register, transform))


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
        # freed before the next level's difference is allocated: one half-block at a time
        del diff
        half <<= 1
    block *= 1.0 / np.sqrt(d)
    return block


# numpy's ifft carries the exp(+2*pi*i*x*z/N) sign, fft the conjugate.
def _fourier(block: np.ndarray) -> np.ndarray:
    """The unitary DFT along axis 1 of a (rows, d, columns) block, into a new array."""
    return np.fft.ifft(block, axis=1, norm="ortho")


def _inverse_fourier(block: np.ndarray) -> np.ndarray:
    """The inverse of _fourier, into a new array."""
    return np.fft.fft(block, axis=1, norm="ortho")


def _inversion_about_mean(block: np.ndarray) -> np.ndarray:
    """2|s><s| - I along axis 1 of a (rows, d, columns) block, into a new array."""
    return 2.0 * block.mean(axis=1, keepdims=True) - block


def hadamard(state: StateVector, register: str) -> StateVector:
    """Apply H to every qubit of one register; self-inverse.

    On a register holding x, the amplitude sent to z carries the sign
    (-1)^(popcount(x & z)), i.e. the mod-2 inner product of the binary words.
    Like qft and grover_diffusion, it also takes a state given as its support
    and then returns a support (see _on_box).
    """
    return _on_box(state, register, _butterflies)


def qft(state: StateVector, register: str, inverse: bool = False) -> StateVector:
    """Discrete Fourier transform on one register.

    The amplitude at z becomes (1/sqrt(N)) * sum_x exp(2*pi*i*x*z/N) * amp[x]
    over that register's dimension N (conjugated when inverse=True).
    """
    return _on_box(state, register, _inverse_fourier if inverse else _fourier)


def grover_diffusion(state: StateVector, register: str) -> StateVector:
    """Inversion about the mean, 2|s><s| - I, on one register."""
    return _on_box(state, register, _inversion_about_mean)


def _phased(state: StateVector | _Support, register: str, factors: np.ndarray):
    """The state, in the form it was given, with each amplitude whose register holds j
    multiplied by factors[j]. A nonzero times a unit factor is never exactly zero, so the
    product of a support's values is the support of the product."""
    layout = state.layout
    if isinstance(state, _Support):
        value = (state.index >> layout.shift(register)) & (layout.register_dim(register) - 1)
        return _shared(None, layout, state.index, state.values * factors[value])
    view = _register_view(state.amplitudes, layout, register)
    return _adopt(layout, (view * factors[:, None]).reshape(-1))


def apply_phases(state: StateVector, register: str, phases: Sequence[float]) -> StateVector:
    """Multiply each branch whose register holds j by e^(i*phases[j]); every phase must
    be finite."""
    layout = state.layout
    if len(phases) != layout.register_dim(register):
        raise RegisterError(
            f"register {register!r} needs {layout.register_dim(register)} phases, got {len(phases)}"
        )
    phases = np.asarray(phases, dtype=np.float64)
    if not np.isfinite(phases).all():
        raise RangeError(f"phases must be finite, got {phases.tolist()}")
    return _phased(state, register, np.exp(1j * phases))


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


def _moved(layout: RegisterLayout, registers: tuple[str, ...], fc, combine, index) -> np.ndarray:
    """Where _permute_register sends the flat indices index, as a new array."""
    *controls, target = registers
    shift, d = layout.shift(target), layout.register_dim(target)
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
    return moved


def _permute_register(
    state: StateVector | _Support, registers: tuple[str, ...], fc: np.ndarray, combine: np.ufunc
) -> StateVector | _Support:
    """|c>|y> -> |c>|combine(fc[c], y) mod d> for target y = registers[-1] and c the joint
    value of the others (first most significant); combine(fc[c], .) must permute range(d).
    The state may be dense or a support, and is returned in that form.

    Only live amplitudes move: block by block, the flat index i of each nonzero amplitude
    is decoded into c and y, and the amplitude is scattered to i with y replaced. A
    permutation sends zeros to zeros, so the rest of the output stays zero. A support's
    indices move the same way; its values are reused as they are when the moved indices
    are still ascending (an oracle writing into a last register that holds 0), and
    sorted with them otherwise."""
    if len(set(registers)) != len(registers):
        raise RegisterError(f"a gate's registers must be distinct, got {tuple(registers)}")
    layout = state.layout
    if isinstance(state, _Support):
        index, values = _moved(layout, registers, fc, combine, state.index), state.values
        if not (index[1:] > index[:-1]).all():
            # the moved indices are distinct, so every sort gives one order: the stable one is
            # what np.unique in _joint already runs, where a first quicksort pages in more code
            order = index.argsort(kind="stable")
            index, values = index[order], values[order]
        return _shared(None, layout, index, values)
    amps = state.amplitudes
    out = np.zeros(layout.dim, dtype=np.complex128)
    for start in range(0, layout.dim, _PERMUTE_BLOCK):
        block = amps[start : start + _PERMUTE_BLOCK]
        index = _live_index(block)
        if not index.size:
            continue
        values = block[index]
        index += start
        out[_moved(layout, registers, fc, combine, index)] = values
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
    return _phased(state, in_reg, 1.0 - 2.0 * oracle.table_array)


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
    if isinstance(state, _Support):
        mode = (state.index >> state.layout.shift(mode_reg)) & (mode_dim - 1)
        stray = state.values[mode >= len(family)]
    else:
        stray = _register_view(state.amplitudes, state.layout, mode_reg)[:, len(family) :]
    # written so that a NaN, which fails every comparison, counts as stray
    if stray.size and not np.abs(stray).max() <= 1e-14:
        raise RangeError("state has support on mode values outside the family")
    tables = np.zeros((mode_dim, family[0].domain_size), dtype=np.int64)
    tables[: len(family)] = [oracle.table for oracle in family]
    return _permute_register(state, (mode_reg, in_reg, out_reg), tables.ravel(), np.bitwise_xor)


# kind -> (register count, the GateSpec field of its payload or None,
# kernel(state, payload, *registers)); every kernel takes a state in either form.
# A kernel's name is looked up per call, so a replaced module attribute is used.
_KINDS = {
    "hadamard": (1, None, lambda state, _, reg: hadamard(state, reg)),
    "qft": (1, None, lambda state, _, reg: qft(state, reg)),
    "inverse-qft": (1, None, lambda state, _, reg: qft(state, reg, inverse=True)),
    "function-xor": (2, "oracle", lambda state, f, *r: apply_function_xor(state, f, *r)),
    "function-add": (2, "oracle", lambda state, f, *r: apply_function_add(state, f, *r)),
    "function-xor-controlled": (
        3, "family", lambda state, fs, *r: apply_function_xor_controlled(state, fs, *r)
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

    def apply(self, state: StateVector | _Support) -> StateVector | _Support:
        """The state after this gate, in the form it was given: a StateVector, or a
        _Support as the outcome tree holds its states."""
        _, payload, kernel = _KINDS[self.kind]
        return kernel(state, payload and getattr(self, payload), *self.registers)
