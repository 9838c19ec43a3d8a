"""Unitary building blocks: register Hadamard, Fourier transform, reversible
function gates (additive and mod-2), diffusion, diagonal phases, and their
GateSpec wrapper.

All gates act on one or more named registers of a StateVector and return a
new StateVector; inputs are never mutated. Matrix-based gates apply the
dense per-register matrix directly, which is exact and fast at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import RangeError, RegisterError
from .hilbert import StateVector
from .oracles import FunctionOracle, oracle_from_json, oracle_to_json

GATE_KINDS = (
    "hadamard",
    "qft",
    "inverse-qft",
    "function-xor",
    "function-add",
    "function-xor-controlled",
    "phase-oracle",
    "diffusion",
    "phase",
)


@lru_cache(maxsize=None)
def hadamard_matrix(width: int) -> np.ndarray:
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
    out = np.array([[1.0]], dtype=np.complex128)
    for _ in range(width):
        out = np.kron(out, h1)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def fourier_matrix(width: int, inverse: bool = False) -> np.ndarray:
    dim = 1 << width
    sign = -1.0 if inverse else 1.0
    grid = np.outer(np.arange(dim), np.arange(dim))
    out = np.exp(sign * 2j * np.pi * grid / dim) / np.sqrt(dim)
    out.setflags(write=False)
    return out


def _apply_register_matrix(
    state: StateVector, register: str, matrix: np.ndarray
) -> StateVector:
    layout = state.layout
    d = layout.register_dim(register)
    left = layout.dim >> (layout.shift(register) + layout.width(register))
    right = layout.dim // (left * d)
    block = state.amplitudes.reshape(left, d, right)
    new = np.einsum("ij,ajb->aib", matrix, block).reshape(layout.dim)
    return StateVector(layout, new)


def hadamard(state: StateVector, register: str) -> StateVector:
    """Apply H to every qubit of one register; self-inverse.

    On a register holding x, the amplitude sent to z carries the sign
    (-1)^(popcount(x & z)), i.e. the mod-2 inner product of the binary words.
    """
    return _apply_register_matrix(state, register, hadamard_matrix(state.layout.width(register)))


def qft(state: StateVector, register: str, inverse: bool = False) -> StateVector:
    """Discrete Fourier transform on one register.

    The amplitude at z becomes (1/sqrt(N)) * sum_x exp(2*pi*i*x*z/N) * amp[x]
    over that register's dimension N (conjugated when inverse=True).
    """
    return _apply_register_matrix(
        state, register, fourier_matrix(state.layout.width(register), inverse)
    )


def grover_diffusion(state: StateVector, register: str) -> StateVector:
    """Inversion about the mean, 2|s><s| - I, on one register."""
    d = state.layout.register_dim(register)
    matrix = np.full((d, d), 2.0 / d, dtype=np.complex128) - np.eye(d)
    return _apply_register_matrix(state, register, matrix)


def apply_phases(state: StateVector, register: str, phases: Sequence[float]) -> StateVector:
    """Multiply each branch whose register holds j by e^(i*phases[j])."""
    layout = state.layout
    if len(phases) != layout.register_dim(register):
        raise RegisterError(
            f"register {register!r} needs {layout.register_dim(register)} phases, got {len(phases)}"
        )
    factors = np.exp(1j * np.asarray(phases, dtype=np.float64))
    return StateVector(layout, state.amplitudes * factors[layout.values(register)])


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


def _rewrite_register(state: StateVector, register: str, new_values: np.ndarray) -> StateVector:
    """Permute amplitudes by replacing one register's value at every index."""
    layout = state.layout
    shift = layout.shift(register)
    mask = (layout.register_dim(register) - 1) << shift
    idx = np.arange(layout.dim, dtype=np.int64)
    new_idx = (idx & ~mask) | (new_values.astype(np.int64) << shift)
    out = np.empty_like(state.amplitudes)
    out[new_idx] = state.amplitudes
    return StateVector(layout, out)


def apply_function_xor(
    state: StateVector, oracle: FunctionOracle, in_reg: str, out_reg: str
) -> StateVector:
    """|x>|y> -> |x>|y ^ f(x)>, extended linearly; self-inverse."""
    _check_widths(state, oracle, in_reg, out_reg)
    layout = state.layout
    fx = oracle.table_array[layout.values(in_reg)]
    return _rewrite_register(state, out_reg, layout.values(out_reg) ^ fx)


def apply_function_add(
    state: StateVector, oracle: FunctionOracle, in_reg: str, out_reg: str
) -> StateVector:
    """|x>|y> -> |x>|y + f(x) mod 2^w>; modular addition is a permutation."""
    _check_widths(state, oracle, in_reg, out_reg)
    layout = state.layout
    fx = oracle.table_array[layout.values(in_reg)]
    total = (layout.values(out_reg) + fx) & (layout.register_dim(out_reg) - 1)
    return _rewrite_register(state, out_reg, total)


def apply_phase_oracle(state: StateVector, oracle: FunctionOracle, in_reg: str) -> StateVector:
    """Multiply each |x> branch by (-1)^f(x); needs a 1-bit codomain."""
    if oracle.codomain_width != 1:
        raise RegisterError("phase oracle needs a 1-bit codomain")
    if state.layout.width(in_reg) != oracle.domain_width:
        raise RegisterError(
            f"register {in_reg!r} width != oracle domain width {oracle.domain_width}"
        )
    signs = 1.0 - 2.0 * oracle.table_array[state.layout.values(in_reg)]
    return StateVector(state.layout, state.amplitudes * signs)


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
    layout = state.layout
    mode_dim = layout.register_dim(mode_reg)
    if mode_dim < len(family):
        raise RegisterError(
            f"mode register {mode_reg!r} has {mode_dim} values but family has {len(family)}"
        )
    k_vals = layout.values(mode_reg)
    if mode_dim > len(family):
        stray = np.abs(state.amplitudes[k_vals >= len(family)])
        if stray.size and stray.max() > 1e-14:
            raise RangeError("state has support on mode values outside the family")
    tables = np.zeros((mode_dim, family[0].domain_size), dtype=np.int64)
    for k, oracle in enumerate(family):
        tables[k] = oracle.table_array
    fkx = tables[k_vals, layout.values(in_reg)]
    return _rewrite_register(state, out_reg, layout.values(out_reg) ^ fkx)


@dataclass(frozen=True)
class GateSpec:
    """Declarative description of one gate application.

    registers holds the target names in role order: (reg,) for hadamard,
    qft, inverse-qft, diffusion, phase-oracle and phase; (in, out) for the
    function gates; (mode, in, out) for the controlled variant. Every
    register listed is one the gate reads or writes.
    """

    kind: str
    registers: tuple[str, ...]
    oracle: FunctionOracle | None = None
    family: tuple[FunctionOracle, ...] | None = None
    phases: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise RegisterError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "registers", tuple(self.registers))
        for name in ("family", "phases"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def uses_oracle(self) -> bool:
        """Each application of a gate that evaluates an oracle is one oracle use."""
        return self.oracle is not None or self.family is not None

    def apply(self, state: StateVector) -> StateVector:
        if self.kind == "hadamard":
            return hadamard(state, self.registers[0])
        if self.kind == "qft":
            return qft(state, self.registers[0])
        if self.kind == "inverse-qft":
            return qft(state, self.registers[0], inverse=True)
        if self.kind == "diffusion":
            return grover_diffusion(state, self.registers[0])
        if self.kind == "phase":
            return apply_phases(state, self.registers[0], self.phases)
        if self.kind == "phase-oracle":
            return apply_phase_oracle(state, self.oracle, self.registers[0])
        if self.kind == "function-xor":
            return apply_function_xor(state, self.oracle, *self.registers)
        if self.kind == "function-add":
            return apply_function_add(state, self.oracle, *self.registers)
        return apply_function_xor_controlled(state, self.family, *self.registers)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "registers": list(self.registers)}
        if self.oracle is not None:
            out["oracle"] = oracle_to_json(self.oracle)
        if self.family is not None:
            out["family"] = [oracle_to_json(o) for o in self.family]
        if self.phases is not None:
            out["phases"] = list(self.phases)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "GateSpec":
        return cls(
            kind=data["kind"],
            registers=tuple(data["registers"]),
            oracle=oracle_from_json(data["oracle"]) if "oracle" in data else None,
            family=tuple(oracle_from_json(o) for o in data["family"])
            if "family" in data
            else None,
            phases=data.get("phases"),
        )
