"""Period finding for f(x) = a^x mod L at desk scale.

The circuit mirrors the collision algorithm with the second Hadamard
replaced by the Fourier transform: measuring the value register leaves the
argument register on an arithmetic progression of step r (the period), and
the transform turns that comb into peaks near multiples of N/r. The period
is then pulled out of the measured peak classically, via the continued
fraction expansion of z/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..errors import PreconditionError, RegisterError
from ..hilbert import RegisterLayout, _width_cap
from ..measurement import StagedCircuit
from ..oracles import _value_width, build_modexp
from .simon import _query_circuit
from .trace import AlgorithmTrace, execute


@dataclass(frozen=True)
class ShorResult:
    """Measured transform peak, its convergents, and the validated period."""

    measured_z: int
    convergents: tuple[Fraction, ...]
    recovered_period: int | None


def _require_modulus(modulus: int) -> None:
    if modulus < 1:
        raise PreconditionError(f"modulus {modulus} must be >= 1")


def choose_argument_width(modulus: int) -> tuple[int, str]:
    """Pick the argument-register width: 2^w >= L^2 when the width cap allows,
    falling back to 2^w >= 2L (recorded in run metadata). The modulus must be >= 1."""
    _require_modulus(modulus)
    value_width = _value_width(modulus)
    cap = _width_cap()
    preferred = _value_width(modulus * modulus)
    if preferred + value_width <= cap:
        return preferred, "L_squared"
    fallback = _value_width(2 * modulus)
    if fallback + value_width <= cap:
        return fallback, "2L"
    raise RegisterError(
        f"modulus {modulus} needs more than the cap of {cap} qubits even at reduced width"
    )


def convergents_of(numerator: int, denominator: int) -> tuple[Fraction, ...]:
    """Continued-fraction convergents of numerator/denominator, in order."""
    terms = []
    a, b = numerator, denominator
    while b:
        terms.append(a // b)
        a, b = b, a % b
    convs = []
    h_prev, h_prev2, k_prev, k_prev2 = 1, 0, 0, 1
    for t in terms:
        h = t * h_prev + h_prev2
        k = t * k_prev + k_prev2
        convs.append(Fraction(h, k))
        h_prev, h_prev2, k_prev, k_prev2 = h, h_prev, k, k_prev
    return tuple(convs)


def extract_period(
    z: int, dim: int, a: int, modulus: int
) -> tuple[tuple[Fraction, ...], int | None]:
    """Candidate periods from the convergents of z/dim, validated classically.

    Each convergent denominator q <= modulus is tried along with 2q (the
    measured peak often reduces away an even factor); a candidate counts
    only if a^candidate = 1 mod modulus. The smallest valid candidate wins.
    """
    convs = convergents_of(z, dim)
    valid = []
    for frac in convs:
        q = frac.denominator
        if q > modulus:
            continue
        for candidate in (q, 2 * q):
            if candidate <= modulus and pow(a, candidate, modulus) == 1:
                valid.append(candidate)
    return convs, (min(valid) if valid else None)


def run_shor_period(
    a: int,
    modulus: int,
    rng: np.random.Generator | None = None,
    a_width: int | None = None,
    measure_v: bool = True,
    force_v_outcome: int | None = None,
) -> tuple[AlgorithmTrace, ShorResult]:
    """One execution of shor_staged_circuit; requires gcd(a, modulus) = 1."""
    circuit = shor_staged_circuit(
        a, modulus, a_width, measure_v=measure_v, force_v_outcome=force_v_outcome
    )
    trace = execute(circuit, rng)
    return trace, _period_result(circuit, trace)


def _period_result(circuit: StagedCircuit, trace: AlgorithmTrace) -> ShorResult:
    """The peak measured by one execution of the circuit, its convergents and the
    period they give."""
    z = trace.measurements[-1].outcome
    a, modulus = circuit.metadata["a"], circuit.metadata["L"]
    convs, period = extract_period(z, circuit.initial.layout.register_dim("a"), a, modulus)
    return ShorResult(z, convs, period)


def shor_staged_circuit(
    a: int,
    modulus: int,
    a_width: int | None = None,
    measure_v: bool = True,
    force_v_outcome: int | None = None,
) -> StagedCircuit:
    """simon._query_circuit with a^x mod L as the oracle and the Fourier transform
    as the finishing gate."""
    _require_modulus(modulus)
    if math.gcd(a, modulus) != 1:
        raise PreconditionError(f"gcd({a}, {modulus}) != 1")
    if a_width is None:
        a_width, rule = choose_argument_width(modulus)
    else:
        rule = "explicit"
    value_width = _value_width(modulus)
    # the layout refuses an over-wide a_width before any table is built
    layout = RegisterLayout((("a", a_width), ("v", value_width)))
    metadata = {
        "algorithm": "shor_period",
        "a": a,
        "L": modulus,
        "a_width": a_width,
        "v_width": value_width,
        "register_rule": rule,
    }
    oracle = build_modexp(a, modulus, a_width)
    return _query_circuit(layout, oracle, "qft", measure_v, force_v_outcome, metadata)
