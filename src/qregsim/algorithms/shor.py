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
from ..gates import GateSpec
from ..hilbert import DEFAULT_WIDTH_CAP, RegisterLayout, make_basis_state
from ..measurement import MeasurementPoint, StagedCircuit
from ..oracles import build_modexp
from .trace import AlgorithmTrace, execute


@dataclass(frozen=True)
class ShorResult:
    """Measured transform peak, its convergents, and the validated period."""

    measured_z: int
    convergents: tuple[Fraction, ...]
    recovered_period: int | None


def choose_argument_width(modulus: int, width_cap: int = DEFAULT_WIDTH_CAP) -> tuple[int, str]:
    """Pick the argument-register width: 2^w >= L^2 when the cap allows,
    falling back to 2^w >= 2L (recorded in run metadata)."""
    value_width = max(1, (modulus - 1).bit_length())
    preferred = max(1, (modulus * modulus - 1).bit_length())
    if preferred + value_width <= width_cap:
        return preferred, "L_squared"
    fallback = max(1, (2 * modulus - 1).bit_length())
    if fallback + value_width <= width_cap:
        return fallback, "2L"
    raise RegisterError(
        f"modulus {modulus} needs more than {width_cap} qubits even at reduced width"
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
    width_cap: int = DEFAULT_WIDTH_CAP,
) -> tuple[AlgorithmTrace, ShorResult]:
    """One execution of shor_staged_circuit; requires gcd(a, modulus) = 1."""
    circuit = shor_staged_circuit(
        a, modulus, a_width, width_cap, measure_v=measure_v, force_v_outcome=force_v_outcome
    )
    trace = execute(circuit, rng)
    z = trace.measurements[-1].outcome
    convs, period = extract_period(z, circuit.initial.layout.register_dim("a"), a, modulus)
    return trace, ShorResult(z, convs, period)


def shor_staged_circuit(
    a: int,
    modulus: int,
    a_width: int | None = None,
    width_cap: int = DEFAULT_WIDTH_CAP,
    measure_v: bool = True,
    force_v_outcome: int | None = None,
) -> StagedCircuit:
    """The run: Hadamard on a (t1), a^x mod L into v (t2), the optional
    measurement of v (t3), the Fourier transform on a (t4), measurement of
    a (t5). The value-register measurement is deferrable from t2 to t4."""
    if math.gcd(a, modulus) != 1:
        raise PreconditionError(f"gcd({a}, {modulus}) != 1")
    if a_width is None:
        a_width, rule = choose_argument_width(modulus, width_cap)
    else:
        rule = "explicit"
    value_width = max(1, (modulus - 1).bit_length())
    layout = RegisterLayout((("a", a_width), ("v", value_width)), width_cap=width_cap)
    oracle = build_modexp(a, modulus, a_width)
    steps = [
        ("t1", GateSpec("hadamard", ("a",))),
        ("t2", GateSpec("function-add", ("a", "v"), oracle=oracle)),
    ]
    if measure_v:
        steps.append(("t3", MeasurementPoint("v", force_v_outcome)))
    steps += [("t4", GateSpec("qft", ("a",))), ("t5", MeasurementPoint("a"))]
    return StagedCircuit(
        initial=make_basis_state(layout, {"a": 0, "v": 0}),
        steps=steps,
        deferred_register="v",
        final_registers=("a",),
        metadata={
            "algorithm": "shor_period",
            "a": a,
            "L": modulus,
            "a_width": a_width,
            "v_width": value_width,
            "register_rule": rule,
        },
    )
