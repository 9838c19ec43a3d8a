"""Function tables used as oracles, plus the classical collision baseline.

Families:
  two_to_one_xor    f(x) = f(x') iff x' = x ^ r, r != 0
  two_to_one_arith  collision partners satisfy |x - x'| = r and tile the domain
  modexp            f(x) = a^x mod L with gcd(a, L) = 1
  deutsch_k         the four functions B -> B, indexed k in {00, 01, 10, 11}
  kronecker_k       f_k(x) = 1 iff x == k (one-hot)

Every constructor validates its family's structure exhaustively over the
table, so a constructed oracle can be trusted downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import NoCollisionError, OracleConstructionError, RangeError

FAMILIES = ("two_to_one_xor", "two_to_one_arith", "modexp", "deutsch_k", "kronecker_k")


@dataclass(frozen=True)
class FunctionOracle:
    """A finite function table with family metadata.

    The table maps every x in [0, 2^domain_width) to a value in
    [0, 2^codomain_width).
    """

    family: str
    domain_width: int
    codomain_width: int
    table: tuple[int, ...]
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(int(v) for v in self.table))
        if self.family not in FAMILIES:
            raise OracleConstructionError(f"unknown oracle family {self.family!r}")
        if len(self.table) != self.domain_size:
            raise OracleConstructionError(
                f"table length {len(self.table)} != domain size {self.domain_size}"
            )
        if any(not 0 <= v < self.codomain_size for v in self.table):
            raise OracleConstructionError("table value outside codomain range")
        _FAMILY_CHECKS[self.family](self)

    @property
    def domain_size(self) -> int:
        return 1 << self.domain_width

    @property
    def codomain_size(self) -> int:
        return 1 << self.codomain_width

    def value(self, x: int) -> int:
        if not 0 <= x < self.domain_size:
            raise RangeError(f"argument {x} outside domain [0, {self.domain_size})")
        return self.table[x]

    @property
    def table_array(self) -> np.ndarray:
        return np.asarray(self.table, dtype=np.int64)

    def collision_pairs(self) -> list[tuple[int, int]]:
        """All unordered collision pairs {x, x'} with f(x) = f(x'), x < x'."""
        buckets: dict[int, list[int]] = {}
        for x, v in enumerate(self.table):
            buckets.setdefault(v, []).append(x)
        return [tuple(xs) for xs in buckets.values() if len(xs) == 2]

    def collision_xor_mask(self) -> int | None:
        """The single mask m with partner(x) = x ^ m, or None if pairs differ."""
        pairs = self.collision_pairs()
        if not pairs or 2 * len(pairs) != self.domain_size:
            return None
        masks = {x1 ^ x2 for x1, x2 in pairs}
        return masks.pop() if len(masks) == 1 else None

    @property
    def is_balanced(self) -> bool:
        """For single-bit codomains: equally many 0 and 1 values."""
        if self.codomain_width != 1:
            raise ValueError("balanced flag defined for 1-bit codomain only")
        return sum(self.table) * 2 == self.domain_size


def _check_two_to_one(oracle: FunctionOracle, partner_of) -> None:
    seen_values: dict[int, int] = {}
    for x, v in enumerate(oracle.table):
        partner = partner_of(x)
        if partner == x or not 0 <= partner < oracle.domain_size:
            raise OracleConstructionError(f"x={x} has no valid collision partner")
        if oracle.table[partner] != v:
            raise OracleConstructionError(
                f"f({x})={v} but f({partner})={oracle.table[partner]}; pairing broken"
            )
        if v in seen_values and seen_values[v] not in (x, partner):
            raise OracleConstructionError(f"value {v} shared by more than one pair")
        seen_values[v] = min(x, partner)


def _check_xor_family(oracle: FunctionOracle) -> None:
    r = int(oracle.params.get("r", 0))
    if not 0 < r < oracle.domain_size:
        raise OracleConstructionError(f"xor spacing r={r} outside (0, {oracle.domain_size})")
    _check_two_to_one(oracle, lambda x: x ^ r)


def _check_arith_family(oracle: FunctionOracle) -> None:
    r = int(oracle.params.get("r", 0))
    if not 0 < r < oracle.domain_size:
        raise OracleConstructionError(f"spacing r={r} outside (0, {oracle.domain_size})")
    pairing = _arith_pairing(oracle.domain_width, r)
    _check_two_to_one(oracle, lambda x: pairing[x])


def _check_modexp(oracle: FunctionOracle) -> None:
    a, modulus = int(oracle.params["a"]), int(oracle.params["L"])
    if math.gcd(a, modulus) != 1:
        raise OracleConstructionError(f"gcd({a}, {modulus}) != 1")
    for x, v in enumerate(oracle.table):
        if v != pow(a, x, modulus):
            raise OracleConstructionError(f"table[{x}]={v} != {a}^{x} mod {modulus}")


def _check_deutsch(oracle: FunctionOracle) -> None:
    k = int(oracle.params["k"])
    if oracle.domain_width != 1 or oracle.codomain_width != 1:
        raise OracleConstructionError("deutsch_k functions map one bit to one bit")
    if oracle.table != ((k >> 1) & 1, k & 1):
        raise OracleConstructionError(f"table {oracle.table} does not match mode k={k:02b}")


def _check_kronecker(oracle: FunctionOracle) -> None:
    k = int(oracle.params["k"])
    expected = tuple(1 if x == k else 0 for x in range(oracle.domain_size))
    if oracle.codomain_width != 1 or oracle.table != expected:
        raise OracleConstructionError(f"table is not the one-hot function at k={k}")


_FAMILY_CHECKS = {
    "two_to_one_xor": _check_xor_family,
    "two_to_one_arith": _check_arith_family,
    "modexp": _check_modexp,
    "deutsch_k": _check_deutsch,
    "kronecker_k": _check_kronecker,
}


def _arith_pairing(n: int, r: int) -> dict[int, int]:
    """Perfect matching of [0, 2^n) into pairs spaced exactly r apart.

    Walking each residue class mod r gives disjoint chains x, x+r, x+2r, ...;
    a perfect matching exists iff every chain has even length (which forces r
    to be a power of two for a power-of-two domain). Chains are matched
    greedily, which is the unique matching on a chain.
    """
    size = 1 << n
    pairing: dict[int, int] = {}
    for start in range(min(r, size)):
        chain = list(range(start, size, r))
        if len(chain) % 2 != 0:
            raise OracleConstructionError(
                f"pairs spaced {r} apart cannot tile a domain of size {size}"
            )
        for lo, hi in zip(chain[::2], chain[1::2]):
            pairing[lo] = hi
            pairing[hi] = lo
    return pairing


def build_two_to_one(
    n: int,
    r: int,
    codomain_assignment: np.random.Generator | Sequence[int],
    family: str = "two_to_one_xor",
) -> FunctionOracle:
    """Construct a 2-to-1 oracle with collision spacing r.

    ``codomain_assignment`` fixes the value given to each collision pair,
    ordered by the pair's smaller element: either an explicit sequence of
    distinct values, or a random generator that draws them.
    """
    if family not in ("two_to_one_xor", "two_to_one_arith"):
        raise OracleConstructionError(f"not a 2-to-1 family: {family!r}")
    size = 1 << n
    if not 0 < r < size:
        raise OracleConstructionError(f"spacing r={r} outside (0, {size})")
    if family == "two_to_one_xor":
        pairs = sorted({(min(x, x ^ r), max(x, x ^ r)) for x in range(size)})
    else:
        pairing = _arith_pairing(n, r)
        pairs = sorted({(min(x, p), max(x, p)) for x, p in pairing.items()})
    if isinstance(codomain_assignment, np.random.Generator):
        values = codomain_assignment.permutation(size)[: len(pairs)]
    else:
        values = list(codomain_assignment)
    if len(values) != len(pairs) or len(set(map(int, values))) != len(pairs):
        raise OracleConstructionError(
            f"need {len(pairs)} distinct codomain values, got {list(map(int, values))}"
        )
    table = [0] * size
    for (x1, x2), v in zip(pairs, values):
        table[x1] = table[x2] = int(v)
    return FunctionOracle(family, n, n, tuple(table), {"r": r})


def build_modexp(a: int, modulus: int, domain_width: int) -> FunctionOracle:
    """Oracle for f(x) = a^x mod modulus over a domain of 2^domain_width points."""
    if math.gcd(a, modulus) != 1:
        raise OracleConstructionError(f"gcd({a}, {modulus}) != 1")
    codomain_width = max(1, (modulus - 1).bit_length())
    table = tuple(pow(a, x, modulus) for x in range(1 << domain_width))
    return FunctionOracle(
        "modexp", domain_width, codomain_width, table, {"a": a, "L": modulus}
    )


def deutsch_family() -> list[FunctionOracle]:
    """The four one-bit functions, indexed k = 00, 01, 10, 11.

    f_k(0) is the high bit of k and f_k(1) the low bit, so the balanced
    functions are exactly k = 01 and k = 10.
    """
    return [
        FunctionOracle("deutsch_k", 1, 1, ((k >> 1) & 1, k & 1), {"k": k})
        for k in range(4)
    ]


def kronecker_family(n: int) -> list[FunctionOracle]:
    """All 2^n one-hot functions f_k(x) = 1 iff x == k."""
    if n < 1:
        raise OracleConstructionError("one-hot family needs n >= 1")
    size = 1 << n
    return [
        FunctionOracle(
            "kronecker_k",
            n,
            1,
            tuple(1 if x == k else 0 for x in range(size)),
            {"k": k},
        )
        for k in range(size)
    ]


class CountingOracle:
    """Forwarding wrapper that counts table lookups; count is resettable."""

    def __init__(self, oracle: FunctionOracle):
        self.oracle = oracle
        self._count = 0

    def lookup(self, x: int) -> int:
        self._count += 1
        return self.oracle.value(x)

    @property
    def count(self) -> int:
        return self._count

    def reset(self) -> None:
        self._count = 0


@dataclass(frozen=True)
class CollisionSolution:
    """A verified pair x1 != x2 with f(x1) = f(x2), plus the lookup cost."""

    x1: int
    x2: int
    f_value: int
    queries_used: int

    def verify(self, oracle: FunctionOracle) -> bool:
        return (
            self.x1 != self.x2
            and oracle.value(self.x1) == self.f_value
            and oracle.value(self.x2) == self.f_value
        )


def _probe_order(
    size: int, strategy: str, rng: np.random.Generator | None
) -> Iterator[int]:
    if strategy == "exhaustive":
        return iter(range(size))
    if strategy == "birthday":
        if rng is None:
            raise ValueError("birthday strategy needs an rng")
        return iter(rng.permutation(size))
    raise ValueError(f"unknown strategy {strategy!r}")


def classical_collision_solve(
    oracle: FunctionOracle,
    strategy: str = "exhaustive",
    rng: np.random.Generator | None = None,
) -> CollisionSolution:
    """Find a collision by querying the table, counting every lookup.

    This is the classical baseline against which the quantum runs are
    compared: it can only evaluate f forward, never invert it.
    """
    counted = CountingOracle(oracle)
    seen: dict[int, int] = {}
    for x in _probe_order(oracle.domain_size, strategy, rng):
        v = counted.lookup(int(x))
        if v in seen:
            solution = CollisionSolution(seen[v], int(x), v, counted.count)
            assert solution.verify(oracle)
            return solution
        seen[v] = int(x)
    raise NoCollisionError(f"table of {oracle.family} oracle is injective")


def oracle_to_json(oracle: FunctionOracle) -> dict:
    """Serialization consumed by the CLI and the golden tests."""
    return {
        "family": oracle.family,
        "n": oracle.domain_width,
        "params": {k: int(v) for k, v in oracle.params.items()},
        "table": list(oracle.table),
    }


def oracle_from_json(data: Mapping) -> FunctionOracle:
    if data["family"] in ("two_to_one_xor", "two_to_one_arith"):
        codomain_width = int(data["n"])
    elif data["family"] == "modexp":
        codomain_width = max(1, (int(data["params"]["L"]) - 1).bit_length())
    else:
        codomain_width = 1
    return FunctionOracle(
        str(data["family"]),
        int(data["n"]),
        codomain_width,
        tuple(int(v) for v in data["table"]),
        dict(data["params"]),
    )
