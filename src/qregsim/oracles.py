"""Function tables used as oracles, plus the classical collision baseline.

The families are listed once, in _FAMILIES, each with its rule. Every
constructor validates its family's structure exhaustively over the table,
so a constructed oracle can be trusted downstream. Each family's rule is
written once and shared by its constructor and its check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from numbers import Integral
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import NoCollisionError, OracleConstructionError, RangeError
from .hilbert import _width_cap


@dataclass(frozen=True)
class FunctionOracle:
    """A finite function table with family metadata.

    The table maps every x in [0, 2^domain_width) to a value in [0, 2^codomain_width),
    held as a read-only int64 copy, which is exact: codomains are capped at 63 bits.
    """

    family: str
    domain_width: int
    codomain_width: int
    table: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("domain_width", "codomain_width"):
            width = _integer(getattr(self, name), name)
            if width < 0:
                raise OracleConstructionError(f"{name} {width} must be >= 0")
            object.__setattr__(self, name, width)
        _require_codomain(self.codomain_width)
        family = _family(self.family)
        for name in self.params:
            if name not in family.params:
                raise OracleConstructionError(f"{self.family} reads no parameter {name!r}")
        table = self.table
        if not isinstance(table, np.ndarray):  # as Python objects, so nothing rounds or wraps
            table = np.fromiter(table, object)
        if table.shape != (self.domain_size,):
            raise OracleConstructionError(f"table shape {table.shape} != ({self.domain_size},)")
        if table.dtype.kind not in "iu" and not (
            table.dtype == object and all(map(_is_integer, table))
        ):
            raise OracleConstructionError("table values must be integers")
        if int(table.min()) < 0 or int(table.max()) >= self.codomain_size:
            raise OracleConstructionError("table value outside codomain range")
        table = table.astype(np.int64)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        family.check(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionOracle):
            return NotImplemented
        return (self.family, self.domain_width, self.codomain_width, self.params) == (
            other.family, other.domain_width, other.codomain_width, other.params
        ) and np.array_equal(self.table, other.table)

    @property
    def domain_size(self) -> int:
        return 1 << self.domain_width

    @property
    def codomain_size(self) -> int:
        return 1 << self.codomain_width

    def value(self, x: int) -> int:
        if not 0 <= x < self.domain_size:
            raise RangeError(f"argument {x} outside domain [0, {self.domain_size})")
        return int(self.table[x])


def _value_width(size: int) -> int:
    """Qubits that hold every value in [0, size)."""
    return max(1, (size - 1).bit_length())


def _require_domain(n: int) -> None:
    """Refuse a table over a negative number of argument bits, or over more than the
    width cap, before any shift or allocation: no layout could hold its argument register."""
    if n < 0:
        raise OracleConstructionError(f"domain width {n} must be >= 0")
    cap = _width_cap()
    if n > cap:
        raise OracleConstructionError(f"domain width {n} exceeds cap {cap} qubits")


def _require_codomain(width: int) -> None:
    """Refuse a codomain that int64 cannot hold; the width cap keeps any wider one off a state."""
    if width > 63:
        raise OracleConstructionError(f"codomain width {width} exceeds 63 bits")


def _is_integer(value) -> bool:
    """The one integer rule: a Python or numpy integer, and not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _integer(value, name: str) -> int:
    """value as an int, refused by name unless it is an integer."""
    if not _is_integer(value):
        raise OracleConstructionError(f"{name}={value!r} is not an integer")
    return int(value)


def _param(params: Mapping, name: str) -> int:
    """The family parameter name, refused by name unless it is an integer."""
    return _integer(params.get(name), f"parameter {name}")


def _require_spacing(family: str, size: int, r: int) -> None:
    """The spacings a 2-to-1 family accepts over a domain of the given size."""
    if not 0 < r < size:
        raise OracleConstructionError(f"spacing r={r} outside (0, {size})")
    if not _FAMILIES[family].tiles(r):
        raise OracleConstructionError(
            f"pairs spaced {r} apart cannot tile a domain of size {size}"
        )


# entries per block of _check_two_to_one's pairing check
_CHECK_BLOCK = 1 << 16


def _check_two_to_one(oracle: FunctionOracle) -> None:
    r = _param(oracle.params, "r")
    size, table = oracle.domain_size, oracle.table
    _require_spacing(oracle.family, size, r)
    for start in range(0, size, _CHECK_BLOCK):  # in blocks, so no partner array is whole
        x = np.arange(start, min(start + _CHECK_BLOCK, size))
        broken = np.flatnonzero(table[x ^ r] != table[x])
        if broken.size:
            x = int(x[broken[0]])
            raise OracleConstructionError(
                f"f({x})={table[x]} but f({x ^ r})={table[x ^ r]}; pairing broken"
            )
    # the pairs hold, so a value on more than two entries is on more than one pair
    ordered = np.sort(table)
    shared = np.flatnonzero(ordered[2:] == ordered[:-2])
    if shared.size:
        raise OracleConstructionError(
            f"value {int(ordered[shared[0]])} shared by more than one pair"
        )


def _modexp_table(a: int, modulus: int, size: int) -> np.ndarray:
    """a^x mod modulus for x in range(size), each entry from the one before it.

    Python ints keep every product exact for any modulus, where int64 arithmetic
    would wrap; each entry is below the modulus. The first entry is pow(a, 0, modulus),
    which is 1 % modulus and refuses a zero modulus as pow does.
    """
    _require_codomain(_value_width(modulus))
    factors = repeat(a, size - 1)
    entries = accumulate(factors, lambda t, f: t * f % modulus, initial=pow(a, 0, modulus))
    return np.fromiter(entries, dtype=np.int64, count=size)


def _check_modexp(oracle: FunctionOracle) -> None:
    a, modulus = _param(oracle.params, "a"), _param(oracle.params, "L")
    if math.gcd(a, modulus) != 1:
        raise OracleConstructionError(f"gcd({a}, {modulus}) != 1")
    broken = np.flatnonzero(oracle.table != _modexp_table(a, modulus, oracle.domain_size))
    if broken.size:
        x = int(broken[0])
        raise OracleConstructionError(
            f"table[{x}]={oracle.table[x]} != {a}^{x} mod {modulus}"
        )


def _check_deutsch(oracle: FunctionOracle) -> None:
    k = _param(oracle.params, "k")
    if oracle.domain_width != 1 or oracle.codomain_width != 1:
        raise OracleConstructionError("deutsch_k functions map one bit to one bit")
    if not 0 <= k < 4:
        raise OracleConstructionError(f"mode k={k} outside 0..3")
    if oracle.table.tolist() != [(k >> 1) & 1, k & 1]:
        raise OracleConstructionError(f"table {oracle.table} does not match mode k={k:02b}")


def _check_kronecker(oracle: FunctionOracle) -> None:
    k = _param(oracle.params, "k")
    if not 0 <= k < oracle.domain_size:
        raise OracleConstructionError(f"mode k={k} outside 0..{oracle.domain_size - 1}")
    # the table's values are 0 or 1, so it is one-hot at k when k holds its one 1
    if oracle.codomain_width != 1 or oracle.table[k] != 1 or np.count_nonzero(oracle.table) != 1:
        raise OracleConstructionError(f"table is not the one-hot function at k={k}")


class _Family(NamedTuple):
    check: Callable[[FunctionOracle], None]
    params: tuple[str, ...]  # the parameters check and codomain_width read
    codomain_width: Callable[[int, Mapping], int]  # of a table over n bits with these params
    tiles: Callable[[int], bool] | None = None  # 2-to-1 only: do pairs r apart tile 2^n?


_FAMILIES = {
    # f(x) = f(x') iff x' = x ^ r, r != 0
    "two_to_one_xor": _Family(_check_two_to_one, ("r",), lambda n, params: n, lambda r: True),
    # partners lie r apart; they tile [0, 2^n) exactly when r is a power of two, and then
    # the partner of x is x ^ r, as in the xor family
    "two_to_one_arith": _Family(
        _check_two_to_one, ("r",), lambda n, params: n, lambda r: not r & (r - 1)
    ),
    # f(x) = a^x mod L with gcd(a, L) = 1
    "modexp": _Family(
        _check_modexp, ("a", "L"), lambda n, params: _value_width(_param(params, "L"))
    ),
    # the four functions B -> B, indexed k in {00, 01, 10, 11}
    "deutsch_k": _Family(_check_deutsch, ("k",), lambda n, params: 1),
    # f_k(x) = 1 iff x == k (one-hot)
    "kronecker_k": _Family(_check_kronecker, ("k",), lambda n, params: 1),
}
_TWO_TO_ONE = tuple(name for name, family in _FAMILIES.items() if family.tiles)


def _family(name: str) -> _Family:
    if name not in _FAMILIES:
        raise OracleConstructionError(f"unknown oracle family {name!r}")
    return _FAMILIES[name]


def _oracle(family: str, n: int, table, params: dict) -> FunctionOracle:
    """An oracle of the family over n argument bits; the family sets its codomain width."""
    return FunctionOracle(family, n, _family(family).codomain_width(n, params), table, params)


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
    if family not in _TWO_TO_ONE:
        raise OracleConstructionError(f"not a 2-to-1 family: {family!r}")
    _require_domain(n)
    size = 1 << n
    _require_spacing(family, size, r)
    x = np.arange(size)
    lows = x[x < x ^ r]
    del x
    if hasattr(codomain_assignment, "permutation"):  # a generator; numpy.random stays unloaded
        values = codomain_assignment.permutation(size)[: len(lows)]
    else:
        values = np.asarray(codomain_assignment)
    # the family check refuses a value given to two pairs
    if len(values) != len(lows):
        raise OracleConstructionError(f"need {len(lows)} codomain values, got {len(values)}")
    table = np.empty(size, dtype=values.dtype)
    table[lows] = table[lows ^ r] = values
    del lows, values  # the check runs with the table and its copy alone
    return _oracle(family, n, table, {"r": r})


def build_modexp(a: int, modulus: int, domain_width: int) -> FunctionOracle:
    """Oracle for f(x) = a^x mod modulus over a domain of 2^domain_width points."""
    if modulus < 1:
        raise OracleConstructionError(f"modulus {modulus} must be >= 1")
    if math.gcd(a, modulus) != 1:
        raise OracleConstructionError(f"gcd({a}, {modulus}) != 1")
    _require_domain(domain_width)
    table = _modexp_table(a, modulus, 1 << domain_width)
    return _oracle("modexp", domain_width, table, {"a": a, "L": modulus})


def deutsch_family() -> list[FunctionOracle]:
    """The four one-bit functions, indexed k = 00, 01, 10, 11.

    f_k(0) is the high bit of k and f_k(1) the low bit, so the balanced
    functions are exactly k = 01 and k = 10.
    """
    return [_oracle("deutsch_k", 1, ((k >> 1) & 1, k & 1), {"k": k}) for k in range(4)]


def _kronecker(n: int, k: int) -> FunctionOracle:
    """The member f_k of kronecker_family(n), built on its own."""
    if n < 1:
        raise OracleConstructionError("one-hot family needs n >= 1")
    _require_domain(n)
    # the one-hot mask as int8, so that the constructor's int64 copy is the only one
    return _oracle("kronecker_k", n, (np.arange(1 << n) == k).view(np.int8), {"k": k})


def kronecker_family(n: int) -> list[FunctionOracle]:
    """All 2^n one-hot functions f_k(x) = 1 iff x == k."""
    # for n < 1 the single k = 0 makes _kronecker raise
    return [_kronecker(n, k) for k in range(1 << max(n, 0))]


class CountingOracle:
    """Forwarding wrapper that counts table lookups."""

    def __init__(self, oracle: FunctionOracle):
        self.oracle = oracle
        self._count = 0

    def lookup(self, x: int) -> int:
        self._count += 1
        return self.oracle.value(x)

    @property
    def count(self) -> int:
        return self._count


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
        "table": oracle.table.tolist(),
    }


def oracle_from_json(data: Mapping) -> FunctionOracle:
    return _oracle(
        str(data["family"]),
        _integer(data["n"], "width n"),
        data["table"],
        dict(data["params"]),
    )
