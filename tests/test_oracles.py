import math

import numpy as np
import pytest

from qregsim import (
    CountingOracle,
    FunctionOracle,
    NoCollisionError,
    OracleConstructionError,
    build_modexp,
    build_two_to_one,
    classical_collision_solve,
    deutsch_family,
    kronecker_family,
    oracle_from_json,
    oracle_to_json,
)
from qregsim.oracles import _kronecker


def collision_xor_mask(oracle):
    """The single mask m with partner(x) = x ^ m over every collision pair, or None
    if the table is not 2-to-1 or its pairs differ by more than one mask."""
    buckets = {}
    for x, v in enumerate(oracle.table):
        buckets.setdefault(v, []).append(x)
    pairs = [xs for xs in buckets.values() if len(xs) == 2]
    if not pairs or 2 * len(pairs) != oracle.domain_size:
        return None
    masks = {x1 ^ x2 for x1, x2 in pairs}
    return masks.pop() if len(masks) == 1 else None


def is_balanced(oracle):
    """For a 1-bit codomain: equally many 0 and 1 values."""
    assert oracle.codomain_width == 1
    return sum(oracle.table) * 2 == oracle.domain_size


class TestTwoToOneConstruction:
    def test_reference_table(self):
        oracle = build_two_to_one(2, 2, (0, 1), family="two_to_one_arith")
        assert oracle.table == (0, 1, 0, 1)

    def test_smallest_domain(self):
        oracle = build_two_to_one(1, 1, (0,))
        assert oracle.value(0) == oracle.value(1)

    def test_xor_pairing_exhaustive(self):
        oracle = build_two_to_one(3, 5, np.random.default_rng(0))
        for x in range(8):
            assert oracle.value(x) == oracle.value(x ^ 5)
            others = [y for y in range(8) if y not in (x, x ^ 5)]
            assert all(oracle.value(x) != oracle.value(y) for y in others)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_structure_validated_across_sizes(self, n):
        rng = np.random.default_rng(n)
        r = int(rng.integers(1, 1 << n))
        oracle = build_two_to_one(n, r, rng)
        partners = {}
        for x in range(1 << n):
            partner = x ^ r
            assert oracle.value(x) == oracle.value(partner)
            partners[x] = partner
        assert all(partners[partners[x]] == x for x in partners)

    def test_xor_mask_reported(self):
        oracle = build_two_to_one(3, 6, np.random.default_rng(1))
        assert collision_xor_mask(oracle) == 6

    def test_arith_feasible_exactly_for_power_of_two_spacing(self):
        # pairs spaced r apart tile a power-of-two domain iff r is a power
        # of two: every residue chain mod r must have even length
        for r in range(1, 8):
            feasible = (r & (r - 1)) == 0
            if feasible:
                oracle = build_two_to_one(3, r, np.random.default_rng(r), "two_to_one_arith")
                assert collision_xor_mask(oracle) == r
            else:
                with pytest.raises(OracleConstructionError):
                    build_two_to_one(3, r, np.random.default_rng(r), "two_to_one_arith")

    def test_duplicate_pair_values_rejected(self):
        with pytest.raises(OracleConstructionError):
            build_two_to_one(2, 2, (1, 1))

    def test_corrupted_table_rejected(self):
        with pytest.raises(OracleConstructionError):
            FunctionOracle("two_to_one_xor", 2, 2, (0, 1, 1, 0), {"r": 2})

    def test_spacing_out_of_range(self):
        with pytest.raises(OracleConstructionError):
            build_two_to_one(2, 4, (0, 1))


def chain_walk_pairing(n, r):
    """Perfect matching of [0, 2^n) into pairs spaced exactly r apart, or None.

    Walking each residue class mod r gives disjoint chains x, x+r, x+2r, ...;
    a perfect matching exists iff every chain has even length, and then
    matching each chain greedily is the unique matching on it.
    """
    size = 1 << n
    pairing = {}
    for start in range(min(r, size)):
        chain = list(range(start, size, r))
        if len(chain) % 2 != 0:
            return None
        for lo, hi in zip(chain[::2], chain[1::2]):
            pairing[lo] = hi
            pairing[hi] = lo
    return pairing


def table_from_pairing(pairing, rng):
    """The 2-to-1 table whose pairs, by smaller element, take rng's values."""
    pairs = sorted({(min(x, p), max(x, p)) for x, p in pairing.items()})
    values = rng.permutation(len(pairing))[: len(pairs)]
    table = [0] * len(pairing)
    for (x1, x2), v in zip(pairs, values):
        table[x1] = table[x2] = int(v)
    return tuple(table)


class TestOneTwoToOneRule:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_tables_match_the_chain_walk_for_every_spacing(self, n):
        size = 1 << n
        for r in range(1, size):
            pairing = chain_walk_pairing(n, r)
            for family in ("two_to_one_xor", "two_to_one_arith"):
                if pairing is None and family == "two_to_one_arith":
                    with pytest.raises(OracleConstructionError, match="cannot tile"):
                        build_two_to_one(n, r, np.random.default_rng(r), family)
                    continue
                reference = pairing or {x: x ^ r for x in range(size)}
                oracle = build_two_to_one(n, r, np.random.default_rng(r), family)
                assert oracle.table == table_from_pairing(reference, np.random.default_rng(r))

    @staticmethod
    def rejected(family, n, table, params, match):
        with pytest.raises(OracleConstructionError, match=match):
            FunctionOracle(family, n, n, table, params)
        data = {"family": family, "n": n, "params": params, "table": list(table)}
        with pytest.raises(OracleConstructionError, match=match):
            oracle_from_json(data)

    @pytest.mark.parametrize("family", ["two_to_one_xor", "two_to_one_arith"])
    def test_value_shared_by_two_consistent_pairs_rejected(self, family):
        self.rejected(family, 2, (0, 0, 0, 0), {"r": 2}, "shared by more than one pair")
        self.rejected(family, 3, (0, 1, 2, 0, 0, 1, 2, 0), {"r": 4}, "value 0 shared")

    @pytest.mark.parametrize("family", ["two_to_one_xor", "two_to_one_arith"])
    def test_broken_pair_rejected(self, family):
        self.rejected(family, 2, (0, 1, 0, 2), {"r": 2}, r"f\(1\)=1 but f\(3\)=2; pairing broken")

    @pytest.mark.parametrize("family", ["two_to_one_xor", "two_to_one_arith"])
    @pytest.mark.parametrize("r", [0, 4])
    def test_spacing_outside_the_domain_rejected(self, family, r):
        self.rejected(family, 2, (0, 1, 0, 1), {"r": r}, rf"spacing r={r} outside \(0, 4\)")

    def test_arith_rejects_a_spacing_that_xor_accepts(self):
        table = tuple(min(x, x ^ 3) for x in range(8))
        assert FunctionOracle("two_to_one_xor", 3, 3, table, {"r": 3}).table == table
        self.rejected(
            "two_to_one_arith", 3, table, {"r": 3},
            "pairs spaced 3 apart cannot tile a domain of size 8",
        )


class TestModexp:
    def test_table_values(self):
        oracle = build_modexp(7, 15, 4)
        assert oracle.table == tuple(pow(7, x, 15) for x in range(16))
        # the table is built by a recurrence; pow is its reference, also for
        # L = 1, a >= L and a negative a
        for a, modulus in ((3, 1), (20, 7), (-5, 21), (2, 2**61 - 1)):
            table = build_modexp(a, modulus, 7).table
            assert table == tuple(pow(a, x, modulus) for x in range(128))

    def test_non_coprime_rejected(self):
        with pytest.raises(OracleConstructionError):
            build_modexp(6, 15, 4)

    @pytest.mark.parametrize("modulus", range(3, 32))
    def test_repetition_period_is_multiplicative_order(self, modulus):
        for a in range(2, modulus):
            if math.gcd(a, modulus) != 1:
                continue
            order = 1
            while pow(a, order, modulus) != 1:
                order += 1
            width = max(3, (2 * modulus - 1).bit_length())
            oracle = build_modexp(a, modulus, width)
            table = oracle.table
            assert all(
                table[x + order] == table[x] for x in range(len(table) - order)
            )
            periods = [
                p
                for p in range(1, order + 1)
                if all(table[x + p] == table[x] for x in range(len(table) - p))
            ]
            assert periods[0] == order


    def test_wrong_entry_rejected(self):
        table = [pow(7, x, 15) for x in range(16)]
        table[5] ^= 1
        data = {"family": "modexp", "n": 4, "params": {"a": 7, "L": 15}, "table": table}
        match = r"table\[5\]=6 != 7\^5 mod 15"
        with pytest.raises(OracleConstructionError, match=match):
            FunctionOracle("modexp", 4, 4, tuple(table), {"a": 7, "L": 15})
        with pytest.raises(OracleConstructionError, match=match):
            oracle_from_json(data)

    def test_large_modulus_is_exact(self):
        # a * a^x overflows int64 here, so only exact integer arithmetic
        # builds this table; a check that shares a wrong builder accepts it
        a, modulus = 2**39 + 7, 2**40 + 15
        oracle = build_modexp(a, modulus, 6)
        assert oracle.codomain_width == 41
        assert oracle.table == tuple(pow(a, x, modulus) for x in range(64))
        assert oracle_from_json(oracle_to_json(oracle)) == oracle
        wrapped = np.ones(64, dtype=np.int64)
        with np.errstate(over="ignore"):
            for x in range(1, 64):
                wrapped[x] = wrapped[x - 1] * np.int64(a) % modulus
        assert tuple(wrapped.tolist()) != oracle.table
        data = oracle_to_json(oracle) | {"table": wrapped.tolist()}
        with pytest.raises(OracleConstructionError, match="mod 1099511627791"):
            oracle_from_json(data)


class TestSmallFamilies:
    def test_one_bit_function_tables(self):
        family = deutsch_family()
        assert family[0b00].table == (0, 0)
        assert family[0b01].table == (0, 1)
        assert family[0b10].table == (1, 0)
        assert family[0b11].table == (1, 1)

    def test_balanced_flags(self):
        balanced = {o.params["k"] for o in deutsch_family() if is_balanced(o)}
        assert balanced == {0b01, 0b10}

    def test_one_hot_tables(self):
        family = kronecker_family(2)
        assert family[2].table == (0, 0, 1, 0)
        assert kronecker_family(1)[0].table == (1, 0)
        assert all(sum(o.table) == 1 for o in family)

    @pytest.mark.parametrize("table", [(0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 0)])
    def test_wrong_one_hot_table_rejected(self, table):
        match = "not the one-hot function at k=2"
        with pytest.raises(OracleConstructionError, match=match):
            FunctionOracle("kronecker_k", 2, 1, table, {"k": 2})
        data = {"family": "kronecker_k", "n": 2, "params": {"k": 2}, "table": list(table)}
        with pytest.raises(OracleConstructionError, match=match):
            oracle_from_json(data)


class TestModeRange:
    """A deutsch_k mode lies in 0..3 and a kronecker_k mode in 0..2^n - 1, through the
    constructor and through oracle_from_json alike."""

    @pytest.mark.parametrize(
        "family, n, table, k",
        [
            ("kronecker_k", 2, (0, 0, 0, 0), 7),
            ("kronecker_k", 2, (0, 0, 0, 0), 4),
            ("kronecker_k", 2, (0, 0, 0, 0), -1),
            ("deutsch_k", 1, (1, 1), 7),
            ("deutsch_k", 1, (1, 1), -1),
            ("deutsch_k", 1, (0, 0), 4),
        ],
    )
    def test_mode_outside_its_range_rejected(self, family, n, table, k):
        with pytest.raises(OracleConstructionError, match=f"mode k={k} outside"):
            FunctionOracle(family, n, 1, table, {"k": k})
        data = {"family": family, "n": n, "params": {"k": k}, "table": list(table)}
        with pytest.raises(OracleConstructionError, match=f"mode k={k} outside"):
            oracle_from_json(data)

    @pytest.mark.parametrize("k", [-1, 4, 7])
    def test_one_hot_member_outside_the_family(self, k):
        with pytest.raises(OracleConstructionError, match=f"mode k={k} outside 0..3"):
            _kronecker(2, k)

    def test_modes_at_the_ends_of_the_range_construct(self):
        for oracle in (deutsch_family()[0], deutsch_family()[3], *kronecker_family(3)[::7]):
            assert oracle_from_json(oracle_to_json(oracle)) == oracle


class TestCollisionSearch:
    def test_exhaustive_on_reference_oracle(self):
        oracle = build_two_to_one(2, 2, (0, 1), family="two_to_one_arith")
        solution = classical_collision_solve(oracle)
        assert (solution.x1, solution.x2) == (0, 2)
        assert solution.f_value == 0
        assert solution.queries_used == 3
        assert solution.verify(oracle)

    def test_birthday_always_valid(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4, 6):
            oracle = build_two_to_one(n, int(rng.integers(1, 1 << n)), rng)
            solution = classical_collision_solve(oracle, strategy="birthday", rng=rng)
            assert solution.verify(oracle)
            assert oracle.value(solution.x1) == oracle.value(solution.x2)
            assert 2 <= solution.queries_used <= (1 << n)

    def test_injective_table_has_no_solution(self):
        oracle = build_modexp(2, 17, 2)  # table (1, 2, 4, 8)
        with pytest.raises(NoCollisionError):
            classical_collision_solve(oracle)

    def test_birthday_needs_rng(self):
        oracle = build_two_to_one(2, 2, (0, 1))
        with pytest.raises(ValueError):
            classical_collision_solve(oracle, strategy="birthday")


class TestQueryCounter:
    def test_counts_and_resets(self):
        counted = CountingOracle(build_modexp(7, 15, 4))
        for x in (0, 1, 2):
            counted.lookup(x)
        assert counted.count == 3

    def test_forwarding_is_exact(self):
        oracle = build_two_to_one(3, 3, np.random.default_rng(6))
        counted = CountingOracle(oracle)
        values = [counted.lookup(x) for x in range(8)]
        assert values == list(oracle.table)
        assert counted.count == 8


class TestSerialization:
    @pytest.mark.parametrize(
        "oracle",
        [
            build_two_to_one(3, 5, np.random.default_rng(7)),
            build_two_to_one(2, 2, (0, 1), family="two_to_one_arith"),
            build_modexp(7, 15, 8),
            deutsch_family()[2],
            kronecker_family(2)[2],
        ],
        ids=["xor", "arith", "modexp", "deutsch", "kronecker"],
    )
    def test_round_trip(self, oracle):
        data = oracle_to_json(oracle)
        assert set(data) == {"family", "n", "params", "table"}
        assert oracle_from_json(data) == oracle
