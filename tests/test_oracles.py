import math
import tracemalloc

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
        assert oracle.table.tolist() == [0, 1, 0, 1]

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
                assert tuple(oracle.table.tolist()) == table_from_pairing(
                    reference, np.random.default_rng(r)
                )

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

    def test_the_pairing_check_names_the_first_break_across_its_blocks(self):
        # 2^17 entries are two blocks of the check; a swap breaks pairs from 2^16 + 3 on
        table = build_two_to_one(17, 5, np.random.default_rng(1)).table.copy()
        x = (1 << 16) + 3
        table[[x, x + 100]] = table[[x + 100, x]]
        partner = x ^ 5
        match = rf"f\({x}\)={table[x]} but f\({partner}\)={table[partner]}; pairing broken"
        with pytest.raises(OracleConstructionError, match=match):
            FunctionOracle("two_to_one_xor", 17, 17, table, {"r": 5})

    def test_the_smallest_value_on_two_pairs_is_named(self):
        table = np.arange(1 << 12) // 2  # pairs 2i, 2i + 1, valued i
        table[[100, 101, 900, 901]] = 7
        table[[40, 41]] = 3000  # a larger value on two pairs as well
        table[[2, 3]] = 3000
        with pytest.raises(OracleConstructionError, match="value 7 shared by more than one pair"):
            FunctionOracle("two_to_one_xor", 12, 12, table, {"r": 1})

    def test_arith_rejects_a_spacing_that_xor_accepts(self):
        table = tuple(min(x, x ^ 3) for x in range(8))
        assert FunctionOracle("two_to_one_xor", 3, 3, table, {"r": 3}).table.tolist() == list(table)
        self.rejected(
            "two_to_one_arith", 3, table, {"r": 3},
            "pairs spaced 3 apart cannot tile a domain of size 8",
        )


class TestNegativeWidths:
    """A negative width is refused by name before any bit shift."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_two_to_one(-2, 1, np.random.default_rng(0)),
            lambda: build_modexp(2, 15, -1),
        ],
        ids=["two_to_one", "modexp"],
    )
    def test_a_negative_domain_width_is_refused_by_name(self, build):
        with pytest.raises(OracleConstructionError, match=r"domain width -\d must be >= 0"):
            build()

    @pytest.mark.parametrize("domain, codomain", [(-1, 1), (1, -1)])
    def test_a_negative_width_is_refused_by_the_constructor(self, domain, codomain):
        name, width = ("domain_width", domain) if domain < 0 else ("codomain_width", codomain)
        with pytest.raises(OracleConstructionError, match=f"{name} {width} must be >= 0"):
            FunctionOracle("modexp", domain, codomain, (1,), {"a": 2, "L": 15})
        with pytest.raises(OracleConstructionError, match=f"{name} {width} must be >= 0"):
            FunctionOracle("two_to_one_xor", domain, codomain, (0, 0), {"r": 1})


class TestModexp:
    def test_table_values(self):
        oracle = build_modexp(7, 15, 4)
        assert oracle.table.tolist() == [pow(7, x, 15) for x in range(16)]
        # the table is built by a recurrence; pow is its reference, also for
        # L = 1, a >= L and a negative a
        for a, modulus in ((3, 1), (20, 7), (-5, 21), (2, 2**61 - 1)):
            table = build_modexp(a, modulus, 7).table
            assert table.tolist() == [pow(a, x, modulus) for x in range(128)]

    def test_non_coprime_rejected(self):
        with pytest.raises(OracleConstructionError):
            build_modexp(6, 15, 4)

    @pytest.mark.parametrize("a, modulus", [(2, -5), (1, 0), (3, -1)])
    def test_modulus_below_one_rejected_by_name(self, a, modulus):
        # gcd(a, L) is 1 for each: the modulus check, not the table, refuses them
        with pytest.raises(OracleConstructionError, match=f"modulus {modulus} must be >= 1"):
            build_modexp(a, modulus, 3)

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
        assert oracle.table.tolist() == [pow(a, x, modulus) for x in range(64)]
        assert oracle_from_json(oracle_to_json(oracle)) == oracle
        wrapped = np.ones(64, dtype=np.int64)
        with np.errstate(over="ignore"):
            for x in range(1, 64):
                wrapped[x] = wrapped[x - 1] * np.int64(a) % modulus
        assert wrapped.tolist() != oracle.table.tolist()
        data = oracle_to_json(oracle) | {"table": wrapped.tolist()}
        with pytest.raises(OracleConstructionError, match="mod 1099511627791"):
            oracle_from_json(data)


class TestCodomainRange:
    """A table value lies in [0, 2^codomain_width), through the constructor and through
    oracle_from_json alike, wherever the stray value sits."""

    @pytest.mark.parametrize("position", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("stray", ["negative", "2^w"])
    @pytest.mark.parametrize(
        "a, modulus, n", [(7, 15, 4), (2**39 + 7, 2**40 + 15, 6)], ids=["4-bit", "41-bit"]
    )
    def test_value_outside_the_codomain_rejected(self, a, modulus, n, stray, position):
        oracle = build_modexp(a, modulus, n)
        table = list(oracle.table)
        table[position] = -1 if stray == "negative" else 1 << oracle.codomain_width
        match = "table value outside codomain range"
        with pytest.raises(OracleConstructionError, match=match):
            FunctionOracle("modexp", n, oracle.codomain_width, tuple(table), oracle.params)
        data = oracle_to_json(oracle) | {"table": table}
        with pytest.raises(OracleConstructionError, match=match):
            oracle_from_json(data)


class TestSmallFamilies:
    def test_one_bit_function_tables(self):
        family = deutsch_family()
        assert family[0b00].table.tolist() == [0, 0]
        assert family[0b01].table.tolist() == [0, 1]
        assert family[0b10].table.tolist() == [1, 0]
        assert family[0b11].table.tolist() == [1, 1]

    def test_balanced_flags(self):
        balanced = {o.params["k"] for o in deutsch_family() if is_balanced(o)}
        assert balanced == {0b01, 0b10}

    def test_one_hot_tables(self):
        family = kronecker_family(2)
        assert family[2].table.tolist() == [0, 0, 1, 0]
        assert kronecker_family(1)[0].table.tolist() == [1, 0]
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


def every_builder():
    return [
        build_two_to_one(3, 5, np.random.default_rng(7)),
        build_two_to_one(2, 2, (0, 1), family="two_to_one_arith"),
        build_two_to_one(2, 1, range(2)),
        build_modexp(7, 15, 5),
        *deutsch_family(),
        *kronecker_family(2),
        _kronecker(3, 6),
        oracle_from_json(oracle_to_json(build_modexp(2, 21, 4))),
    ]


class TestOneTableForm:
    """The table is one read-only int64 array, copied from what the constructor is given."""

    @staticmethod
    def assert_frozen_int64(oracle):
        table = oracle.table
        assert isinstance(table, np.ndarray) and table.ndim == 1 and table.dtype == np.int64
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0

    @pytest.mark.parametrize("oracle", every_builder(), ids=lambda o: o.family)
    def test_every_builder_holds_a_read_only_int64_array(self, oracle):
        self.assert_frozen_int64(oracle)

    @pytest.mark.parametrize("given", [tuple, list, np.array], ids=["tuple", "list", "array"])
    def test_the_constructor_copies_what_it_is_given(self, given):
        values = given([0, 1, 0, 1])
        oracle = FunctionOracle("two_to_one_xor", 2, 2, values, {"r": 2})
        self.assert_frozen_int64(oracle)
        if isinstance(values, np.ndarray):
            assert values.dtype == np.int64 and values.flags.writeable
            values[:] = 3
        assert oracle.table.tolist() == [0, 1, 0, 1]

    def test_readers_return_python_ints(self):
        oracle = build_two_to_one(3, 5, np.random.default_rng(1))
        assert type(oracle.value(3)) is int
        assert type(CountingOracle(oracle).lookup(3)) is int
        solution = classical_collision_solve(oracle, "birthday", np.random.default_rng(2))
        assert type(solution.f_value) is int

    def test_equality_compares_the_tables_entry_by_entry(self):
        oracle = build_modexp(7, 15, 4)
        assert oracle == build_modexp(7, 15, 4) and oracle.table is not build_modexp(7, 15, 4).table
        assert oracle != build_modexp(2, 15, 4)
        assert oracle != build_modexp(7, 15, 5)
        assert oracle != "modexp"

    @pytest.mark.parametrize("modulus", [2**63 + 5, 2**64 + 13], ids=["64-bit", "65-bit"])
    def test_a_codomain_over_63_bits_is_refused_by_name(self, modulus):
        width = (modulus - 1).bit_length()
        match = f"codomain width {width} exceeds 63 bits"
        with pytest.raises(OracleConstructionError, match=match):
            FunctionOracle("modexp", 2, width, (1, 2, 4, 8), {"a": 2, "L": modulus})
        with pytest.raises(OracleConstructionError, match=match):
            build_modexp(2, modulus, 2)
        data = {"family": "modexp", "n": 2, "params": {"a": 2, "L": modulus}, "table": [1, 2, 4, 8]}
        with pytest.raises(OracleConstructionError, match=match):
            oracle_from_json(data)

    def test_a_63_bit_codomain_builds_exactly(self):
        modulus = 2**63 - 25
        oracle = build_modexp(2, modulus, 3)
        assert oracle.codomain_width == 63
        assert oracle.table.tolist() == [pow(2, x, modulus) for x in range(8)]
        assert oracle_from_json(oracle_to_json(oracle)) == oracle

    def test_a_20_bit_oracle_holds_one_int64_table(self):
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            oracle = build_two_to_one(20, 5, rng)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert oracle.table.nbytes == 8 << 20
        assert held - before <= 1.1 * oracle.table.nbytes

    def test_a_20_bit_build_peaks_at_four_tables(self):
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            oracle = build_two_to_one(20, 5, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 4 * oracle.table.nbytes, peak

    def test_a_20_bit_one_hot_table_is_copied_to_int64_once(self):
        _kronecker(2, 1)  # warm up before measuring
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            oracle = _kronecker(20, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert oracle.table.dtype == np.int64 and np.flatnonzero(oracle.table).tolist() == [5]
        # the arange that makes the mask, the mask, and the table: not a second table
        assert peak - before <= 1.25 * oracle.table.nbytes, peak


class TestNonIntegersRefused:
    """A table value or a family parameter that is not an integer is refused, through the
    constructor and through oracle_from_json alike; numpy integers count as integers."""

    @staticmethod
    def refused(family, n, width, table, params, match):
        with pytest.raises(OracleConstructionError, match=match):
            FunctionOracle(family, n, width, table, params)
        data = {"family": family, "n": n, "params": params, "table": list(table)}
        with pytest.raises(OracleConstructionError, match=match):
            oracle_from_json(data)

    @pytest.mark.parametrize(
        "family, n, width, table, params",
        [
            ("two_to_one_xor", 1, 1, (0.9, 0.2), {"r": 1}),
            ("two_to_one_xor", 1, 1, (1.0, 1.0), {"r": 1}),
            ("modexp", 2, 4, (1, 2, 4, 8.7), {"a": 2, "L": 15}),
            ("kronecker_k", 1, 1, ("1", "0"), {"k": 0}),
        ],
        ids=["fractions", "whole-floats", "modexp", "strings"],
    )
    def test_a_non_integer_table_value_is_refused(self, family, n, width, table, params):
        self.refused(family, n, width, table, params, "table values must be integers")

    @pytest.mark.parametrize(
        "family, n, width, table, params, name",
        [
            ("two_to_one_xor", 2, 2, (0, 1, 0, 1), {"r": 2.5}, "r"),
            ("modexp", 2, 4, (1, 2, 4, 8), {"a": 2.9, "L": 15}, "a"),
            ("modexp", 2, 4, (1, 2, 4, 8), {"a": 2, "L": 15.5}, "L"),
            ("modexp", 2, 4, (1, 2, 4, 8), {"a": 2.9, "L": 15.5}, "[aL]"),
            ("deutsch_k", 1, 1, (0, 1), {"k": 1.0}, "k"),
            ("kronecker_k", 1, 1, (1, 0), {"k": "0"}, "k"),
            ("two_to_one_xor", 2, 2, (0, 1, 0, 1), {}, "r"),
        ],
        ids=["r", "a", "L", "a-and-L", "deutsch-k", "kronecker-k", "missing-r"],
    )
    def test_a_non_integer_parameter_is_refused_by_name(
        self, family, n, width, table, params, name
    ):
        self.refused(family, n, width, table, params, f"parameter {name}=.* is not an integer")

    @pytest.mark.parametrize(
        "family, params",
        [
            ("two_to_one_xor", {"r": True}),
            ("deutsch_k", {"k": True}),
            ("kronecker_k", {"k": False}),
        ],
        ids=["r", "deutsch-k", "kronecker-k"],
    )
    def test_a_boolean_parameter_is_refused_by_name(self, family, params):
        name = next(iter(params))
        match = f"parameter {name}=(True|False) is not an integer"
        self.refused(family, 1, 1, (1, 0), params, match)

    @pytest.mark.parametrize(
        "n", [2.5, 2.0, "2", True, None], ids=["2.5", "2.0", "'2'", "true", "null"]
    )
    def test_a_json_width_that_is_not_an_integer_is_refused_by_name(self, n):
        data = oracle_to_json(build_two_to_one(2, 2, (0, 1)))
        data["n"] = n
        with pytest.raises(OracleConstructionError, match=rf"width n={n!r} is not an integer"):
            oracle_from_json(data)

    @pytest.mark.parametrize(
        "domain, codomain, name",
        [(True, 1, "domain_width"), (1, True, "codomain_width"), (1.0, 1, "domain_width"),
         (1, 1.0, "codomain_width"), ("1", 1, "domain_width")],
        ids=["true-domain", "true-codomain", "float-domain", "float-codomain", "string-domain"],
    )
    def test_a_width_that_is_not_an_integer_is_refused_by_name(self, domain, codomain, name):
        width = domain if name == "domain_width" else codomain
        with pytest.raises(OracleConstructionError, match=rf"{name}={width!r} is not an integer"):
            FunctionOracle("deutsch_k", domain, codomain, (0, 1), {"k": 1})

    def test_a_numpy_integer_width_is_kept_as_an_int(self):
        oracle = FunctionOracle("deutsch_k", np.int64(1), np.uint8(1), (0, 1), {"k": 1})
        assert type(oracle.domain_width) is int and type(oracle.codomain_width) is int
        assert oracle_to_json(oracle) == oracle_to_json(deutsch_family()[1])

    @pytest.mark.parametrize(
        "table", [(True, False), [1, False], np.array([True, False])],
        ids=["bools", "one-bool", "bool-array"],
    )
    def test_a_boolean_table_value_is_refused(self, table):
        with pytest.raises(OracleConstructionError, match="table values must be integers"):
            FunctionOracle("deutsch_k", 1, 1, table, {"k": 2})
        data = {"family": "deutsch_k", "n": 1, "params": {"k": 2}, "table": list(table)}
        with pytest.raises(OracleConstructionError, match="table values must be integers"):
            oracle_from_json(data)

    def test_a_json_width_may_be_a_numpy_integer(self):
        oracle = build_two_to_one(2, 2, (0, 1))
        data = dict(oracle_to_json(oracle), n=np.int16(2))
        assert oracle_from_json(data) == oracle

    @pytest.mark.parametrize(
        "stray", [2**63, 2**64, -(2**63) - 1], ids=["2^63", "2^64", "below -2^63"]
    )
    def test_a_value_beyond_int64_is_outside_the_codomain(self, stray):
        table = (1, 2, 4, stray)
        self.refused("modexp", 2, 4, table, {"a": 2, "L": 15}, "table value outside codomain range")

    def test_a_uint64_value_beyond_int64_is_outside_the_codomain(self):
        table = np.array([1, 2, 4, 2**63], dtype=np.uint64)
        with pytest.raises(OracleConstructionError, match="table value outside codomain range"):
            FunctionOracle("modexp", 2, 4, table, {"a": 2, "L": 15})

    def test_numpy_integers_count_as_integers(self):
        params = {"a": np.int64(2), "L": np.uint8(15)}
        table = np.array([1, 2, 4, 8], dtype=np.uint8)
        oracle = FunctionOracle("modexp", 2, 4, table, params)
        assert oracle == build_modexp(2, 15, 2)
        assert oracle_to_json(oracle) == oracle_to_json(build_modexp(2, 15, 2))
        oracle = FunctionOracle("two_to_one_xor", 2, 2, [0, 1, 0, 1], {"r": np.int32(2)})
        assert oracle_to_json(oracle)["params"] == {"r": 2}


class TestUnreadParametersRefused:
    """Each family names the parameters it reads, and any other one is refused by name,
    through the constructor and through oracle_from_json alike."""

    @pytest.mark.parametrize(
        "family, n, width, table, params, stray",
        [
            ("kronecker_k", 1, 1, (1, 0), {"k": 0, "x": 2.5}, "x"),
            ("two_to_one_xor", 1, 1, (0, 0), {"r": 1, "k": 1}, "k"),
            ("two_to_one_arith", 1, 1, (0, 0), {"r": 1, "seed": 4}, "seed"),
            ("modexp", 2, 4, (1, 2, 4, 8), {"a": 2, "L": 15, "r": 1}, "r"),
            ("deutsch_k", 1, 1, (0, 1), {"n": 1, "k": 1}, "n"),
        ],
        ids=["kronecker-x", "xor-k", "arith-seed", "modexp-r", "deutsch-n"],
    )
    def test_a_parameter_no_check_reads_is_refused(self, family, n, width, table, params, stray):
        match = f"{family} reads no parameter '{stray}'"
        with pytest.raises(OracleConstructionError, match=match):
            FunctionOracle(family, n, width, table, params)
        data = {"family": family, "n": n, "params": params, "table": list(table)}
        with pytest.raises(OracleConstructionError, match=match):
            oracle_from_json(data)

    def test_every_built_oracle_carries_only_its_familys_parameters(self):
        oracles = [
            build_two_to_one(3, 2, (0, 1, 2, 3)),
            build_two_to_one(3, 4, (0, 1, 2, 3), family="two_to_one_arith"),
            build_modexp(7, 15, 3),
            *deutsch_family(),
            *kronecker_family(2),
        ]
        for oracle in oracles:
            assert oracle_from_json(oracle_to_json(oracle)) == oracle
