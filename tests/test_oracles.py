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
        assert oracle.collision_xor_mask() == 6

    def test_arith_feasible_exactly_for_power_of_two_spacing(self):
        # pairs spaced r apart tile a power-of-two domain iff r is a power
        # of two: every residue chain mod r must have even length
        for r in range(1, 8):
            feasible = (r & (r - 1)) == 0
            if feasible:
                oracle = build_two_to_one(3, r, np.random.default_rng(r), "two_to_one_arith")
                assert oracle.collision_xor_mask() == r
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


class TestModexp:
    def test_table_values(self):
        oracle = build_modexp(7, 15, 4)
        assert oracle.table == tuple(pow(7, x, 15) for x in range(16))

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


class TestSmallFamilies:
    def test_one_bit_function_tables(self):
        family = deutsch_family()
        assert family[0b00].table == (0, 0)
        assert family[0b01].table == (0, 1)
        assert family[0b10].table == (1, 0)
        assert family[0b11].table == (1, 1)

    def test_balanced_flags(self):
        balanced = {o.params["k"] for o in deutsch_family() if o.is_balanced}
        assert balanced == {0b01, 0b10}

    def test_one_hot_tables(self):
        family = kronecker_family(2)
        assert family[2].table == (0, 0, 1, 0)
        assert kronecker_family(1)[0].table == (1, 0)
        assert all(sum(o.table) == 1 for o in family)


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
        counted.reset()
        assert counted.count == 0

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
