import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qregsim import (
    GateSpec,
    PreconditionError,
    RangeError,
    RegisterLayout,
    StagedCircuit,
    build_two_to_one,
    deferred_equivalence_check,
    make_basis_state,
    recover_r_from_constraints,
    run_deutsch,
    run_grover2,
    run_shor_period,
    run_simon,
    shor_staged_circuit,
    simon_staged_circuit,
    solve_simon,
    state_from_terms,
)
from qregsim.algorithms import (
    choose_argument_width,
    classical_grover_queries,
    convergents_of,
    execute,
    extract_period,
    ledger_to_csv,
    measured_constraint,
    parse_mode,
    speedup_ledger,
)
from qregsim.oracles import kronecker_family

RT2 = 1.0 / math.sqrt(2.0)


def value_at(layout, index, name):
    """The value of register name at basis index index."""
    return layout.label_of(index)[name]


def reference_oracle():
    return build_two_to_one(2, 2, (0, 1), family="two_to_one_arith")


class TestSimon:
    def test_forced_high_outcome_checkpoints(self):
        trace = run_simon(reference_oracle(), force_v_outcome=1)
        layout = RegisterLayout((("a", 2), ("v", 2)))
        golden_t3 = state_from_terms(
            layout, [({"a": 1, "v": 1}, RT2), ({"a": 3, "v": 1}, RT2)]
        )
        np.testing.assert_allclose(
            trace.state_at("t3").amplitudes, golden_t3.amplitudes, atol=1e-12
        )
        assert trace.oracle_queries == 1
        assert trace.measurements[0].probability == pytest.approx(0.5)

    def test_measured_constraints_orthogonal_to_spacing(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            trace = run_simon(reference_oracle(), rng)
            z = measured_constraint(trace)
            assert z in (0, 1)
            assert bin(2 & z).count("1") % 2 == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_soundness_across_oracles(self, n):
        rng = np.random.default_rng(n)
        for r in range(1, 1 << n):
            oracle = build_two_to_one(n, r, rng)
            for _ in range(10):
                z = measured_constraint(run_simon(oracle, rng))
                assert bin(r & z).count("1") % 2 == 0

    def test_skipping_value_measurement_keeps_statistics(self):
        trace = run_simon(reference_oracle(), np.random.default_rng(1), measure_v_at_t3=False)
        assert "t3" not in trace.labels
        assert [rec.register for rec in trace.measurements] == ["a"]
        report = deferred_equivalence_check(
            simon_staged_circuit(reference_oracle()), "t2", "t4"
        )
        assert report["max_abs_diff"] < 1e-12

    def test_non_two_to_one_oracle_rejected(self):
        with pytest.raises(PreconditionError):
            run_simon(kronecker_family(2)[0])


def brute_force_spacings(constraints, n):
    return [
        r
        for r in range(1, 1 << n)
        if all(bin(r & z).count("1") % 2 == 0 for z in constraints)
    ]


class TestSpacingRecovery:
    def test_single_constraint_two_bits(self):
        assert brute_force_spacings([1], 2) == [2]
        assert recover_r_from_constraints([1], 2) == 2

    def test_underdetermined_returns_none(self):
        assert len(brute_force_spacings([4], 3)) > 1
        assert recover_r_from_constraints([4], 3) is None

    def test_three_bit_examples_against_brute_force(self):
        assert brute_force_spacings([3, 5], 3) == [7]
        assert recover_r_from_constraints([3, 5], 3) == 7
        assert brute_force_spacings([6, 7], 3) == [6]
        assert recover_r_from_constraints([6, 7], 3) == 6

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_brute_force_on_random_constraint_sets(self, n):
        rng = np.random.default_rng(10 + n)
        for _ in range(50):
            constraints = [int(z) for z in rng.integers(0, 1 << n, size=rng.integers(1, 2 * n))]
            solutions = brute_force_spacings(constraints, n)
            recovered = recover_r_from_constraints(constraints, n)
            if len(solutions) == 1:
                assert recovered == solutions[0]
            else:
                assert recovered is None

    def test_trivial_single_bit_domain(self):
        assert recover_r_from_constraints([0], 1) == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_full_recovery_loop(self, n):
        rng = np.random.default_rng(20 + n)
        for _ in range(5):
            r = int(rng.integers(1, 1 << n))
            oracle = build_two_to_one(n, r, rng)
            result = solve_simon(oracle, rng)
            assert result.recovered_r == r
            assert result.runs_used == len(result.constraints)
            assert all(bin(r & z).count("1") % 2 == 0 for z in result.constraints)


def reference_recover_r(constraints, n):
    """Gauss-Jordan elimination over GF(2) on a uint8 bit matrix, one row at a time:
    the solver's former implementation, kept as its reference."""
    rows = np.array([[(z >> j) & 1 for j in range(n)] for z in constraints], dtype=np.uint8)
    if rows.size == 0:
        rows = rows.reshape(0, n)
    rank = 0
    pivot_cols = []
    for col in range(n):
        hits = [i for i in range(rank, len(rows)) if rows[i, col]]
        if not hits:
            continue
        rows[[rank, hits[0]]] = rows[[hits[0], rank]]
        for i in range(len(rows)):
            if i != rank and rows[i, col]:
                rows[i] ^= rows[rank]
        pivot_cols.append(col)
        rank += 1
    if rank != n - 1:
        return None
    free_col = next(c for c in range(n) if c not in pivot_cols)
    bits = np.zeros(n, dtype=np.uint8)
    bits[free_col] = 1
    for row_idx, col in enumerate(pivot_cols):
        bits[col] = rows[row_idx, free_col]
    return int(sum(int(b) << j for j, b in enumerate(bits)))


@st.composite
def constraint_sets(draw):
    """n in 0..10 and up to 2n + 2 constraints, some with bits at or above n; small
    value ranges make repeated and dependent constraints, and inconsistent sets, common."""
    n = draw(st.integers(0, 10))
    high = draw(st.sampled_from([1 << n, 1 << (n + 3), 4]))
    return n, draw(st.lists(st.integers(0, high - 1), max_size=2 * n + 2))


class TestSpacingRecoveryAgainstElimination:
    @settings(max_examples=400, deadline=None)
    @given(constraint_sets())
    def test_matches_the_bit_matrix_elimination(self, case):
        n, constraints = case
        assert recover_r_from_constraints(constraints, n) == reference_recover_r(constraints, n)

    def test_simon_measurements_determine_r(self):
        rng = np.random.default_rng(5)
        for n in range(2, 9):
            oracle = build_two_to_one(n, int(rng.integers(1, 1 << n)), rng)
            constraints = [
                measured_constraint(run_simon(oracle, rng)) for _ in range(3 * n)
            ]
            expected = reference_recover_r(constraints, n)
            assert recover_r_from_constraints(constraints, n) == expected
            assert expected in (None, oracle.params["r"])


class TestShor:
    def test_register_sizing(self, monkeypatch):
        assert choose_argument_width(15) == (8, "L_squared")
        monkeypatch.setenv("DIS_WIDTH_CAP", "10")
        assert choose_argument_width(15) == (5, "2L")

    @pytest.mark.parametrize("modulus", [-5, 0])
    def test_register_sizing_refuses_a_modulus_below_one(self, modulus):
        with pytest.raises(PreconditionError, match=f"modulus {modulus} must be >= 1"):
            choose_argument_width(modulus)

    def test_collapse_leaves_arithmetic_progression(self):
        trace, _ = run_shor_period(7, 15, force_v_outcome=7)
        state = trace.state_at("t3")
        support = {
            value_at(state.layout, int(i), "a")
            for i in np.nonzero(np.abs(state.amplitudes) > 1e-14)[0]
        }
        assert support == set(range(1, 256, 4))

    def test_constant_function_edge_case(self):
        trace, result = run_shor_period(1, 15, np.random.default_rng(2))
        assert result.recovered_period == 1
        state = trace.state_at("t3")
        support = {
            value_at(state.layout, int(i), "a")
            for i in np.nonzero(np.abs(state.amplitudes) > 1e-14)[0]
        }
        assert support == set(range(256))

    def test_measured_peaks_are_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            _, result = run_shor_period(7, 15, rng)
            assert result.measured_z in {0, 64, 128, 192}
            if result.recovered_period is not None:
                assert pow(7, result.recovered_period, 15) == 1

    def test_majority_recovery(self):
        wins = 0
        for seq in np.random.SeedSequence(4).spawn(40):
            _, result = run_shor_period(2, 15, np.random.default_rng(seq))
            wins += result.recovered_period == 4
        assert wins >= 20

    def test_convergent_enumeration(self):
        assert convergents_of(64, 256) == (Fraction(0), Fraction(1, 4))
        assert convergents_of(192, 256) == (Fraction(0), Fraction(1), Fraction(3, 4))

    def test_extraction_rules(self):
        assert extract_period(64, 256, 7, 15)[1] == 4
        assert extract_period(128, 256, 7, 15)[1] == 4  # via doubling 2 -> 4
        assert extract_period(0, 256, 7, 15)[1] is None
        assert extract_period(0, 256, 1, 15)[1] == 1

    def test_non_coprime_base_rejected(self):
        with pytest.raises(PreconditionError):
            run_shor_period(6, 15)

    @pytest.mark.parametrize("a, modulus", [(2, -5), (1, 0)])
    def test_modulus_below_one_rejected_by_name(self, a, modulus):
        with pytest.raises(PreconditionError, match=f"modulus {modulus} must be >= 1"):
            shor_staged_circuit(a, modulus)

    def test_in_cap_21_qubit_input_runs(self):
        # a 14-qubit argument and a 7-qubit value: 2^21 amplitudes, no d x d matrix
        trace, result = run_shor_period(2, 91, np.random.default_rng(1))
        assert trace.state_at("t0").layout.total_width == 21
        assert result.recovered_period == 12
        assert pow(2, 12, 91) == 1

    def test_fourier_dump_holds_only_the_comb_peaks(self):
        # period 8 over 2^13 arguments: the transform is nonzero only at multiples
        # of 2^13 / 8, and every other amplitude must stay an exact zero in the dump
        trace, result = run_shor_period(2, 85, np.random.default_rng(1))
        records = trace.state_at("t4").records()
        assert sorted(rec["label"]["a"] for rec in records) == list(range(0, 8192, 1024))
        assert result.recovered_period == 8


def deutsch_layout():
    return RegisterLayout((("a", 1), ("v", 1)))


DEUTSCH_GOLDEN_T3 = {
    0b00: [({"a": 0, "v": 0}, RT2), ({"a": 0, "v": 1}, -RT2)],
    0b01: [({"a": 1, "v": 0}, RT2), ({"a": 1, "v": 1}, -RT2)],
    0b10: [({"a": 1, "v": 0}, -RT2), ({"a": 1, "v": 1}, RT2)],
    0b11: [({"a": 0, "v": 0}, -RT2), ({"a": 0, "v": 1}, RT2)],
}


def extended_layout():
    return RegisterLayout((("m", 2), ("a", 1), ("v", 1)))


def extended_golden_t3(phases=(0.0, 0.0, 0.0)):
    c = 1.0 / (2.0 * math.sqrt(2.0))
    d1, d2, d3 = (np.exp(1j * p) for p in phases)
    terms = []
    for m, a, coeff in ((0, 0, 1.0), (3, 0, -d3), (1, 1, d1), (2, 1, -d2)):
        terms.append(({"m": m, "a": a, "v": 0}, coeff * c))
        terms.append(({"m": m, "a": a, "v": 1}, -coeff * c))
    return state_from_terms(extended_layout(), terms)


class TestDeutsch:
    @pytest.mark.parametrize("mode", [0b00, 0b01, 0b10, 0b11])
    def test_original_reaches_printed_state(self, mode):
        trace, result = run_deutsch("original", k=mode)
        golden = state_from_terms(deutsch_layout(), DEUTSCH_GOLDEN_T3[mode])
        np.testing.assert_allclose(
            trace.state_at("t3").amplitudes, golden.amplitudes, atol=1e-12
        )
        assert result.balanced == (mode in (0b01, 0b10))
        assert trace.oracle_queries == 1

    def test_mode_parsing(self):
        assert parse_mode("10") == 2
        assert parse_mode(3) == 3
        with pytest.raises(RangeError):
            parse_mode(4)
        with pytest.raises(PreconditionError):
            run_deutsch("original")

    def test_extended_mode_superposition_state(self):
        trace, _ = run_deutsch("extended", rng=np.random.default_rng(5))
        golden_t1 = state_from_terms(
            extended_layout(),
            [
                ({"m": m, "a": a, "v": v}, 0.25 * (-1.0 if v else 1.0))
                for m in range(4)
                for a in range(2)
                for v in range(2)
            ],
        )
        np.testing.assert_allclose(
            trace.state_at("t1").amplitudes, golden_t1.amplitudes, atol=1e-12
        )
        np.testing.assert_allclose(
            trace.state_at("t3").amplitudes, extended_golden_t3().amplitudes, atol=1e-12
        )

    def test_extended_measurements_are_consistent(self):
        rng = np.random.default_rng(6)
        seen = set()
        for _ in range(60):
            trace, result = run_deutsch("extended", rng=rng)
            assert result.balanced == (result.mode in (0b01, 0b10))
            assert trace.oracle_queries == 1
            seen.add(result.mode)
        assert seen == {0, 1, 2, 3}

    def test_extended_rejects_explicit_mode(self):
        with pytest.raises(PreconditionError):
            run_deutsch("extended", k=1, rng=np.random.default_rng(0))
        with pytest.raises(PreconditionError):
            run_deutsch("extended")

    def test_mixture_state_carries_drawn_phases(self):
        rng = np.random.default_rng(7)
        trace, result = run_deutsch("mixture", rng=rng)
        assert result.phases is not None and len(result.phases) == 3
        golden = extended_golden_t3(result.phases)
        np.testing.assert_allclose(
            trace.state_at("t3").amplitudes, golden.amplitudes, atol=1e-12
        )

    def test_mixture_correlation_is_phase_independent(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            _, result = run_deutsch("mixture", rng=rng)
            assert result.balanced == (result.mode in (0b01, 0b10))

    def test_extended_mode_measurement_can_be_deferred(self):
        from qregsim.algorithms import deutsch_extended_staged_circuit

        report = deferred_equivalence_check(
            deutsch_extended_staged_circuit(), "t2", "t3"
        )
        assert report["max_abs_diff"] < 1e-12
        joint = {
            (e["outcomes"]["m"], e["outcomes"]["a"]): e["probability"]
            for e in report["ordering_a"]
        }
        assert joint == pytest.approx(
            {(0, 0): 0.25, (1, 1): 0.25, (2, 1): 0.25, (3, 0): 0.25}
        )

    def test_unknown_variant(self):
        with pytest.raises(RangeError):
            run_deutsch("both", k=0)


class TestGrover:
    def test_printed_pre_measurement_state(self):
        trace, _ = run_grover2("standard", k=2)
        golden = state_from_terms(
            RegisterLayout((("a", 2), ("v", 1))),
            [({"a": 2, "v": 0}, RT2), ({"a": 2, "v": 1}, -RT2)],
        )
        np.testing.assert_allclose(
            trace.state_at("t3").amplitudes, golden.amplitudes, atol=1e-12
        )

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_answer_is_deterministic(self, k):
        trace, result = run_grover2("standard", k=k, rng=np.random.default_rng(k))
        assert result.answer == k
        assert result.confirmed
        assert result.oracle_uses == 2
        assert trace.metadata["gate_applications"] == 1
        assert trace.metadata["confirmation_lookups"] == 1

    def test_extended_correlated_state(self):
        trace, result = run_grover2("extended", rng=np.random.default_rng(9))
        c = 1.0 / (2.0 * math.sqrt(2.0))
        golden = state_from_terms(
            RegisterLayout((("m", 2), ("a", 2), ("v", 1))),
            [({"m": k, "a": k, "v": v}, c * (-1.0 if v else 1.0))
             for k in range(4) for v in range(2)],
        )
        np.testing.assert_allclose(
            trace.state_at("t3").amplitudes, golden.amplitudes, atol=1e-12
        )
        assert result.answer == result.target
        assert result.oracle_uses == 1

    def test_extended_agreement_over_runs(self):
        rng = np.random.default_rng(10)
        seen = set()
        for _ in range(60):
            _, result = run_grover2("extended", rng=rng)
            assert result.answer == result.target
            seen.add(result.target)
        assert seen == {0, 1, 2, 3}

    def test_invalid_mark_rejected(self):
        with pytest.raises(RangeError):
            run_grover2("standard", k=4)
        with pytest.raises(RangeError):
            run_grover2("standard")
        # a mark that is not a decimal integer is named, not passed to int()
        with pytest.raises(RangeError, match="marked item k in 0..3, got 'x'"):
            run_grover2("standard", k="x")


class TestLedger:
    def test_fixed_costs_and_columns(self):
        rows = speedup_ledger(range(2, 4), trials=6, seed=1)
        by_algo = {row.algorithm: row for row in rows if row.algorithm != "simon"}
        assert by_algo["deutsch"].quantum_queries_per_run == 1
        assert by_algo["deutsch"].classical_queries_mean == 2.0
        assert by_algo["deutsch"].classical_queries_max == 2
        assert by_algo["grover2"].quantum_queries_per_run == 2
        assert by_algo["grover2"].classical_queries_max <= 3
        simon_rows = [row for row in rows if row.algorithm == "simon"]
        assert [row.n for row in simon_rows] == [2, 3]
        assert all(row.quantum_queries_per_run == 1 for row in simon_rows)
        assert all(row.runs >= 1.0 for row in simon_rows)
        csv_text = ledger_to_csv(rows)
        assert csv_text.splitlines()[0] == (
            "algorithm,n,quantum_queries_per_run,runs,"
            "classical_queries_mean,classical_queries_max,seed"
        )

    @pytest.mark.parametrize(
        "n_range, trials",
        [(range(2, 4), 0), (range(2, 4), -1), (range(0, 3), 2), (range(-1, 1), 2),
         (range(3, 3), 2)],
    )
    def test_refuses_no_trials_or_a_size_below_one_before_any_run(
        self, monkeypatch, n_range, trials
    ):
        runs = []
        monkeypatch.setattr("qregsim.algorithms.ledger.run_deutsch", lambda *a, **k: runs.append(a))
        with pytest.raises(PreconditionError, match="must be >= 1"):
            speedup_ledger(n_range, trials=trials)
        assert runs == []

    def test_classical_search_never_needs_four_probes(self):
        rng = np.random.default_rng(11)
        family = kronecker_family(2)
        counts = []
        for _ in range(100):
            k = int(rng.integers(4))
            found, used = classical_grover_queries(family[k], rng)
            assert found == k
            counts.append(used)
        assert max(counts) == 3
        assert min(counts) == 1


class TestTrace:
    def test_labels_must_increase(self):
        layout = RegisterLayout((("a", 1),))
        steps = [("t0", GateSpec("hadamard", ("a",)))]
        circuit = StagedCircuit(make_basis_state(layout, {"a": 0}), steps, "a", ())
        with pytest.raises(ValueError, match="label 't0' does not follow 't0'"):
            execute(circuit, None)

    def test_json_shape(self):
        trace = run_simon(reference_oracle(), np.random.default_rng(12))
        data = trace.to_json()
        assert set(data) == {"metadata", "oracle_queries", "checkpoints", "measurements"}
        assert data["oracle_queries"] == 1
        assert [c["label"] for c in data["checkpoints"]] == trace.labels
        assert all(
            set(m) == {"register", "outcome", "probability"} for m in data["measurements"]
        )
