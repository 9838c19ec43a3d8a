"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time
from collections import Counter

import numpy as np
from scipy import stats

from qregsim import (
    RegisterLayout,
    build_two_to_one,
    deferred_equivalence_check,
    equals_up_to_global_phase,
    measure_forced,
    normalize,
    outcome_distribution,
    project,
    ProjectorSpec,
    run_deutsch,
    run_grover2,
    run_shor_period,
    run_simon,
    schmidt_rank,
    shor_staged_circuit,
    simon_staged_circuit,
    solve_measurement_constraints,
    state_from_terms,
    StateVector,
    von_neumann_premeasurement,
)
from qregsim.algorithms import extract_period, measured_constraint, speedup_ledger

RT2 = 1.0 / math.sqrt(2.0)


def value_at(layout, index, name):
    """The value of register name at basis index index."""
    return layout.label_of(index)[name]


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}{suffix}"
    print(line)
    assert ok, line


def reference_oracle():
    return build_two_to_one(2, 2, (0, 1), family="two_to_one_arith")


def pair_layout():
    return RegisterLayout((("a", 2), ("v", 2)))


def test_criterion_01_collision_golden_trace():
    start = time.perf_counter()
    trace = run_simon(reference_oracle(), force_v_outcome=1)
    layout = pair_layout()
    goldens = {
        "t1": state_from_terms(layout, [({"a": x, "v": 0}, 0.5) for x in range(4)]),
        "t2": state_from_terms(layout, [({"a": x, "v": x % 2}, 0.5) for x in range(4)]),
        "t3": state_from_terms(
            layout, [({"a": 1, "v": 1}, RT2), ({"a": 3, "v": 1}, RT2)]
        ),
    }
    ok = all(
        equals_up_to_global_phase(trace.state_at(label), want, 1e-12)
        for label, want in goldens.items()
    )
    elapsed = time.perf_counter() - start
    _report(
        1,
        "collision trace t1/t2/t3 matches printed states at 1e-12 in under 1 s",
        ok and elapsed < 1.0,
        f"elapsed {elapsed:.3f}s",
    )


def test_criterion_02_constraint_soundness_and_value_statistics():
    rng = np.random.default_rng(20240)
    oracle = reference_oracle()
    f_counts = Counter()
    sound = True
    for _ in range(10_000):
        trace = run_simon(oracle, rng)
        f_counts[trace.measurements[0].outcome] += 1
        z = measured_constraint(trace)
        sound = sound and bin(2 & z).count("1") % 2 == 0
    chi = stats.chisquare([f_counts[0], f_counts[1]], [5000, 5000])
    ok = sound and chi.pvalue >= 0.001
    _report(
        2,
        "10,000 runs: every z orthogonal to r; value statistics pass chi-square",
        ok,
        f"counts {dict(f_counts)}, p={chi.pvalue:.4f}",
    )


def test_criterion_03_deferred_measurement_equivalence():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        r = int(rng.integers(1, 1 << n))
        circuit = simon_staged_circuit(build_two_to_one(n, r, rng))
        worst = max(worst, deferred_equivalence_check(circuit, "t2", "t4")["max_abs_diff"])
    worst = max(
        worst,
        deferred_equivalence_check(shor_staged_circuit(7, 15, a_width=4), "t2", "t4")[
            "max_abs_diff"
        ],
    )
    elapsed = time.perf_counter() - start
    _report(
        3,
        "measuring the value register early or late leaves joint statistics identical",
        worst < 1e-12 and elapsed < 10.0,
        f"max diff {worst:.2e}, elapsed {elapsed:.2f}s",
    )


def test_criterion_04_constraint_solver_equals_projection():
    rng = np.random.default_rng(4)
    trace = run_simon(reference_oracle(), measure_v_at_t3=False)
    cases = [(trace.state_at("t2"), "v", f) for f in (0, 1)]
    for _ in range(100):
        widths = rng.integers(1, 4, size=2)
        layout = RegisterLayout((("a", int(widths[0])), ("v", int(widths[1]))))
        amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        state = normalize(StateVector(layout, amps))
        register = str(rng.choice(["a", "v"]))
        eig = int(rng.choice(outcome_distribution(state, register).outcomes))
        cases.append((state, register, eig))
    ok = all(
        equals_up_to_global_phase(
            solve_measurement_constraints(state, register, eig),
            normalize(project(state, ProjectorSpec(register, eig))),
            1e-10,
        )
        for state, register, eig in cases
    )
    _report(
        4,
        "constraint solver reproduces the projection route on 102 states at 1e-10",
        ok,
    )


def test_criterion_05_pointer_model_consistency():
    trace = run_simon(reference_oracle(), measure_v_at_t3=False)
    before = trace.state_at("t2")
    layout = RegisterLayout((("a", 2), ("v", 2), ("p", 2)))
    embedded = state_from_terms(
        layout,
        (
            (dict(rec["label"], p=0), complex(rec["re"], rec["im"]))
            for rec in before.records(tol=0.0)
        ),
    )
    coupled = von_neumann_premeasurement(embedded, "v", "p")
    born = outcome_distribution(before, "v").as_dict()
    readout = outcome_distribution(coupled, "p").as_dict()
    gap = max(abs(born.get(k, 0.0) - readout.get(k, 0.0)) for k in set(born) | set(readout))
    _report(5, "pointer readout equals the Born distribution exactly", gap < 1e-12,
            f"gap {gap:.2e}")


def test_criterion_06_one_bit_game_goldens():
    layout = RegisterLayout((("a", 1), ("v", 1)))
    step_c = {
        0b00: [({"a": 0, "v": 0}, RT2), ({"a": 0, "v": 1}, -RT2)],
        0b01: [({"a": 1, "v": 0}, RT2), ({"a": 1, "v": 1}, -RT2)],
        0b10: [({"a": 1, "v": 0}, -RT2), ({"a": 1, "v": 1}, RT2)],
        0b11: [({"a": 0, "v": 0}, -RT2), ({"a": 0, "v": 1}, RT2)],
    }
    ok = True
    for mode, terms in step_c.items():
        trace, result = run_deutsch("original", k=mode)
        golden = state_from_terms(layout, terms)
        ok = ok and np.allclose(trace.state_at("t3").amplitudes, golden.amplitudes, atol=1e-12)
        ok = ok and result.balanced == (mode in (0b01, 0b10)) and trace.oracle_queries == 1

    ext_layout = RegisterLayout((("m", 2), ("a", 1), ("v", 1)))
    golden_t1 = state_from_terms(
        ext_layout,
        [({"m": m, "a": a, "v": v}, 0.25 * (-1.0 if v else 1.0))
         for m in range(4) for a in range(2) for v in range(2)],
    )
    c = 1.0 / (2.0 * math.sqrt(2.0))
    t3_terms = []
    for m, a, sign in ((0, 0, 1.0), (3, 0, -1.0), (1, 1, 1.0), (2, 1, -1.0)):
        t3_terms.append(({"m": m, "a": a, "v": 0}, sign * c))
        t3_terms.append(({"m": m, "a": a, "v": 1}, -sign * c))
    golden_t3 = state_from_terms(ext_layout, t3_terms)
    trace, _ = run_deutsch("extended", rng=np.random.default_rng(6))
    ok = ok and np.allclose(trace.state_at("t1").amplitudes, golden_t1.amplitudes, atol=1e-12)
    ok = ok and np.allclose(trace.state_at("t3").amplitudes, golden_t3.amplitudes, atol=1e-12)

    rng = np.random.default_rng(60)
    mixture_ok = all(
        (res := run_deutsch("mixture", rng=rng)[1]).balanced == (res.mode in (1, 2))
        for _ in range(1000)
    )
    _report(
        6,
        "one-bit game: four printed states, both superposition states, one oracle "
        "use, 1000 consistent random-phase runs",
        ok and mixture_ok,
    )


def test_criterion_07_search_goldens_and_determinism():
    layout = RegisterLayout((("a", 2), ("v", 1)))
    golden = state_from_terms(layout, [({"a": 2, "v": 0}, RT2), ({"a": 2, "v": 1}, -RT2)])
    trace, _ = run_grover2("standard", k=2)
    ok = np.allclose(trace.state_at("t3").amplitudes, golden.amplitudes, atol=1e-12)
    for k in range(4):
        _, result = run_grover2("standard", k=k, rng=np.random.default_rng(k))
        ok = ok and result.answer == k and result.confirmed

    ext_layout = RegisterLayout((("m", 2), ("a", 2), ("v", 1)))
    c = 1.0 / (2.0 * math.sqrt(2.0))
    golden_ext = state_from_terms(
        ext_layout,
        [({"m": k, "a": k, "v": v}, c * (-1.0 if v else 1.0))
         for k in range(4) for v in range(2)],
    )
    ext_trace, _ = run_grover2("extended", rng=np.random.default_rng(7))
    t3 = ext_trace.state_at("t3")
    ok = ok and np.allclose(t3.amplitudes, golden_ext.amplitudes, atol=1e-12)
    probs = np.abs(t3.amplitudes) ** 2
    stray = sum(
        float(probs[i])
        for i in np.nonzero(probs > 0)[0]
        if value_at(t3.layout, int(i), "m") != value_at(t3.layout, int(i), "a")
    )
    _report(
        7,
        "four-item search: printed states, deterministic answers, zero stray "
        "mode/answer mass",
        ok and stray < 1e-12,
        f"stray {stray:.2e}",
    )


def test_criterion_08_period_finding_desk_scale():
    ok = True
    details = []
    for a in (7, 2):
        trace, _ = run_shor_period(a, 15, force_v_outcome=pow(a, 1, 15))
        state = trace.state_at("t3")
        support = {
            value_at(state.layout, int(i), "a")
            for i in np.nonzero(np.abs(state.amplitudes) > 1e-14)[0]
        }
        ok = ok and support == set(range(1, 256, 4))

        # calibration oracle: enumerate the exact peak distribution and the
        # extraction outcome for each peak (success probability is 3/4 here)
        no_collapse, _ = run_shor_period(a, 15, measure_v=False)
        dist = outcome_distribution(no_collapse.state_at("t4"), "a")
        analytic = sum(
            p for z, p in dist.entries if extract_period(z, 256, a, 15)[1] == 4
        )
        ok = ok and analytic >= 0.5

        wins = 0
        for seq in np.random.SeedSequence(800 + a).spawn(200):
            _, result = run_shor_period(a, 15, np.random.default_rng(seq))
            wins += result.recovered_period == 4
        ok = ok and wins >= 100
        details.append(f"a={a}: analytic {analytic:.3f}, observed {wins}/200")
    _report(8, "period 4 structure exact; recovery in at least half of 200 runs",
            ok, "; ".join(details))


def test_criterion_09_entanglement_lifecycle():
    rng = np.random.default_rng(9)
    cut = (("a",), ("v",))
    ok = True
    checked = 0
    for n in range(1, 5):
        spacings = [("two_to_one_xor", r) for r in range(1, 1 << n)]
        spacings += [("two_to_one_arith", 1 << j) for j in range(n)]
        for family, r in spacings:
            oracle = build_two_to_one(n, r, rng, family=family)
            entangled = run_simon(oracle, measure_v_at_t3=False).state_at("t2")
            ok = ok and schmidt_rank(entangled, cut) == (1 << n) // 2
            f_bar = outcome_distribution(entangled, "v").entries[0][0]
            post = measure_forced(entangled, "v", f_bar).post_state
            ok = ok and schmidt_rank(post, cut) == 1
            checked += 1
    _report(9, "every 2-to-1 oracle up to n=4: rank N/2 entangled, rank 1 after collapse",
            ok, f"{checked} oracles")


def test_criterion_10_query_count_ledger():
    rows = speedup_ledger(range(2, 9), trials=10, seed=10)
    by_algo = {row.algorithm: row for row in rows if row.algorithm != "simon"}
    deutsch = by_algo["deutsch"]
    grover = by_algo["grover2"]
    ok = (
        deutsch.quantum_queries_per_run == 1
        and deutsch.classical_queries_mean == 2.0
        and deutsch.classical_queries_max == 2
        and grover.quantum_queries_per_run == 2
        and grover.classical_queries_max == 3
    )
    simon_rows = [row for row in rows if row.algorithm == "simon"]
    ok = ok and [row.n for row in simon_rows] == list(range(2, 9))
    ok = ok and all(row.quantum_queries_per_run == 1 for row in simon_rows)
    ok = ok and all(row.classical_queries_mean >= 2.0 for row in simon_rows)
    growth = [row.classical_queries_mean for row in simon_rows]
    _report(
        10,
        "ledger: 1 vs 2 (one-bit game), 2 vs 3 (search), measured collision growth",
        ok,
        f"classical means n=2..8: {[round(g, 1) for g in growth]}",
    )
