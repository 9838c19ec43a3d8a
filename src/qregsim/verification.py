"""Golden-value verification suite.

Every check replays a documented desk-scale scenario and compares the
simulator's output against independently written-down amplitudes or against
an independent route to the same quantity (projection vs constraint solver,
early vs late measurement, pointer readout vs direct Born statistics).
The CLI's verify command runs run_all_checks() and reports one line each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algorithms import (
    BALANCED_MODES,
    run_deutsch,
    run_grover2,
    run_shor_period,
    run_simon,
    shor_staged_circuit,
    simon_staged_circuit,
)
from .hilbert import (
    RegisterLayout,
    StateVector,
    equals_up_to_global_phase,
    normalize,
    state_from_terms,
)
from .measurement import (
    ProjectorSpec,
    StagedCircuit,
    deferred_equivalence_check,
    joint_distribution,
    measure_forced,
    outcome_distribution,
    project,
    schmidt_rank,
    solve_measurement_constraints,
    von_neumann_premeasurement,
)
from .oracles import build_two_to_one

RT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def reference_two_to_one_oracle():
    """The n=2, r=2 table f = [0, 1, 0, 1] used throughout the small checks."""
    return build_two_to_one(2, 2, (0, 1), family="two_to_one_arith")


def _simon_layout() -> RegisterLayout:
    return RegisterLayout((("a", 2), ("v", 2)))


def _simon_goldens(f_bar: int) -> dict[str, StateVector]:
    layout = _simon_layout()
    x0 = f_bar  # with table [0,1,0,1], f maps {f_bar, f_bar+2} onto f_bar
    sign = -1.0 if f_bar == 1 else 1.0
    return {
        "t1": state_from_terms(layout, [({"a": x, "v": 0}, 0.5) for x in range(4)]),
        "t2": state_from_terms(
            layout, [({"a": x, "v": x % 2}, 0.5) for x in range(4)]
        ),
        "t3": state_from_terms(
            layout,
            [({"a": x0, "v": f_bar}, RT2), ({"a": x0 + 2, "v": f_bar}, RT2)],
        ),
        "t4": state_from_terms(
            layout,
            [({"a": 0, "v": f_bar}, RT2), ({"a": 1, "v": f_bar}, sign * RT2)],
        ),
    }


def _match(
    label: str, got: StateVector, want: StateVector, tol: float = 1e-12
) -> str | None:
    if not equals_up_to_global_phase(got, want, tol):
        return f"{label} deviates beyond {tol}"
    return None


def check_simon_checkpoints(f_bar: int) -> CheckResult:
    trace = run_simon(reference_two_to_one_oracle(), force_v_outcome=f_bar)
    goldens = _simon_goldens(f_bar)
    problems = [
        p
        for label, want in goldens.items()
        if (p := _match(label, trace.state_at(label), want)) is not None
    ]
    name = f"simon-checkpoints-fbar{f_bar}"
    if problems:
        return CheckResult(name, False, "; ".join(problems))
    return CheckResult(name, True, "t1 t2 t3 t4 match printed amplitudes")


def _deferred_check(name: str, circuit: StagedCircuit) -> CheckResult:
    """Measuring v right after the oracle (t2) or after the final transform (t4)
    gives the same joint statistics."""
    report = deferred_equivalence_check(circuit, "t2", "t4")
    ok = report["max_abs_diff"] < 1e-12
    return CheckResult(name, ok, f"max joint diff {report['max_abs_diff']:.3e}")


def check_simon_deferred() -> CheckResult:
    return _deferred_check(
        "simon-deferred-joint", simon_staged_circuit(reference_two_to_one_oracle())
    )


def check_shor_deferred() -> CheckResult:
    return _deferred_check("shor-deferred-joint", shor_staged_circuit(7, 15, a_width=4))


def check_constraint_solver() -> CheckResult:
    rng = np.random.default_rng(11)
    trace = run_simon(reference_two_to_one_oracle(), measure_v_at_t3=False)
    cases = [(trace.state_at("t2"), "v", f) for f in (0, 1)]
    for _ in range(100):
        widths = rng.integers(1, 4, size=2)
        layout = RegisterLayout((("a", int(widths[0])), ("v", int(widths[1]))))
        amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        state = normalize(StateVector(layout, amps))
        register = str(rng.choice(["a", "v"]))
        dist = outcome_distribution(state, register)
        eig = int(rng.choice(dist.outcomes))
        cases.append((state, register, eig))
    worst = 0.0
    for state, register, eig in cases:
        solved = solve_measurement_constraints(state, register, eig)
        projected = normalize(project(state, ProjectorSpec(register, eig)))
        if not equals_up_to_global_phase(solved, projected, 1e-10):
            return CheckResult(
                "constraint-solver-vs-projection",
                False,
                f"solver and projection disagree on {register}={eig}",
            )
        worst = max(worst, float(np.linalg.norm(solved.amplitudes - projected.amplitudes)))
    return CheckResult(
        "constraint-solver-vs-projection",
        True,
        f"{len(cases)} states agree; worst norm gap {worst:.3e}",
    )


def check_pointer_model() -> CheckResult:
    trace = run_simon(reference_two_to_one_oracle(), measure_v_at_t3=False)
    before = trace.state_at("t2")
    layout = RegisterLayout((("a", 2), ("v", 2), ("p", 2)))
    embedded = state_from_terms(
        layout,
        (
            (dict(rec["label"], p=0), complex(rec["re"], rec["im"]))
            for rec in before.records()
        ),
    )
    coupled = von_neumann_premeasurement(embedded, "v", "p")
    golden = state_from_terms(
        layout,
        [
            ({"a": 0, "v": 0, "p": 0}, 0.5),
            ({"a": 2, "v": 0, "p": 0}, 0.5),
            ({"a": 1, "v": 1, "p": 1}, 0.5),
            ({"a": 3, "v": 1, "p": 1}, 0.5),
        ],
    )
    if _match("pointer-coupled state", coupled, golden) is not None:
        return CheckResult("pointer-model-consistency", False, "coupled state wrong")
    born = outcome_distribution(before, "v").as_dict()
    readout = outcome_distribution(coupled, "p").as_dict()
    keys = set(born) | set(readout)
    gap = max(abs(born.get(k, 0.0) - readout.get(k, 0.0)) for k in keys)
    return CheckResult(
        "pointer-model-consistency", gap < 1e-12, f"pointer vs Born gap {gap:.3e}"
    )


def check_deutsch_original() -> CheckResult:
    layout = RegisterLayout((("a", 1), ("v", 1)))
    goldens = {
        0: [({"a": 0, "v": 0}, RT2), ({"a": 0, "v": 1}, -RT2)],
        1: [({"a": 1, "v": 0}, RT2), ({"a": 1, "v": 1}, -RT2)],
        2: [({"a": 1, "v": 0}, -RT2), ({"a": 1, "v": 1}, RT2)],
        3: [({"a": 0, "v": 0}, -RT2), ({"a": 0, "v": 1}, RT2)],
    }
    for mode, terms in goldens.items():
        trace, result = run_deutsch("original", k=mode)
        if _match("t3", trace.state_at("t3"), state_from_terms(layout, terms)) is not None:
            return CheckResult(
                "deutsch-original-checkpoints", False, f"mode {mode:02b} state wrong"
            )
        if result.balanced != (mode in BALANCED_MODES) or trace.oracle_queries != 1:
            return CheckResult(
                "deutsch-original-checkpoints", False, f"mode {mode:02b} answer wrong"
            )
    return CheckResult(
        "deutsch-original-checkpoints",
        True,
        "all four modes: printed state, answer, one oracle use",
    )


def deutsch_extended_goldens() -> dict[str, StateVector]:
    layout = RegisterLayout((("m", 2), ("a", 1), ("v", 1)))
    quarter = 0.25
    c = 1.0 / (2.0 * math.sqrt(2.0))
    t1 = state_from_terms(
        layout,
        [
            ({"m": m, "a": a, "v": v}, quarter * (-1.0 if v else 1.0))
            for m in range(4)
            for a in range(2)
            for v in range(2)
        ],
    )
    t3_terms = []
    for m, a, sign in ((0, 0, 1.0), (3, 0, -1.0), (1, 1, 1.0), (2, 1, -1.0)):
        t3_terms.append(({"m": m, "a": a, "v": 0}, sign * c))
        t3_terms.append(({"m": m, "a": a, "v": 1}, -sign * c))
    return {"t1": t1, "t3": state_from_terms(layout, t3_terms)}


def check_deutsch_extended() -> CheckResult:
    trace, result = run_deutsch("extended", rng=np.random.default_rng(5))
    goldens = deutsch_extended_goldens()
    problems = [
        p
        for label, want in goldens.items()
        if (p := _match(label, trace.state_at(label), want)) is not None
    ]
    if problems:
        return CheckResult("deutsch-extended-checkpoints", False, "; ".join(problems))
    if result.balanced != (result.mode in BALANCED_MODES):
        return CheckResult(
            "deutsch-extended-checkpoints", False, "mode/answer pair inconsistent"
        )
    return CheckResult(
        "deutsch-extended-checkpoints", True, "t1 and t3 match printed amplitudes"
    )


def check_deutsch_mixture() -> CheckResult:
    rng = np.random.default_rng(3)
    for _ in range(100):
        _, result = run_deutsch("mixture", rng=rng)
        if result.balanced != (result.mode in BALANCED_MODES):
            return CheckResult(
                "deutsch-mixture-correlation",
                False,
                f"phases {result.phases} broke the mode/answer correlation",
            )
    return CheckResult(
        "deutsch-mixture-correlation",
        True,
        "100 random-phase runs all consistent",
    )


def check_grover_standard() -> CheckResult:
    layout = RegisterLayout((("a", 2), ("v", 1)))
    golden = state_from_terms(
        layout, [({"a": 2, "v": 0}, RT2), ({"a": 2, "v": 1}, -RT2)]
    )
    trace, _ = run_grover2("standard", k=2)
    if _match("t3", trace.state_at("t3"), golden) is not None:
        return CheckResult("grover-standard-checkpoints", False, "k=2 state wrong")
    for k in range(4):
        _, result = run_grover2("standard", k=k)
        if result.answer != k or not result.confirmed or result.oracle_uses != 2:
            return CheckResult(
                "grover-standard-checkpoints", False, f"k={k} not deterministic"
            )
    return CheckResult(
        "grover-standard-checkpoints",
        True,
        "printed k=2 state; answer deterministic for all k; two oracle uses",
    )


def grover_extended_golden() -> StateVector:
    layout = RegisterLayout((("m", 2), ("a", 2), ("v", 1)))
    c = 1.0 / (2.0 * math.sqrt(2.0))
    terms = []
    for k in range(4):
        terms.append(({"m": k, "a": k, "v": 0}, c))
        terms.append(({"m": k, "a": k, "v": 1}, -c))
    return state_from_terms(layout, terms)


def check_grover_extended() -> CheckResult:
    trace, result = run_grover2("extended", rng=np.random.default_rng(9))
    if _match("t3", trace.state_at("t3"), grover_extended_golden()) is not None:
        return CheckResult("grover-extended-checkpoints", False, "t3 state wrong")
    joint = joint_distribution(trace.state_at("t3"), ("m", "a"), 1e-16)
    stray = sum(p for (m, a), p in joint.items() if m != a)
    diag = [joint.get((k, k), 0.0) for k in range(4)]
    ok = stray < 1e-12 and max(abs(p - 0.25) for p in diag) < 1e-12 and result.confirmed
    return CheckResult(
        "grover-extended-checkpoints",
        ok,
        f"stray joint mass {stray:.3e}; diagonal uniform to 1e-12",
    )


def check_shor_comb_support() -> CheckResult:
    for a, f_bar in ((7, 7), (2, 2)):
        trace, _ = run_shor_period(a, 15, force_v_outcome=f_bar)
        state = trace.state_at("t3")
        layout = state.layout
        live = np.flatnonzero(np.abs(state.amplitudes) > 1e-14)
        support = set(((live >> layout.shift("a")) & (layout.register_dim("a") - 1)).tolist())
        expected = set(range(1, layout.register_dim("a"), 4))
        if support != expected:
            return CheckResult(
                "shor-comb-support", False, f"a={a}: support is not the step-4 comb"
            )
        amps = state.amplitudes[np.abs(state.amplitudes) > 1e-14]
        if np.max(np.abs(amps - amps[0])) > 1e-12:
            return CheckResult(
                "shor-comb-support", False, f"a={a}: comb amplitudes not uniform"
            )
    return CheckResult(
        "shor-comb-support", True, "a=7 and a=2 mod 15: exact step-4 comb after collapse"
    )


def check_entanglement_lifecycle(max_n: int = 4, seed: int = 23) -> CheckResult:
    rng = np.random.default_rng(seed)
    cut = (("a",), ("v",))
    checked = 0
    for n in range(1, max_n + 1):
        spacings = [("two_to_one_xor", r) for r in range(1, 1 << n)]
        spacings += [
            ("two_to_one_arith", 1 << j) for j in range(n)
        ]
        for family, r in spacings:
            oracle = build_two_to_one(n, r, rng, family=family)
            trace = run_simon(oracle, measure_v_at_t3=False)
            entangled = trace.state_at("t2")
            if schmidt_rank(entangled, cut) != (1 << n) // 2:
                return CheckResult(
                    "entanglement-lifecycle",
                    False,
                    f"{family} n={n} r={r}: pre-measurement rank != N/2",
                )
            f_bar = outcome_distribution(entangled, "v").entries[0][0]
            post = measure_forced(entangled, "v", f_bar).post_state
            if schmidt_rank(post, cut) != 1:
                return CheckResult(
                    "entanglement-lifecycle",
                    False,
                    f"{family} n={n} r={r}: post-measurement state not a product",
                )
            checked += 1
    return CheckResult(
        "entanglement-lifecycle",
        True,
        f"{checked} oracles: rank N/2 before, rank 1 after measurement",
    )


def run_all_checks() -> list[CheckResult]:
    return [
        check_simon_checkpoints(1),
        check_simon_checkpoints(0),
        check_simon_deferred(),
        check_shor_deferred(),
        check_constraint_solver(),
        check_pointer_model(),
        check_deutsch_original(),
        check_deutsch_extended(),
        check_deutsch_mixture(),
        check_grover_standard(),
        check_grover_extended(),
        check_shor_comb_support(),
        check_entanglement_lifecycle(),
    ]
