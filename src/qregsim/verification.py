"""Golden-value verification suite.

Every check replays a documented desk-scale scenario and compares the
simulator's output against independently written-down amplitudes or against
an independent route to the same quantity (projection vs constraint solver,
early vs late measurement, pointer readout vs direct Born statistics).
The CLI's verify command runs run_all_checks() and reports one line each.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algorithms import (
    BALANCED_MODES,
    execute,
    run_deutsch,
    run_grover2,
    run_shor_period,
    run_simon,
    shor_staged_circuit,
    simon_staged_circuit,
)
from .algorithms.deutsch import _deutsch_circuits, _deutsch_result
from .hilbert import (
    RegisterLayout,
    StateVector,
    _decode,
    equals_up_to_global_phase,
    normalize,
    state_from_terms,
)
from .measurement import (
    ProjectorSpec,
    StagedCircuit,
    deferred_equivalence_check,
    joint_distribution,
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


class _Failed(Exception):
    """A check's failure; its message is the check's report detail."""


def _require(ok: bool, detail: str) -> str:
    """Return detail if ok; else fail the check, with detail as its report."""
    if not ok:
        raise _Failed(detail)
    return detail


def _checked(name: str):
    """Make a check that returns its pass detail, or raises _Failed with its failure
    detail, return its CheckResult instead, named name with any {} filled in from the
    check's arguments."""

    def decorate(check):
        @functools.wraps(check)
        def run(*args) -> CheckResult:
            try:
                passed, detail = True, check(*args)
            except _Failed as failed:
                passed, detail = False, str(failed)
            return CheckResult(name.format(*args), passed, detail)

        return run

    return decorate


def _require_goldens(trace, goldens: dict[str, StateVector], failure: str | None = None) -> None:
    """Each golden must equal the trace's checkpoint of its label up to a global phase,
    to 1e-12. The failure detail is failure if given, else it names each label that
    deviates."""
    wrong = [
        label
        for label, want in goldens.items()
        if not equals_up_to_global_phase(trace.state_at(label), want, 1e-12)
    ]
    _require(not wrong, failure or "; ".join(f"{label} deviates beyond 1e-12" for label in wrong))


@_checked("simon-checkpoints-fbar{}")
def check_simon_checkpoints(f_bar: int) -> str:
    trace = run_simon(reference_two_to_one_oracle(), force_v_outcome=f_bar)
    _require_goldens(trace, _simon_goldens(f_bar))
    return "t1 t2 t3 t4 match printed amplitudes"


def _deferred_joint(circuit: StagedCircuit) -> str:
    """Measuring v right after the oracle (t2) or after the final transform (t4)
    gives the same joint statistics."""
    report = deferred_equivalence_check(circuit, "t2", "t4")
    return _require(report["max_abs_diff"] < 1e-12, f"max joint diff {report['max_abs_diff']:.3e}")


@_checked("simon-deferred-joint")
def check_simon_deferred() -> str:
    return _deferred_joint(simon_staged_circuit(reference_two_to_one_oracle()))


@_checked("shor-deferred-joint")
def check_shor_deferred() -> str:
    return _deferred_joint(shor_staged_circuit(7, 15, a_width=4))


@_checked("constraint-solver-vs-projection")
def check_constraint_solver() -> str:
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
        _require(
            equals_up_to_global_phase(solved, projected, 1e-10),
            f"solver and projection disagree on {register}={eig}",
        )
        worst = max(worst, float(np.linalg.norm(solved.amplitudes - projected.amplitudes)))
    return f"{len(cases)} states agree; worst norm gap {worst:.3e}"


@_checked("pointer-model-consistency")
def check_pointer_model() -> str:
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
    _require(equals_up_to_global_phase(coupled, golden, 1e-12), "coupled state wrong")
    born = outcome_distribution(before, "v").as_dict()
    readout = outcome_distribution(coupled, "p").as_dict()
    keys = set(born) | set(readout)
    gap = max(abs(born.get(k, 0.0) - readout.get(k, 0.0)) for k in keys)
    return _require(gap < 1e-12, f"pointer vs Born gap {gap:.3e}")


@_checked("deutsch-original-checkpoints")
def check_deutsch_original() -> str:
    layout = RegisterLayout((("a", 1), ("v", 1)))
    goldens = {
        0: [({"a": 0, "v": 0}, RT2), ({"a": 0, "v": 1}, -RT2)],
        1: [({"a": 1, "v": 0}, RT2), ({"a": 1, "v": 1}, -RT2)],
        2: [({"a": 1, "v": 0}, -RT2), ({"a": 1, "v": 1}, RT2)],
        3: [({"a": 0, "v": 0}, -RT2), ({"a": 0, "v": 1}, RT2)],
    }
    for mode, terms in goldens.items():
        trace, result = run_deutsch("original", k=mode)
        t3 = {"t3": state_from_terms(layout, terms)}
        _require_goldens(trace, t3, f"mode {mode:02b} state wrong")
        _require(
            result.balanced == (mode in BALANCED_MODES) and trace.oracle_queries == 1,
            f"mode {mode:02b} answer wrong",
        )
    return "all four modes: printed state, answer, one oracle use"


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


@_checked("deutsch-extended-checkpoints")
def check_deutsch_extended() -> str:
    trace, result = run_deutsch("extended", rng=np.random.default_rng(5))
    _require_goldens(trace, deutsch_extended_goldens())
    _require(result.balanced == (result.mode in BALANCED_MODES), "mode/answer pair inconsistent")
    return "t1 and t3 match printed amplitudes"


@_checked("deutsch-mixture-correlation")
def check_deutsch_mixture() -> str:
    """100 mixture runs, as the CLI makes them: one circuit, the phases drawn per run."""
    rng = np.random.default_rng(3)
    circuit_of = _deutsch_circuits("mixture", None)
    for _ in range(100):
        circuit = circuit_of(rng)
        result = _deutsch_result(circuit, execute(circuit, rng))
        _require(
            result.balanced == (result.mode in BALANCED_MODES),
            f"phases {result.phases} broke the mode/answer correlation",
        )
    return "100 random-phase runs all consistent"


@_checked("grover-standard-checkpoints")
def check_grover_standard() -> str:
    layout = RegisterLayout((("a", 2), ("v", 1)))
    golden = state_from_terms(layout, [({"a": 2, "v": 0}, RT2), ({"a": 2, "v": 1}, -RT2)])
    trace, _ = run_grover2("standard", k=2)
    _require_goldens(trace, {"t3": golden}, "k=2 state wrong")
    for k in range(4):
        _, result = run_grover2("standard", k=k)
        _require(
            result.answer == k and result.confirmed and result.oracle_uses == 2,
            f"k={k} not deterministic",
        )
    return "printed k=2 state; answer deterministic for all k; two oracle uses"


def grover_extended_golden() -> StateVector:
    layout = RegisterLayout((("m", 2), ("a", 2), ("v", 1)))
    c = 1.0 / (2.0 * math.sqrt(2.0))
    terms = []
    for k in range(4):
        terms.append(({"m": k, "a": k, "v": 0}, c))
        terms.append(({"m": k, "a": k, "v": 1}, -c))
    return state_from_terms(layout, terms)


@_checked("grover-extended-checkpoints")
def check_grover_extended() -> str:
    trace, result = run_grover2("extended", rng=np.random.default_rng(9))
    _require_goldens(trace, {"t3": grover_extended_golden()}, "t3 state wrong")
    joint = joint_distribution(trace.state_at("t3"), ("m", "a"), 1e-16)
    stray = sum(p for (m, a), p in joint.items() if m != a)
    diag = [joint.get((k, k), 0.0) for k in range(4)]
    ok = stray < 1e-12 and max(abs(p - 0.25) for p in diag) < 1e-12 and result.confirmed
    return _require(ok, f"stray joint mass {stray:.3e}; diagonal uniform to 1e-12")


@_checked("shor-comb-support")
def check_shor_comb_support() -> str:
    for a, f_bar in ((7, 7), (2, 2)):
        trace, _ = run_shor_period(a, 15, force_v_outcome=f_bar)
        t3 = trace.state_at("t3")
        layout, index, amps = t3.layout, t3.index, t3.values
        support = set(_decode(layout, ("a",), index).tolist())
        comb = set(range(1, layout.register_dim("a"), 4))
        _require(support == comb, f"a={a}: support is not the step-4 comb")
        _require(np.max(np.abs(amps - amps[0])) <= 1e-12, f"a={a}: comb amplitudes not uniform")
    return "a=7 and a=2 mod 15: exact step-4 comb after collapse"


@_checked("entanglement-lifecycle")
def check_entanglement_lifecycle() -> str:
    """Simon's t2 has Schmidt rank N/2 across a | v and its t3 rank 1, read off the
    checkpoints of one run per oracle at n = 1..4, forcing the smallest value of f."""
    rng = np.random.default_rng(23)
    cut = (("a",), ("v",))
    checked = 0
    for n in range(1, 5):
        spacings = [("two_to_one_xor", r) for r in range(1, 1 << n)]
        spacings += [("two_to_one_arith", 1 << j) for j in range(n)]
        for family, r in spacings:
            oracle = build_two_to_one(n, r, rng, family=family)
            trace = run_simon(oracle, force_v_outcome=int(oracle.table.min()))
            case = f"{family} n={n} r={r}"
            _require(
                schmidt_rank(trace.state_at("t2"), cut) == (1 << n) // 2,
                f"{case}: pre-measurement rank != N/2",
            )
            _require(
                schmidt_rank(trace.state_at("t3"), cut) == 1,
                f"{case}: post-measurement state not a product",
            )
            checked += 1
    return f"{checked} oracles: rank N/2 before, rank 1 after measurement"


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
