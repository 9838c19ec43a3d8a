"""End-to-end algorithm runners, trace types and the query-count ledger."""

from .deutsch import (
    BALANCED_MODES,
    DeutschResult,
    deutsch_extended_staged_circuit,
    parse_mode,
    run_deutsch,
)
from .grover import GroverResult, run_grover2
from .ledger import (
    LedgerRow,
    classical_deutsch_queries,
    classical_grover_queries,
    ledger_to_csv,
    ledger_to_json,
    speedup_ledger,
)
from .shor import (
    ShorResult,
    choose_argument_width,
    convergents_of,
    extract_period,
    run_shor_period,
    shor_staged_circuit,
)
from .simon import (
    SimonResult,
    measured_constraint,
    recover_r_from_constraints,
    run_simon,
    simon_staged_circuit,
    solve_simon,
)
from .trace import AlgorithmTrace, execute

__all__ = [
    "AlgorithmTrace",
    "BALANCED_MODES",
    "DeutschResult",
    "GroverResult",
    "LedgerRow",
    "ShorResult",
    "SimonResult",
    "choose_argument_width",
    "classical_deutsch_queries",
    "classical_grover_queries",
    "convergents_of",
    "deutsch_extended_staged_circuit",
    "execute",
    "extract_period",
    "ledger_to_csv",
    "ledger_to_json",
    "measured_constraint",
    "parse_mode",
    "recover_r_from_constraints",
    "run_deutsch",
    "run_grover2",
    "run_shor_period",
    "run_simon",
    "shor_staged_circuit",
    "simon_staged_circuit",
    "solve_simon",
    "speedup_ledger",
]
