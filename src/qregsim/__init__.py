"""Multi-register quantum state-vector simulator.

Exact dense simulation of small oracle algorithms over named qubit
registers, with first-class measurement machinery: Born-rule partial
measurement, a pointer-coupling model, an eigenspace constraint solver,
measurement-ordering equivalence checks and Schmidt-rank diagnostics.
"""

from .algorithms import (
    AlgorithmTrace,
    DeutschResult,
    GroverResult,
    LedgerRow,
    ShorResult,
    SimonResult,
    execute,
    recover_r_from_constraints,
    run_deutsch,
    run_grover2,
    run_shor_period,
    run_simon,
    shor_staged_circuit,
    simon_staged_circuit,
    solve_simon,
    speedup_ledger,
)
from .errors import (
    DegenerateStateError,
    LayoutMismatchError,
    NoCollisionError,
    OracleConstructionError,
    PreconditionError,
    RangeError,
    RegisterError,
)
from .gates import (
    GateSpec,
    apply_function_add,
    apply_function_xor,
    apply_function_xor_controlled,
    apply_phase_oracle,
    grover_diffusion,
    hadamard,
    qft,
)
from .hilbert import (
    DEFAULT_WIDTH_CAP,
    RegisterLayout,
    StateVector,
    equals_up_to_global_phase,
    inner_product,
    make_basis_state,
    normalize,
    state_from_records,
    state_from_terms,
)
from .measurement import (
    MeasurementPoint,
    MeasurementRecord,
    OutcomeDistribution,
    ProjectorSpec,
    StagedCircuit,
    deferred_equivalence_check,
    measure,
    measure_forced,
    outcome_distribution,
    project,
    schmidt_rank,
    solve_measurement_constraints,
    von_neumann_premeasurement,
)
from .oracles import (
    CollisionSolution,
    CountingOracle,
    FunctionOracle,
    build_modexp,
    build_two_to_one,
    classical_collision_solve,
    deutsch_family,
    kronecker_family,
    oracle_from_json,
    oracle_to_json,
)

__version__ = "0.1.0"
