"""One circuit description per algorithm, run by one executor."""

import numpy as np
import pytest

from qregsim import (
    GateSpec,
    MeasurementPoint,
    RegisterError,
    RegisterLayout,
    StagedCircuit,
    build_two_to_one,
    deferred_equivalence_check,
    execute,
    hadamard,
    make_basis_state,
    run_shor_period,
    run_simon,
    shor_staged_circuit,
    simon_staged_circuit,
)
from qregsim.algorithms import deutsch_extended_staged_circuit
from qregsim.gates import apply_phases
from qregsim.measurement import joint_distribution


def small_oracle():
    return build_two_to_one(3, 5, np.random.default_rng(4))


def pair_circuit(steps):
    layout = RegisterLayout((("a", 1), ("v", 1)))
    return StagedCircuit(make_basis_state(layout, {}), steps, "v", ("a",))


class TestExecute:
    def test_checkpoint_after_last_step_of_each_label(self):
        circuit = pair_circuit(
            [
                ("t1", GateSpec("hadamard", ("a",))),
                ("t1", GateSpec("hadamard", ("v",))),
                (None, GateSpec("hadamard", ("v",))),
                ("t2", MeasurementPoint("a")),
            ]
        )
        trace = execute(circuit, np.random.default_rng(1))
        assert trace.labels == ["t0", "t1", "t2"]
        assert trace.state_at("t1").records()[-1]["label"] == {"a": 1, "v": 1}
        assert [rec.register for rec in trace.measurements] == ["a"]
        assert trace.state_at("t2") is trace.measurements[0].post_state

    def test_oracle_uses_are_counted_per_oracle_gate(self):
        oracle = build_two_to_one(1, 1, (0,))
        circuit = pair_circuit(
            [
                ("t1", GateSpec("hadamard", ("a",))),
                ("t2", GateSpec("function-xor", ("a", "v"), oracle=oracle)),
                ("t3", GateSpec("function-xor", ("a", "v"), oracle=oracle)),
            ]
        )
        assert execute(circuit, None).oracle_queries == 2

    def test_forced_measurement_point(self):
        circuit = pair_circuit(
            [("t1", GateSpec("hadamard", ("a",))), ("t2", MeasurementPoint("a", outcome=1))]
        )
        record = execute(circuit, None).measurements[0]
        assert (record.outcome, record.probability) == (1, pytest.approx(0.5))

    def test_metadata_is_copied_per_run(self):
        circuit = simon_staged_circuit(small_oracle())
        trace = execute(circuit, None)
        trace.metadata["extra"] = 1
        assert "extra" not in circuit.metadata

    def test_no_rng_means_default_generator_zero(self):
        circuit = simon_staged_circuit(small_oracle())
        a = execute(circuit, None)
        b = execute(circuit, np.random.default_rng(0))
        assert [r.outcome for r in a.measurements] == [r.outcome for r in b.measurements]


class TestRunnersExecuteTheirCircuit:
    def test_simon(self):
        oracle = small_oracle()
        direct = run_simon(oracle, np.random.default_rng(3))
        via = execute(simon_staged_circuit(oracle), np.random.default_rng(3))
        assert direct.labels == via.labels == ["t0", "t1", "t2", "t3", "t4", "t5"]
        assert direct.to_json() == via.to_json()

    def test_simon_without_value_measurement(self):
        trace = run_simon(small_oracle(), measure_v_at_t3=False)
        assert trace.labels == ["t0", "t1", "t2", "t4", "t5"]
        assert [rec.register for rec in trace.measurements] == ["a"]

    def test_shor(self):
        trace, result = run_shor_period(7, 15, np.random.default_rng(2), a_width=6)
        via = execute(shor_staged_circuit(7, 15, a_width=6), np.random.default_rng(2))
        assert trace.to_json() == via.to_json()
        assert result.measured_z == via.measurements[-1].outcome


class TestDeferredCheckOnRunnerCircuits:
    def test_measurement_points_do_not_change_the_check(self):
        oracle = small_oracle()
        with_point = deferred_equivalence_check(simon_staged_circuit(oracle), "t2", "t4")
        without = deferred_equivalence_check(
            simon_staged_circuit(oracle, measure_v_at_t3=False), "t2", "t4"
        )
        assert with_point == without
        assert with_point["max_abs_diff"] < 1e-12

    def test_deutsch_extended_circuit_measures_mode_then_answer(self):
        circuit = deutsch_extended_staged_circuit()
        points = [step.register for _, step in circuit.steps if isinstance(step, MeasurementPoint)]
        assert points == ["m", "a"]
        trace = execute(circuit, np.random.default_rng(5))
        assert trace.labels == ["t0", "t1", "t2", "t3"]
        assert trace.oracle_queries == 1


class TestPhaseGate:
    def test_phases_multiply_branches(self):
        layout = RegisterLayout((("m", 1), ("a", 1)))
        state = make_basis_state(layout, {"m": 1})
        out = apply_phases(state, "m", (0.0, np.pi / 2))
        assert out.amplitude({"m": 1}) == pytest.approx(1j)

    def test_phase_count_must_match_register(self):
        layout = RegisterLayout((("m", 2),))
        with pytest.raises(RegisterError):
            apply_phases(make_basis_state(layout, {}), "m", (0.0, 1.0))

    def test_round_trip(self):
        spec = GateSpec("phase", ("m",), phases=[0.0, 0.5, 1.0, 1.5])
        assert GateSpec.from_dict(spec.to_dict()) == spec
        assert not spec.uses_oracle


def test_joint_distribution_sums_over_other_registers():
    layout = RegisterLayout((("a", 1), ("v", 1)))
    state = hadamard(hadamard(make_basis_state(layout, {}), "a"), "v")
    assert joint_distribution(state, ("a",), 1e-14) == {
        (0,): pytest.approx(0.5),
        (1,): pytest.approx(0.5),
    }
