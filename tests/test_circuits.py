"""One circuit description per algorithm, run by one executor."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from qregsim import (
    DegenerateStateError,
    GateSpec,
    MeasurementPoint,
    PreconditionError,
    RangeError,
    RegisterError,
    RegisterLayout,
    StagedCircuit,
    StateVector,
    build_modexp,
    build_two_to_one,
    deferred_equivalence_check,
    deutsch_family,
    execute,
    hadamard,
    kronecker_family,
    make_basis_state,
    run_shor_period,
    run_simon,
    shor_staged_circuit,
    simon_staged_circuit,
)
import qregsim
from qregsim.algorithms import deutsch_extended_staged_circuit
from qregsim.algorithms.deutsch import _game_circuit, _phased
from qregsim.gates import apply_phases
from qregsim.hilbert import _sparse_view
from qregsim.measurement import joint_distribution, measure_forced


def small_oracle():
    return build_two_to_one(3, 5, np.random.default_rng(4))


def dense(state):
    """A copy of the state stored as its dense array."""
    return StateVector(state.layout, state.amplitudes)


def pair_circuit(steps):
    layout = RegisterLayout((("a", 1), ("v", 1)))
    return StagedCircuit(make_basis_state(layout, {}), steps, "v", ("a",))


class TestExecute:
    def test_a_dense_initial_state_is_left_as_it_was_built(self):
        circuit = pair_circuit(
            [("t1", GateSpec("hadamard", ("a",))), ("t2", MeasurementPoint("a"))]
        )
        trace = execute(circuit, np.random.default_rng(3))
        assert not circuit.initial._sparse and trace.state_at("t0")._sparse
        assert "index" not in vars(circuit.initial) and "values" not in vars(circuit.initial)
        assert trace.state_at("t0").amplitudes.tobytes() == circuit.initial.amplitudes.tobytes()

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
        record = trace.measurements[0]
        # the unlabelled Hadamard on v runs between t1 and the measurement
        before = hadamard(trace.state_at("t1"), "v")
        collapsed = measure_forced(before, "a", record.outcome).post_state
        assert np.array_equal(trace.state_at("t2").amplitudes, collapsed.amplitudes)

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

    def test_an_unknown_label_raises_the_key_error_naming_it(self):
        trace = execute(simon_staged_circuit(small_oracle()), None)
        with pytest.raises(KeyError) as exc:
            trace.state_at("t9")
        assert exc.value.args == ("no checkpoint labeled 't9'",)

    def test_labels_follow_checkpoint_order_on_a_path_of_measurements(self):
        # three measurements; the node after the unlabelled one records no checkpoint
        # of its own until t4, so its labels follow the t3 of the node before
        circuit = pair_circuit(
            [
                ("t1", GateSpec("hadamard", ("a",))),
                ("t2", MeasurementPoint("a")),
                ("t3", GateSpec("hadamard", ("v",))),
                (None, MeasurementPoint("v")),
                (None, GateSpec("hadamard", ("a",))),
                ("t4", GateSpec("hadamard", ("v",))),
                ("t5", MeasurementPoint("a")),
            ]
        )
        for seed in range(4):
            trace = execute(circuit, np.random.default_rng(seed))
            assert len(trace.measurements) == 3
            assert trace.labels == ["t0", "t1", "t2", "t3", "t4", "t5"]
            assert [label for label, _ in trace.checkpoints] == trace.labels
            assert [cp["label"] for cp in trace.to_json()["checkpoints"]] == trace.labels
        late = pair_circuit(
            [
                ("t3", GateSpec("hadamard", ("a",))),
                (None, MeasurementPoint("a", outcome=1)),
                (None, GateSpec("hadamard", ("v",))),
                (None, MeasurementPoint("v", outcome=0)),
                ("t2", GateSpec("hadamard", ("a",))),
            ]
        )
        with pytest.raises(ValueError, match="label 't2' does not follow 't3'"):
            execute(late, None)

    def test_labels_follow_by_the_number_they_end_in(self):
        # compared as text, t10 would come before t9
        labels = [f"t{i}" for i in range(1, 12)]
        circuit = pair_circuit([(label, GateSpec("hadamard", ("a",))) for label in labels])
        trace = execute(circuit, None)
        assert trace.labels == ["t0", *labels]
        # eleven Hadamards on a act as one
        assert np.allclose(trace.state_at("t11").amplitudes, trace.state_at("t1").amplitudes)

    def test_a_label_with_a_smaller_number_does_not_follow(self):
        circuit = pair_circuit(
            [("t10", GateSpec("hadamard", ("a",))), ("t2", GateSpec("hadamard", ("v",)))]
        )
        with pytest.raises(ValueError, match="label 't2' does not follow 't10'"):
            execute(circuit, None)

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


def transcribed_staged_circuit(finish, layout, oracle, measure_v, force_v_outcome, metadata):
    """The query-then-interfere circuit as Simon's and period finding's builders each
    wrote it out before they shared one: H on a, the oracle added into v, the optional
    measurement of v, the finishing gate on a, the measurement of a."""
    steps = [
        ("t1", GateSpec("hadamard", ("a",))),
        ("t2", GateSpec("function-add", ("a", "v"), oracle=oracle)),
    ]
    if measure_v:
        steps.append(("t3", MeasurementPoint("v", force_v_outcome)))
    steps += [("t4", GateSpec(finish, ("a",))), ("t5", MeasurementPoint("a"))]
    initial = make_basis_state(layout, {"a": 0, "v": 0})
    return StagedCircuit(initial, steps, "v", ("a",), metadata)


def transcribed_simon(oracle, measure_v, force_v_outcome):
    n, r = oracle.domain_width, oracle.params["r"]
    metadata = {
        "algorithm": "simon",
        "family": oracle.family,
        "n": n,
        "r": r,
        "xor_mask": r,
        "measure_v_at_t3": measure_v,
    }
    layout = RegisterLayout((("a", n), ("v", n)))
    return transcribed_staged_circuit(
        "hadamard", layout, oracle, measure_v, force_v_outcome, metadata
    )


def transcribed_shor(a, modulus, a_width, rule, measure_v, force_v_outcome):
    value_width = max(1, (modulus - 1).bit_length())
    layout = RegisterLayout((("a", a_width), ("v", value_width)))
    metadata = {
        "algorithm": "shor_period",
        "a": a,
        "L": modulus,
        "a_width": a_width,
        "v_width": value_width,
        "register_rule": rule,
    }
    oracle = build_modexp(a, modulus, a_width)
    return transcribed_staged_circuit("qft", layout, oracle, measure_v, force_v_outcome, metadata)


def assert_same_circuit(circuit, expected):
    assert [label for label, _ in circuit.steps] == [label for label, _ in expected.steps]
    assert circuit.steps == expected.steps
    assert type(circuit.metadata) is dict
    assert list(circuit.metadata.items()) == list(expected.metadata.items())
    assert circuit.deferred_register == expected.deferred_register
    assert circuit.final_registers == expected.final_registers
    assert circuit.initial.layout.registers == expected.initial.layout.registers
    assert np.array_equal(circuit.initial.amplitudes, expected.initial.amplitudes)


class TestSharedQueryCircuit:
    """Simon's and period finding's circuits come from one builder; each must give the
    steps, metadata and registers that its own builder gave."""

    @pytest.mark.parametrize("measure_v", [True, False])
    @pytest.mark.parametrize("family", ["two_to_one_xor", "two_to_one_arith"])
    def test_simon(self, family, measure_v):
        oracle = build_two_to_one(3, 2, np.random.default_rng(6), family=family)
        for force in (None, 5):
            circuit = simon_staged_circuit(
                oracle, measure_v_at_t3=measure_v, force_v_outcome=force
            )
            assert_same_circuit(circuit, transcribed_simon(oracle, measure_v, force))

    @pytest.mark.parametrize("measure_v", [True, False])
    def test_shor(self, measure_v):
        cases = [((7, 15, None), 8, "L_squared"), ((7, 15, 5), 5, "explicit")]
        cases.append(((2, 511, None), 10, "2L"))
        for (a, modulus, a_width), width, rule in cases:
            for force in (None, 4):
                circuit = shor_staged_circuit(
                    a, modulus, a_width, measure_v=measure_v, force_v_outcome=force
                )
                expected = transcribed_shor(a, modulus, width, rule, measure_v, force)
                assert_same_circuit(circuit, expected)

    def test_shor_refuses_an_over_wide_argument_before_building_a_table(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            qregsim.algorithms.shor, "build_modexp", lambda *args: built.append(args)
        )
        with pytest.raises(RegisterError, match="exceeds cap"):
            shor_staged_circuit(7, 15, a_width=21)
        assert built == []


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
        spec = GateSpec("phase", ("m",), phases=[0.0, np.pi / 2])
        assert np.array_equal(spec.apply(state).amplitudes, out.amplitudes)
        assert not spec.uses_oracle

    def test_phase_count_must_match_register(self):
        layout = RegisterLayout((("m", 2),))
        with pytest.raises(RegisterError):
            apply_phases(make_basis_state(layout, {}), "m", (0.0, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_phases_are_refused(self, bad):
        # on a support, a factor that is not finite would reach only the live amplitudes
        state = make_basis_state(RegisterLayout((("m", 1),)), {})
        for form in (state, _sparse_view(state)):
            with pytest.raises(RangeError):
                GateSpec("phase", ("m",), phases=(0.0, bad)).apply(form)


def test_joint_distribution_sums_over_other_registers():
    layout = RegisterLayout((("a", 1), ("v", 1)))
    state = hadamard(hadamard(make_basis_state(layout, {}), "a"), "v")
    assert joint_distribution(state, ("a",), 1e-14) == {
        (0,): pytest.approx(0.5),
        (1,): pytest.approx(0.5),
    }


def step_by_hand(circuit, outcomes):
    """(label, state) at every checkpoint of circuit, stepped without the executor:
    measurement points are forced onto the given outcomes, in order."""
    outcomes = iter(outcomes)
    state = dense(circuit.initial)
    states = [("t0", state)]
    for i, (label, step) in enumerate(circuit.steps):
        if isinstance(step, MeasurementPoint):
            state = dense(measure_forced(state, step.register, next(outcomes)).post_state)
        else:
            state = step.apply(state)
        following = circuit.steps[i + 1][0] if i + 1 < len(circuit.steps) else None
        if label is not None and label != following:
            states.append((label, state))
    return states


SEEDED_CIRCUITS = {
    "simon": lambda: simon_staged_circuit(small_oracle()),
    "simon-no-v": lambda: simon_staged_circuit(small_oracle(), measure_v_at_t3=False),
    "shor": lambda: shor_staged_circuit(7, 15, a_width=6),
    "shor-no-v": lambda: shor_staged_circuit(7, 15, a_width=6, measure_v=False),
    "deutsch-original": lambda: _game_circuit(deutsch_family()[2], "hadamard", {}),
    "deutsch-extended": deutsch_extended_staged_circuit,
    "deutsch-mixture": lambda: _phased(
        _game_circuit(deutsch_family(), "hadamard", {}), (0.3, 1.1, 2.9)
    ),
    "grover2-standard": lambda: _game_circuit(kronecker_family(2)[1], "diffusion", {}),
    "grover2-extended": lambda: _game_circuit(kronecker_family(2), "diffusion", {}),
}


class TestTraceSupport:
    """A trace keeps each checkpoint stored as its support and returns those states,
    exactly equal to the stepped states."""

    @pytest.fixture(params=sorted(SEEDED_CIRCUITS), scope="class")
    def run(self, request):
        circuit = SEEDED_CIRCUITS[request.param]()
        trace = execute(circuit, np.random.default_rng(11))
        return trace, step_by_hand(circuit, [rec.outcome for rec in trace.measurements])

    def test_rebuilt_states_equal_the_stepped_states(self, run):
        trace, expected = run
        assert trace.labels == [label for label, _ in expected]
        for label, state in expected:
            assert np.array_equal(trace.state_at(label).amplitudes, state.amplitudes)
        for (label, rebuilt), (want, state) in zip(trace.checkpoints, expected):
            assert label == want
            assert np.array_equal(rebuilt.amplitudes, state.amplitudes)

    def test_state_at_and_checkpoints_return_the_trace_own_states(self, run):
        trace, _ = run
        for label, state in trace.checkpoints:
            assert trace.state_at(label) is state is trace.state_at(label)
            assert state._sparse

    def test_rebuilds_are_fresh_and_read_only(self, run):
        trace, _ = run
        for label in trace.labels:
            first, second = trace.state_at(label), trace.state_at(label)
            from_list = dict(trace.checkpoints)[label]
            for state in (first, second, from_list):
                assert type(state.amplitudes) is np.ndarray
                assert state.amplitudes.dtype == np.complex128
                assert not state.amplitudes.flags.writeable
            assert not np.shares_memory(first.amplitudes, second.amplitudes)
            assert not np.shares_memory(first.amplitudes, from_list.amplitudes)

    def test_a_dense_read_of_a_checkpoint_is_not_kept_on_the_trace(self):
        # state_at and checkpoints return the trace's states, in O(1); a dense array read
        # off one is built for that read, so the tree keeps no dense array
        oracle = build_two_to_one(10, 5, np.random.default_rng(0))
        trace = run_simon(oracle, measure_v_at_t3=False)
        state_bytes = 16 * trace.state_at("t2").layout.dim
        tracemalloc.start()
        try:
            first, second = trace.state_at("t2"), trace.state_at("t2")
            listed = trace.checkpoints
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * state_bytes
        assert first.index is second.index
        del first, second, listed
        tracemalloc.start()
        try:
            # nothing is traced before the read, so what is left after it is what it kept
            assert trace.state_at("t2").amplitudes.nbytes == state_bytes
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert left == 0

    def test_json_dumps_equal_the_dense_records(self, run):
        trace, expected = run
        dumps = [checkpoint["state"] for checkpoint in trace.to_json()["checkpoints"]]
        assert dumps == [state.records() for _, state in expected]

    def test_tiny_and_signed_amplitudes_survive(self):
        layout = RegisterLayout((("a", 3),))
        amps = np.array([0.0, 1e-300, 5e-324j, -0.0, 0.6, -1e-20, -0.0j, 0.8j])
        # a circuit with no steps records its initial state, as t0
        trace = execute(StagedCircuit(StateVector(layout, amps), (), "a", ()), None)
        assert np.array_equal(trace.state_at("t0").amplitudes, amps)
        assert trace.to_json()["checkpoints"][0]["state"] == StateVector(layout, amps).records()

    def test_a_branch_of_many_amplitudes_is_the_forced_collapse_bit_for_bit(self):
        # measure_forced is a one-step run of the outcome tree, so a branch and the forced
        # collapse divide by the same norm of the same kept amplitudes
        layout = RegisterLayout((("a", 10), ("v", 4)))
        rng = np.random.default_rng(3)
        amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        state = StateVector(layout, amps / np.linalg.norm(amps))
        steps = (("t1", GateSpec("hadamard", ("a",))), ("t2", MeasurementPoint("v", 5)))
        trace = execute(StagedCircuit(state, steps, "v", ("a",)), None)
        branch = trace.state_at("t2").amplitudes
        forced = measure_forced(trace.state_at("t1"), "v", 5).post_state.amplitudes
        assert np.flatnonzero(forced).size == 1024
        assert np.array_equal(branch, forced)

    def test_records_carry_no_post_state(self, run):
        trace, _ = run
        assert trace.measurements
        assert all(record.post_state is None for record in trace.measurements)


def forked_rss_growth(run):
    """The growth of ru_maxrss, in bytes, while a fork of a fresh child process runs the
    statement run, which must bind the run's 24-qubit trace to the name trace.

    A process exec'd from this one starts with this one's ru_maxrss as its own; a process
    it forks starts afresh, so the run happens in a fork of the child."""
    code = (
        "import os, resource, sys, numpy as np\n"
        "from qregsim import build_two_to_one, run_shor_period, run_simon\n"
        "pid = os.fork()\n"
        "if pid:\n"
        "    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        f"{run}\n"
        "assert trace.state_at('t0').layout.total_width == 24\n"
        "print(before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = os.path.dirname(os.path.dirname(qregsim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    before, after = map(int, done.stdout.split())
    # ru_maxrss is in KiB on Linux
    return (after - before) * 1024


class TestWidthCapMemory:
    """At the width cap, a run allocates no dense array of the whole state: every step,
    the oracle step too, runs on the state's support, and the trace keeps supports only.
    The period-finding test in a child process keeps the earlier, looser bound of three
    dense states."""

    def test_new_branches_at_20_qubits_allocate_no_dense_state(self):
        circuit = simon_staged_circuit(build_two_to_one(10, 5, np.random.default_rng(0)))
        first = execute(circuit, np.random.default_rng(0)).measurements[0].outcome
        tracemalloc.start()
        try:
            outcomes = [
                execute(circuit, np.random.default_rng(seed)).measurements[0].outcome
                for seed in range(1, 11)
            ]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 512 v outcomes: the ten runs reach new branches
        assert len(set(outcomes) - {first}) >= 9
        assert peak <= 0.05 * 16 * circuit.initial.layout.dim

    def test_period_finding_at_24_qubits_in_a_child_process(self):
        # a process exec'd from this one starts with this one's ru_maxrss as its own;
        # a process it forks starts afresh, so the run happens in a fork of the child
        code = (
            "import os, resource, sys, numpy as np\n"
            "from qregsim import run_shor_period\n"
            "pid = os.fork()\n"
            "if pid:\n"
            "    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "trace, _ = run_shor_period(2, 255, np.random.default_rng(1))\n"
            "assert trace.state_at('t0').layout.total_width == 24\n"
            "print(before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        src = os.path.dirname(os.path.dirname(qregsim.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        before, after = map(int, done.stdout.split())
        # ru_maxrss is in KiB on Linux
        assert (after - before) * 1024 <= 3 * 16 * (1 << 24), (before, after)

    def test_a_fresh_execute_at_20_qubits_allocates_no_dense_state(self):
        circuit = simon_staged_circuit(build_two_to_one(10, 5, np.random.default_rng(0)))
        tracemalloc.start()
        try:
            execute(circuit, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * 16 * circuit.initial.layout.dim

    @pytest.mark.parametrize(
        "run",
        [
            "trace, _ = run_shor_period(2, 255, np.random.default_rng(1))",
            "trace = run_simon(build_two_to_one(12, 5, np.random.default_rng(0)), "
            "np.random.default_rng(1))",
        ],
        ids=["period-finding", "simon"],
    )
    def test_runs_at_24_qubits_grow_rss_by_a_small_fraction_of_the_state(self, run):
        assert forked_rss_growth(run) <= 0.25 * 16 * (1 << 24)

    @pytest.mark.parametrize(
        "make, bound",
        [
            (lambda: simon_staged_circuit(build_two_to_one(12, 5, np.random.default_rng(0))),
             0.01),
            # the t1 and t2 checkpoints each keep 2^16 entries (1.5 MB) on the tree, and
            # the QFT maps a 2^16-amplitude box: 2.0% of the state when measured
            (lambda: shor_staged_circuit(2, 255), 0.03),
        ],
        ids=["simon", "period-finding"],
    )
    def test_building_and_running_at_24_qubits_allocates_no_dense_state(self, make, bound):
        tracemalloc.start()
        try:
            circuit = make()
            execute(circuit, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert circuit.initial.layout.total_width == 24
        assert peak <= bound * 16 * (1 << 24)


@pytest.mark.parametrize("name", sorted(SEEDED_CIRCUITS))
def test_shipped_circuits_start_on_their_support(name):
    circuit = SEEDED_CIRCUITS[name]()
    layout = circuit.initial.layout
    if name.startswith(("simon", "shor")):
        size, dense = 1, make_basis_state(layout, {})
    else:
        # v in (|0> - |1>)/sqrt(2), as the game circuits were built on a dense state
        size, dense = 2, hadamard(make_basis_state(layout, {"v": 1}), "v")
    assert circuit.initial._sparse
    assert circuit.initial.index.size == size
    # bit for bit the support that a run used to take of the dense initial state
    assert circuit.initial.index.tobytes() == dense.index.tobytes()
    assert circuit.initial.values.tobytes() == dense.values.tobytes()


def trace_bytes(trace):
    """Everything a trace holds, as bytes: its JSON text, then the raw index and
    amplitude arrays of every checkpoint's support."""
    text = json.dumps(trace.to_json(), sort_keys=True).encode()
    return text + b"".join(s.index.tobytes() + s.values.tobytes() for _, s in trace.checkpoints)


def records_by_hand(circuit, outcomes):
    """The measurement records of one run of circuit, stepped without the executor:
    each measurement point is forced onto the given outcomes, in order."""
    outcomes, state, records = iter(outcomes), dense(circuit.initial), []
    for _, step in circuit.steps:
        if isinstance(step, MeasurementPoint):
            record = measure_forced(state, step.register, next(outcomes))
            state = dense(record.post_state)
            records.append(record.to_json())
        else:
            state = step.apply(state)
    return records


REUSED_CIRCUITS = {
    "simon": lambda: simon_staged_circuit(small_oracle()),
    "simon-forced-v": lambda: simon_staged_circuit(
        small_oracle(), force_v_outcome=small_oracle().value(0)
    ),
    "simon-no-v": lambda: simon_staged_circuit(small_oracle(), measure_v_at_t3=False),
    "shor": lambda: shor_staged_circuit(7, 15, a_width=6),
    # period 6 does not divide 2^6, so the peaks of z have unequal probabilities
    "shor-uneven-peaks": lambda: shor_staged_circuit(2, 21, a_width=6),
    "deutsch-extended": deutsch_extended_staged_circuit,
    "grover2-extended": lambda: _game_circuit(kronecker_family(2), "diffusion", {}),
}


class TestOutcomeTree:
    """Runs of one circuit object are paths through one outcome tree, built as runs
    reach it: each run is what a run of a fresh copy of the circuit would be."""

    @pytest.mark.parametrize("name", sorted(REUSED_CIRCUITS))
    def test_one_circuit_under_many_seeds_runs_as_fresh_copies(self, name):
        circuit = REUSED_CIRCUITS[name]()
        for seed in range(12):
            rng, fresh_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            trace = execute(circuit, rng)
            fresh = execute(dataclasses.replace(circuit), fresh_rng)
            assert trace_bytes(trace) == trace_bytes(fresh)
            assert rng.bit_generator.state == fresh_rng.bit_generator.state
            outcomes = [rec.outcome for rec in trace.measurements]
            expected = step_by_hand(circuit, outcomes)
            assert trace.labels == [label for label, _ in expected]
            for label, state in expected:
                assert np.array_equal(trace.state_at(label).amplitudes, state.amplitudes)
            assert [rec.to_json() for rec in trace.measurements] == records_by_hand(
                circuit, outcomes
            )

    def test_repeated_runs_simulate_the_preparation_once_and_each_branch_once(
        self, monkeypatch
    ):
        circuit = simon_staged_circuit(build_two_to_one(4, 3, range(8)))
        t1, t2, t4 = (step for _, step in circuit.steps if isinstance(step, GateSpec))
        applied = Counter()
        apply = GateSpec.apply

        def counted(self, state):
            applied[id(self)] += 1
            return apply(self, state)

        monkeypatch.setattr(GateSpec, "apply", counted)
        v_outcomes = set()
        for seed in np.random.SeedSequence(101).spawn(2000):
            trace = execute(circuit, np.random.default_rng(seed))
            v_outcomes.add(trace.measurements[0].outcome)
        assert applied[id(t1)] == 1
        assert applied[id(t2)] == 1
        assert len(v_outcomes) == 8
        assert applied[id(t4)] <= len(v_outcomes)

    def test_shared_supports_are_read_only(self):
        circuit = simon_staged_circuit(small_oracle())
        first = execute(circuit, np.random.default_rng(3))
        expected = trace_bytes(execute(dataclasses.replace(circuit), np.random.default_rng(3)))
        for _, state in first.checkpoints:
            for array in (state.index, state.values):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0
        assert trace_bytes(execute(circuit, np.random.default_rng(3))) == expected


def failures(circuit, rngs, monkeypatch):
    """(error type, message, gates applied) of a run of the circuit under each rng;
    every run must raise."""
    applied = []
    apply = GateSpec.apply

    def counted(self, state):
        applied.append(self)
        return apply(self, state)

    monkeypatch.setattr(GateSpec, "apply", counted)
    seen = []
    for rng in rngs:
        applied.clear()
        with pytest.raises(Exception) as exc:
            execute(circuit, rng)
        seen.append((type(exc.value), str(exc.value), len(applied)))
    return seen


class TestRunErrorsRepeat:
    """A run that raises leaves nothing in the tree for its path, so every run of the
    circuit that takes that path raises the same error at the same step."""

    def assert_repeats(self, circuit, error, message, gates, monkeypatch):
        fresh = failures(dataclasses.replace(circuit), [None], monkeypatch)
        again = failures(circuit, [None, None, None], monkeypatch)
        assert fresh == again[:1] == again[1:2] == again[2:] == [(error, message, gates)]

    def test_forced_outcome_of_zero_probability(self, monkeypatch):
        circuit = pair_circuit(
            [("t1", GateSpec("hadamard", ("a",))), ("t2", MeasurementPoint("v", outcome=1))]
        )
        message = "outcome 1 of register 'v' has zero probability"
        self.assert_repeats(circuit, DegenerateStateError, message, 1, monkeypatch)
        assert circuit._tree is None

    def test_forced_outcome_outside_the_register(self, monkeypatch):
        circuit = pair_circuit(
            [("t1", GateSpec("hadamard", ("a",))), ("t2", MeasurementPoint("v", outcome=99))]
        )
        message = "outcome 99 outside register 'v' range"
        self.assert_repeats(circuit, RangeError, message, 1, monkeypatch)
        assert circuit._tree is None

    def test_unnormalized_state_is_refused_before_the_forced_outcome(self, monkeypatch):
        layout = RegisterLayout((("a", 1), ("v", 1)))
        circuit = StagedCircuit(
            StateVector(layout, [3.0, 0.0, 4.0, 0.0]),
            [("t1", GateSpec("hadamard", ("a",))), ("t2", MeasurementPoint("v", outcome=1))],
            "v",
            ("a",),
        )
        # the error measure_forced raises on the state that the run measures
        with pytest.raises(PreconditionError) as direct:
            measure_forced(hadamard(circuit.initial, "a"), "v", 1)
        message = str(direct.value)
        assert message.startswith("state is not normalized: outcomes of 'v' sum to 24.99")
        self.assert_repeats(circuit, PreconditionError, message, 1, monkeypatch)
        assert circuit._tree is None

    def test_checkpoint_label_out_of_order(self, monkeypatch):
        circuit = pair_circuit(
            [("t2", GateSpec("hadamard", ("a",))), ("t1", GateSpec("hadamard", ("v",)))]
        )
        message = "checkpoint label 't1' does not follow 't2'"
        self.assert_repeats(circuit, ValueError, message, 2, monkeypatch)
        assert circuit._tree is None

    def test_label_out_of_order_after_a_measurement(self, monkeypatch):
        circuit = pair_circuit(
            [
                ("t1", GateSpec("hadamard", ("a",))),
                ("t3", MeasurementPoint("a", outcome=1)),
                ("t2", GateSpec("hadamard", ("v",))),
            ]
        )
        message = "checkpoint label 't2' does not follow 't3'"
        # the first run builds and keeps the root (t0, t1); its child raises on each run
        fresh = failures(dataclasses.replace(circuit), [None], monkeypatch)
        assert fresh == [(ValueError, message, 2)]
        assert failures(circuit, [None, None, None], monkeypatch) == [
            (ValueError, message, 2),
            (ValueError, message, 1),
            (ValueError, message, 1),
        ]
        assert circuit._tree.children == {}

    def test_label_after_a_measurement_out_of_order_with_the_one_before(self, monkeypatch):
        circuit = pair_circuit(
            [("t2", GateSpec("hadamard", ("a",))), ("t1", MeasurementPoint("a", outcome=1))]
        )
        message = "checkpoint label 't1' does not follow 't2'"
        fresh = failures(dataclasses.replace(circuit), [None], monkeypatch)
        assert fresh == [(ValueError, message, 1)]
        assert failures(circuit, [None, None], monkeypatch) == [
            (ValueError, message, 1),
            (ValueError, message, 0),
        ]
        assert circuit._tree.children == {}

    def test_only_the_failing_branch_is_left_out(self):
        # after a is measured, forcing a = 0 is impossible on the a = 1 branch
        circuit = pair_circuit(
            [
                ("t1", GateSpec("hadamard", ("a",))),
                ("t2", MeasurementPoint("a")),
                ("t3", GateSpec("hadamard", ("v",))),
                ("t4", MeasurementPoint("a", outcome=0)),
            ]
        )
        message = "outcome 0 of register 'a' has zero probability"
        picks = {}
        for seed in range(20):
            rng, fresh_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            try:
                fresh = execute(dataclasses.replace(circuit), fresh_rng)
            except DegenerateStateError as exc:
                assert str(exc) == message
                with pytest.raises(DegenerateStateError) as again:
                    execute(circuit, rng)
                assert str(again.value) == message
                picks[seed] = 1
            else:
                assert trace_bytes(execute(circuit, rng)) == trace_bytes(fresh)
                picks[seed] = 0
            assert rng.bit_generator.state == fresh_rng.bit_generator.state
        assert set(picks.values()) == {0, 1}
        assert list(circuit._tree.children) == [0]
