import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qregsim import (
    DegenerateStateError,
    GateSpec,
    PreconditionError,
    ProjectorSpec,
    RegisterError,
    RegisterLayout,
    StagedCircuit,
    StateVector,
    build_modexp,
    build_two_to_one,
    deferred_equivalence_check,
    hadamard,
    make_basis_state,
    measure,
    measure_forced,
    normalize,
    outcome_distribution,
    project,
    schmidt_rank,
    solve_measurement_constraints,
    state_from_terms,
    von_neumann_premeasurement,
)
from qregsim.measurement import joint_distribution
from qregsim.measurement import PROBABILITY_FLOOR

RT2 = 1.0 / math.sqrt(2.0)


def value_at(layout, index, name):
    """The value of register name at basis index index."""
    return layout.label_of(index)[name]


def pair_layout():
    return RegisterLayout((("a", 2), ("v", 2)))


def entangled_pair_state():
    return state_from_terms(pair_layout(), [({"a": x, "v": x % 2}, 0.5) for x in range(4)])


def random_state(layout, rng):
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return normalize(StateVector(layout, amps))


class TestOutcomeDistribution:
    def test_value_register_split(self):
        dist = outcome_distribution(entangled_pair_state(), "v")
        assert dist.as_dict() == pytest.approx({0: 0.5, 1: 0.5})

    def test_basis_state_is_sharp(self):
        state = make_basis_state(pair_layout(), {"a": 3, "v": 1})
        assert outcome_distribution(state, "a").as_dict() == {3: 1.0}

    def test_interfered_argument_register(self):
        # after the collapse onto v=1 and a second Hadamard, only a in {0, 1}
        # survive: the branch sum 1 + (-1)^popcount(2 & z) kills z = 2, 3
        collapsed = state_from_terms(
            pair_layout(), [({"a": 1, "v": 1}, RT2), ({"a": 3, "v": 1}, RT2)]
        )
        dist = outcome_distribution(hadamard(collapsed, "a"), "a")
        assert dist.as_dict() == pytest.approx({0: 0.5, 1: 0.5})

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            state = random_state(pair_layout(), rng)
            for reg in ("a", "v"):
                assert outcome_distribution(state, reg).probabilities.sum() == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_unknown_register(self):
        with pytest.raises(RegisterError):
            outcome_distribution(entangled_pair_state(), "p")

    @pytest.mark.parametrize("width", [4, 8])
    def test_entries_match_the_per_outcome_reference(self, width):
        # the floor drops some outcomes: zeroed ones and one of probability ~1e-16
        layout = RegisterLayout((("a", 3), ("v", width)))
        rng = np.random.default_rng(width)
        amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        amps.reshape(8, -1)[:, ::3] = 0.0
        amps.reshape(8, -1)[:, 1] = 1e-8
        state = normalize(StateVector(layout, amps))
        probs = (np.abs(state.amplitudes.reshape(8, -1)) ** 2).sum(axis=0)
        reference = tuple(
            (int(eig), float(p)) for eig, p in enumerate(probs) if p >= PROBABILITY_FLOOR
        )
        entries = outcome_distribution(state, "v").entries
        assert 1 not in dict(entries)
        assert entries == reference
        assert all(type(eig) is int and type(p) is float for eig, p in entries)


class TestProject:
    def test_projects_onto_value_branch(self):
        out = project(entangled_pair_state(), ProjectorSpec("v", 1))
        expected = state_from_terms(
            pair_layout(), [({"a": 1, "v": 1}, 0.5), ({"a": 3, "v": 1}, 0.5)]
        )
        np.testing.assert_allclose(out.amplitudes, expected.amplitudes)
        assert out.norm**2 == pytest.approx(0.5)

    def test_idempotent(self):
        spec = ProjectorSpec("v", 1)
        once = project(entangled_pair_state(), spec)
        twice = project(once, spec)
        np.testing.assert_allclose(once.amplitudes, twice.amplitudes)

    def test_orthogonal_projections_annihilate(self):
        out = project(
            project(entangled_pair_state(), ProjectorSpec("v", 0)), ProjectorSpec("v", 1)
        )
        assert out.norm == 0.0

    def test_eigenvalue_out_of_range(self):
        with pytest.raises(ValueError):
            project(entangled_pair_state(), ProjectorSpec("v", 4))


# Parts of an amplitude that a kernel must carry bit for bit.
SPECIAL_PARTS = [0.0, -0.0, np.nan, np.inf, -np.inf]


@st.composite
def special_states(draw):
    """A state over "t", "p" and "q", with "t" first, in the middle or last, whose real
    and imaginary parts are drawn from normal floats, 0.0, -0.0, NaN and +-inf, so the
    slab of any value of "t" and the rest of the state both hold them."""
    names = draw(st.sampled_from([("t", "p", "q"), ("p", "t", "q"), ("p", "q", "t")]))
    widths = {"t": draw(st.integers(1, 3)), "p": draw(st.integers(1, 2)), "q": 1}
    layout = RegisterLayout(tuple((name, widths[name]) for name in names))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.normal(size=(2, layout.dim))
    special = rng.random(parts.shape) < draw(st.sampled_from([0.1, 0.5, 0.9]))
    parts[special] = rng.choice(SPECIAL_PARTS, size=int(special.sum()))
    # set the parts directly: 1j * inf would put a NaN into the real part
    amps = np.empty(layout.dim, dtype=np.complex128)
    amps.real, amps.imag = parts
    return StateVector(layout, amps)


def where_projection(state, register, eigenvalue):
    """project's former body: np.where over the whole (left, d, right) view."""
    layout = state.layout
    view = state.amplitudes.reshape(
        -1, layout.register_dim(register), 1 << layout.shift(register)
    )
    keep = np.arange(view.shape[1])[:, None] == eigenvalue
    return np.where(keep, view, 0.0).reshape(-1)


class TestProjectAgainstWhere:
    @settings(max_examples=200, deadline=None)
    @given(special_states(), st.data())
    def test_equals_the_where_reference_bit_for_bit(self, state, data):
        eigenvalue = data.draw(st.integers(0, state.layout.register_dim("t") - 1))
        out = project(state, ProjectorSpec("t", eigenvalue))
        expected = where_projection(state, "t", eigenvalue)
        assert out.amplitudes.tobytes() == expected.tobytes()


class TestMeasure:
    def test_forced_collapse_onto_branch(self):
        record = measure_forced(entangled_pair_state(), "v", 1)
        expected = state_from_terms(
            pair_layout(), [({"a": 1, "v": 1}, RT2), ({"a": 3, "v": 1}, RT2)]
        )
        assert record.probability == pytest.approx(0.5)
        np.testing.assert_allclose(record.post_state.amplitudes, expected.amplitudes)

    def test_forced_zero_probability_rejected(self):
        state = make_basis_state(pair_layout(), {"a": 0, "v": 0})
        with pytest.raises(DegenerateStateError):
            measure_forced(state, "v", 3)

    def test_product_state_leaves_other_register_alone(self):
        layout = pair_layout()
        rng = np.random.default_rng(1)
        v_part = rng.normal(size=4) + 1j * rng.normal(size=4)
        v_part /= np.linalg.norm(v_part)
        state = StateVector(layout, np.kron(np.eye(4)[2], v_part))
        record = measure(state, "a", np.random.default_rng(2))
        assert record.outcome == 2
        assert record.probability == pytest.approx(1.0)
        np.testing.assert_allclose(record.post_state.amplitudes, state.amplitudes, atol=1e-12)

    def test_seeded_repeatability(self):
        state = entangled_pair_state()
        runs = [
            [measure(state, "v", np.random.default_rng(42)).outcome for _ in range(1)][0]
            for _ in range(5)
        ]
        assert len(set(runs)) == 1

    def test_modexp_collapse_leaves_comb(self):
        oracle = build_modexp(7, 15, 4)
        layout = RegisterLayout((("a", 4), ("v", 4)))
        state = state_from_terms(
            layout, [({"a": x, "v": oracle.value(x)}, 0.25) for x in range(16)]
        )
        record = measure_forced(state, "v", 7)
        support = {
            value_at(layout, int(i), "a")
            for i in np.nonzero(np.abs(record.post_state.amplitudes) > 1e-14)[0]
        }
        assert support == {1, 5, 9, 13}

    def test_born_frequencies_chi_square(self):
        rng = np.random.default_rng(2024)
        state = random_state(pair_layout(), rng)
        dist = outcome_distribution(state, "a")
        counts = np.zeros(len(dist.entries))
        trials = 10_000
        lookup = {eig: i for i, (eig, _) in enumerate(dist.entries)}
        for _ in range(trials):
            counts[lookup[measure(state, "a", rng).outcome]] += 1
        expected = dist.probabilities * trials
        result = stats.chisquare(counts, expected)
        assert result.pvalue >= 0.001


class TestPointerModel:
    def test_sharp_copy(self):
        layout = RegisterLayout((("v", 2), ("p", 2)))
        state = make_basis_state(layout, {"v": 3, "p": 0})
        out = von_neumann_premeasurement(state, "v", "p")
        assert out.amplitude({"v": 3, "p": 3}) == 1.0

    def test_entangled_premeasurement_state(self):
        layout = RegisterLayout((("a", 2), ("v", 2), ("p", 2)))
        state = state_from_terms(
            layout, [({"a": x, "v": x % 2, "p": 0}, 0.5) for x in range(4)]
        )
        out = von_neumann_premeasurement(state, "v", "p")
        expected = state_from_terms(
            layout, [({"a": x, "v": x % 2, "p": x % 2}, 0.5) for x in range(4)]
        )
        np.testing.assert_allclose(out.amplitudes, expected.amplitudes)

    def test_pointer_readout_reproduces_born_statistics(self):
        layout = RegisterLayout((("a", 2), ("v", 2), ("p", 2)))
        rng = np.random.default_rng(3)
        base = RegisterLayout((("a", 2), ("v", 2)))
        small = random_state(base, rng)
        embedded = state_from_terms(
            layout,
            (
                (dict(rec["label"], p=0), complex(rec["re"], rec["im"]))
                for rec in small.records(tol=0.0)
            ),
        )
        coupled = von_neumann_premeasurement(embedded, "v", "p")
        born = outcome_distribution(small, "v").as_dict()
        readout = outcome_distribution(coupled, "p").as_dict()
        assert readout == pytest.approx(born, abs=1e-12)

    def test_pointer_not_sharp_rejected(self):
        layout = RegisterLayout((("v", 2), ("p", 2)))
        state = hadamard(make_basis_state(layout, {"v": 0, "p": 0}), "p")
        with pytest.raises(PreconditionError):
            von_neumann_premeasurement(state, "v", "p")

    @pytest.mark.parametrize("stray", [np.nan, complex(0.0, np.nan)])
    def test_nan_on_the_pointer_rejected(self, stray):
        # a NaN fails every comparison with the sharpness tolerance, so it is stray
        layout = RegisterLayout((("v", 1), ("p", 1)))
        state = StateVector(layout, [1.0, stray, 0.0, 0.0])
        with pytest.raises(PreconditionError):
            von_neumann_premeasurement(state, "v", "p")

    def test_pointer_width_mismatch(self):
        layout = RegisterLayout((("v", 2), ("p", 1)))
        with pytest.raises(RegisterError):
            von_neumann_premeasurement(make_basis_state(layout, {}), "v", "p")


class TestConstraintSolver:
    def test_collision_state_both_outcomes(self):
        state = entangled_pair_state()
        for f_bar in (0, 1):
            solved = solve_measurement_constraints(state, "v", f_bar)
            x0 = f_bar
            expected = state_from_terms(
                pair_layout(),
                [({"a": x0, "v": f_bar}, RT2), ({"a": x0 + 2, "v": f_bar}, RT2)],
            )
            np.testing.assert_allclose(solved.amplitudes, expected.amplitudes, atol=1e-12)

    def test_eigenstate_is_returned_unchanged(self):
        state = make_basis_state(pair_layout(), {"a": 1, "v": 2})
        solved = solve_measurement_constraints(state, "v", 2)
        np.testing.assert_allclose(solved.amplitudes, state.amplitudes, atol=1e-15)

    def test_matches_projection_route_on_random_states(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            widths = rng.integers(1, 4, size=2)
            layout = RegisterLayout((("a", int(widths[0])), ("v", int(widths[1]))))
            state = random_state(layout, rng)
            register = str(rng.choice(["a", "v"]))
            eig = int(rng.choice(outcome_distribution(state, register).outcomes))
            solved = solve_measurement_constraints(state, register, eig)
            projected = normalize(project(state, ProjectorSpec(register, eig)))
            np.testing.assert_allclose(
                solved.amplitudes, projected.amplitudes, atol=1e-10
            )

    def test_solution_lies_in_eigenspace_and_maximizes_overlap(self):
        rng = np.random.default_rng(5)
        state = random_state(pair_layout(), rng)
        solved = solve_measurement_constraints(state, "v", 1)
        in_space = state.layout.values("v") == 1
        assert np.all(solved.amplitudes[~in_space] == 0.0)
        best = abs(np.vdot(solved.amplitudes, state.amplitudes))
        for _ in range(200):
            candidate = np.zeros(state.layout.dim, dtype=np.complex128)
            candidate[in_space] = rng.normal(size=in_space.sum()) + 1j * rng.normal(
                size=in_space.sum()
            )
            candidate /= np.linalg.norm(candidate)
            assert abs(np.vdot(candidate, state.amplitudes)) <= best + 1e-12

    def test_zero_probability_eigenvalue_rejected(self):
        state = make_basis_state(pair_layout(), {"a": 0, "v": 0})
        with pytest.raises(DegenerateStateError):
            solve_measurement_constraints(state, "v", 1)


class TestSchmidtRank:
    def test_basis_states_are_products(self):
        layout = RegisterLayout((("m", 2), ("a", 1), ("v", 2)))
        state = make_basis_state(layout, {"m": 2, "a": 1, "v": 3})
        assert schmidt_rank(state, (("m",), ("a", "v"))) == 1
        assert schmidt_rank(state, (("m", "v"), ("a",))) == 1

    def test_collision_state_rank_two(self):
        # singular values of the 4x4 matrix with entries 1/2 at (x, f(x))
        matrix = np.zeros((4, 4))
        for x in range(4):
            matrix[x, x % 2] = 0.5
        assert np.sum(np.linalg.svd(matrix, compute_uv=False) > 1e-10) == 2
        assert schmidt_rank(entangled_pair_state(), (("a",), ("v",))) == 2

    def test_post_measurement_state_is_product(self):
        post = measure_forced(entangled_pair_state(), "v", 1).post_state
        assert schmidt_rank(post, (("a",), ("v",))) == 1

    def test_noncontiguous_cut(self):
        layout = RegisterLayout((("a", 1), ("v", 1), ("p", 1)))
        # entangle a with p, keep v factored out
        state = state_from_terms(
            layout,
            [({"a": 0, "v": 1, "p": 0}, RT2), ({"a": 1, "v": 1, "p": 1}, RT2)],
        )
        assert schmidt_rank(state, (("a", "p"), ("v",))) == 1
        assert schmidt_rank(state, (("a",), ("v", "p"))) == 2

    def test_empty_side_rejected(self):
        with pytest.raises(RegisterError):
            schmidt_rank(entangled_pair_state(), ((), ("a", "v")))

    def test_partition_must_cover_all_registers(self):
        layout = RegisterLayout((("a", 1), ("v", 1), ("p", 1)))
        state = make_basis_state(layout, {})
        with pytest.raises(RegisterError):
            schmidt_rank(state, (("a",), ("v",)))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rank_equals_the_full_svd_count_with_zero_rows_and_columns(self, data):
        # a state of 2 or 3 registers, a sum of up to 4 product terms across a random
        # cut, with some rows and columns of its cut matrix zeroed
        widths = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
        names = tuple(f"r{i}" for i in range(len(widths)))
        layout = RegisterLayout(tuple(zip(names, widths)))
        side_a = data.draw(st.permutations(names))[: data.draw(st.integers(1, len(names) - 1))]
        side_b = tuple(name for name in names if name not in side_a)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        def joint(side, index):
            """The cut row (or column) of a basis index: its side's values, first
            register of the layout most significant."""
            label, value = layout.label_of(index), 0
            for name in sorted(side, key=names.index):
                value = (value << layout.width(name)) | label[name]
            return value

        rows = 1 << sum(layout.width(name) for name in side_a)
        columns = layout.dim // rows
        terms = data.draw(st.integers(0, 4))
        matrix = sum(
            (
                np.outer(
                    rng.normal(size=rows) + 1j * rng.normal(size=rows),
                    rng.normal(size=columns) + 1j * rng.normal(size=columns),
                )
                for _ in range(terms)
            ),
            np.zeros((rows, columns), dtype=complex),
        )
        matrix[rng.random(rows) < data.draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0
        matrix[:, rng.random(columns) < data.draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0
        amps = np.array(
            [matrix[joint(side_a, i), joint(side_b, i)] for i in range(layout.dim)]
        )
        full = np.sum(np.linalg.svd(matrix, compute_uv=False) > 1e-10)
        assert schmidt_rank(StateVector(layout, amps), (side_a, side_b)) == full


def collision_circuit():
    oracle = build_two_to_one(2, 2, (0, 1), family="two_to_one_arith")
    layout = pair_layout()
    return StagedCircuit(
        initial=make_basis_state(layout, {"a": 0, "v": 0}),
        steps=(
            ("t1", GateSpec("hadamard", ("a",))),
            ("t2", GateSpec("function-add", ("a", "v"), oracle=oracle)),
            ("t4", GateSpec("hadamard", ("a",))),
        ),
        deferred_register="v",
        final_registers=("a",),
    )


class TestDeferredEquivalence:
    def test_collision_circuit_joint_distribution(self):
        report = deferred_equivalence_check(collision_circuit(), "t2", "t4")
        assert report["max_abs_diff"] < 1e-12
        assert set(report) == {"ordering_a", "ordering_b", "max_abs_diff"}
        joint = {
            (e["outcomes"]["v"], e["outcomes"]["a"]): e["probability"]
            for e in report["ordering_a"]
        }
        assert joint == pytest.approx(
            {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25}
        )

    def test_product_circuit_trivially_equivalent(self):
        layout = RegisterLayout((("a", 1), ("v", 1)))
        circuit = StagedCircuit(
            initial=make_basis_state(layout, {"a": 0, "v": 1}),
            steps=(
                ("t1", GateSpec("hadamard", ("a",))),
                ("t2", GateSpec("hadamard", ("a",))),
            ),
            deferred_register="v",
            final_registers=("a",),
        )
        report = deferred_equivalence_check(circuit, "t1", "t2")
        assert report["max_abs_diff"] < 1e-15

    def test_period_finding_circuit(self):
        oracle = build_modexp(7, 15, 4)
        layout = RegisterLayout((("a", 4), ("v", 4)))
        circuit = StagedCircuit(
            initial=make_basis_state(layout, {"a": 0, "v": 0}),
            steps=(
                ("t1", GateSpec("hadamard", ("a",))),
                ("t2", GateSpec("function-add", ("a", "v"), oracle=oracle)),
                ("t4", GateSpec("qft", ("a",))),
            ),
            deferred_register="v",
            final_registers=("a",),
        )
        report = deferred_equivalence_check(circuit, "t2", "t4")
        assert report["max_abs_diff"] < 1e-12
        joint = {
            (e["outcomes"]["v"], e["outcomes"]["a"]): e["probability"]
            for e in report["ordering_b"]
        }
        assert len(joint) == 16
        assert all(p == pytest.approx(1 / 16) for p in joint.values())

    def test_gate_on_deferred_register_rejected(self):
        base = collision_circuit()
        circuit = StagedCircuit(
            initial=base.initial,
            steps=base.steps + (("t5", GateSpec("hadamard", ("v",))),),
            deferred_register="v",
            final_registers=("a",),
        )
        with pytest.raises(PreconditionError):
            deferred_equivalence_check(circuit, "t2", "t5")

    def test_unknown_label_rejected(self):
        with pytest.raises(PreconditionError):
            deferred_equivalence_check(collision_circuit(), "t2", "t9")


class TestMeasureRejectsImpossibleStates:
    def one_qubit(self, amplitudes):
        return StateVector(RegisterLayout((("a", 1),)), amplitudes)

    def test_unnormalized_state_rejected(self):
        with pytest.raises(PreconditionError):
            measure(self.one_qubit([3, 4]), "a", np.random.default_rng(0))
        with pytest.raises(PreconditionError):
            measure_forced(self.one_qubit([3, 4]), "a", 1)

    def test_nan_amplitude_rejected(self):
        with pytest.raises(DegenerateStateError):
            measure(self.one_qubit([np.nan, 1]), "a", np.random.default_rng(0))

    def test_infinite_amplitude_rejected(self):
        with pytest.raises(DegenerateStateError):
            measure_forced(self.one_qubit([np.inf, 1]), "a", 1)

    def test_normalized_within_tolerance_accepted(self):
        state = self.one_qubit([RT2 * (1 + 1e-13), RT2])
        assert measure_forced(state, "a", 1).probability == pytest.approx(0.5)


NON_FINITE = [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf)]
READERS = {
    "outcome_distribution": lambda state: outcome_distribution(state, "v"),
    "measure": lambda state: measure(state, "v", np.random.default_rng(0)),
    "measure_forced": lambda state: measure_forced(state, "v", 0),
    "joint_distribution": lambda state: joint_distribution(state, ("a", "v"), 0.0),
    "solve_measurement_constraints": lambda state: solve_measurement_constraints(state, "v", 0),
    "schmidt_rank": lambda state: schmidt_rank(state, (("a",), ("v",))),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
def test_a_non_finite_amplitude_is_refused_by_every_measurement_reader(reader, bad):
    # the bad amplitude sits off the measured v = 0 slab, where a slab-only read would
    # not see it
    amps = np.full(pair_layout().dim, 0.25, dtype=complex)
    amps[pair_layout().index_of({"a": 2, "v": 1})] = bad
    with pytest.raises(DegenerateStateError, match="non-finite"):
        READERS[reader](StateVector(pair_layout(), amps))


def joint_distribution_by_loop(state, registers, floor):
    """The reference: one basis state at a time, in basis-index order."""
    layout = state.layout
    probs = np.abs(state.amplitudes) ** 2
    joint = {}
    for idx in np.nonzero(probs > floor)[0]:
        key = tuple(value_at(layout, int(idx), reg) for reg in registers)
        joint[key] = joint.get(key, 0.0) + float(probs[idx])
    return joint


class TestJointDistribution:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 1e-16, 0.05]),
        st.sampled_from([0.0, 0.5, 0.95]),
        st.data(),
    )
    def test_equals_the_loop_bit_for_bit_in_key_order(self, seed, floor, zeros, data):
        layout = RegisterLayout((("m", 2), ("a", 3), ("v", 1)))
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        amps[rng.random(layout.dim) < zeros] = 0.0
        state = StateVector(layout, amps / np.linalg.norm(amps) if amps.any() else amps)
        names = data.draw(st.permutations(layout.names))
        registers = tuple(names[: data.draw(st.integers(0, 3))])
        fast = joint_distribution(state, registers, floor)
        slow = joint_distribution_by_loop(state, registers, floor)
        assert list(fast.items()) == list(slow.items())
        assert all(type(value) is int for key in fast for value in key)
