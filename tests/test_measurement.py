import json
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qregsim import (
    DegenerateStateError,
    GateSpec,
    MeasurementPoint,
    PreconditionError,
    ProjectorSpec,
    RangeError,
    RegisterError,
    RegisterLayout,
    StagedCircuit,
    StateVector,
    build_modexp,
    build_two_to_one,
    deferred_equivalence_check,
    equals_up_to_global_phase,
    execute,
    hadamard,
    make_basis_state,
    measure,
    measure_forced,
    normalize,
    outcome_distribution,
    project,
    run_simon,
    schmidt_rank,
    shor_staged_circuit,
    simon_staged_circuit,
    solve_measurement_constraints,
    state_from_terms,
    von_neumann_premeasurement,
)
from qregsim.algorithms.grover import _search_circuit
from qregsim.hilbert import _decode, _sparse_view, _stored
from qregsim.measurement import (
    PROBABILITY_FLOOR,
    _grow,
    _outcome_path,
    _schmidt_rank,
    _weights,
    joint_distribution,
)

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

    @pytest.mark.parametrize("outcome", [99, -1, 4])
    def test_forced_outcome_outside_the_register_is_a_range_error(self, outcome):
        # as project and the constraint solver refuse the same value
        state = entangled_pair_state()
        with pytest.raises(RangeError, match=f"outcome {outcome} outside register 'a' range"):
            measure_forced(state, "a", outcome)
        with pytest.raises(RangeError):
            project(state, ProjectorSpec("a", outcome))
        with pytest.raises(RangeError):
            solve_measurement_constraints(state, "a", outcome)

    def test_an_unnormalized_state_is_refused_before_the_outcome_range(self):
        state = StateVector(pair_layout(), np.full(16, 1.0))
        with pytest.raises(PreconditionError):
            measure_forced(state, "a", 99)

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


@st.composite
def distributions(draw):
    """A state of one register "a" over 1 to 300 values (one included), with skewed
    weights, zeros and weights below PROBABILITY_FLOOR at random, and a seed for the
    generator that measures it."""
    size = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(size) ** draw(st.sampled_from([1, 4, 16]))
    weights[rng.random(size) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    weights[rng.integers(size)] = 1.0
    layout = RegisterLayout((("a", max(1, (size - 1).bit_length())),))
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[:size] = np.sqrt(weights / weights.sum()) * np.exp(2j * np.pi * rng.random(size))
    return StateVector(layout, amps), draw(st.integers(0, 2**32 - 1))


class TestDraw:
    @settings(max_examples=200, deadline=None)
    @given(distributions(), st.integers(1, 20))
    def test_tree_picks_are_rng_choice_picks(self, case, draws):
        # a run picks by searching its node's CDF for one rng.random(); that must be
        # rng.choice over the Born probabilities, pick for pick and state for state
        state, seed = case
        dist = outcome_distribution(state, "a")
        circuit = StagedCircuit(state, (("t1", MeasurementPoint("a")),), "a", ())
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        picks = [execute(circuit, rng).measurements[0].outcome for _ in range(draws)]
        p = dist.probabilities / dist.probabilities.sum()
        expected = [int(dist.outcomes[reference.choice(len(p), p=p)]) for _ in range(draws)]
        assert picks == expected
        assert rng.bit_generator.state == reference.bit_generator.state


class TestDenseReadsKeepNothing:
    """A reader of a state stored dense builds its support for that read only: after it
    returns, nothing of the 24 MB support of a 20-qubit state is left on the state."""

    @staticmethod
    def uniform_state():
        layout = RegisterLayout((("a", 10), ("v", 10)))
        return StateVector(layout, np.full(layout.dim, 2.0**-10))

    @pytest.mark.parametrize(
        "read",
        [
            lambda state: outcome_distribution(state, "a"),
            lambda state: measure(state, "v", np.random.default_rng(5)),
            lambda state: measure_forced(state, "v", 3),
        ],
        ids=["outcome_distribution", "measure", "measure_forced"],
    )
    def test_a_read_leaves_the_traced_memory_where_it_was(self, read):
        # a warm-up on another state: numpy's first calls allocate what they keep
        read(self.uniform_state())
        state = self.uniform_state()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            result = read(state)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result is not None and not state._sparse
        assert after - before < 2**20
        assert "index" not in vars(state) and "values" not in vars(state)


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

    def test_a_support_takes_the_same_checks_and_copy(self):
        layout = RegisterLayout((("a", 2), ("v", 2), ("p", 2)))
        state = state_from_terms(
            layout, [({"a": x, "v": x % 2, "p": 0}, 0.5) for x in range(4)]
        )
        out = von_neumann_premeasurement(_sparse_view(state), "v", "p")
        expected = von_neumann_premeasurement(state, "v", "p")
        assert out._sparse and out.amplitudes.tobytes() == expected.amplitudes.tobytes()
        for stray in (1e-11, np.nan, complex(0.0, np.nan)):
            amps = state.amplitudes.copy()
            amps[layout.index_of({"a": 1, "v": 1, "p": 3})] = stray
            with pytest.raises(PreconditionError):
                von_neumann_premeasurement(_sparse_view(StateVector(layout, amps)), "v", "p")

    def test_pointer_width_mismatch(self):
        layout = RegisterLayout((("v", 2), ("p", 1)))
        with pytest.raises(RegisterError):
            von_neumann_premeasurement(make_basis_state(layout, {}), "v", "p")


@st.composite
def solver_cases(draw):
    """A state on 2 or 3 registers of up to 10 qubits in all, with amplitudes zeroed or
    scaled down at random; one of its registers; and an outcome of that register whose
    probability is at or above PROBABILITY_FLOOR."""
    count = draw(st.integers(2, 3))
    widths = []
    for k in range(count):
        widths.append(draw(st.integers(1, 10 - sum(widths) - (count - k - 1))))
    layout = RegisterLayout(tuple(zip("abc", widths)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    amps[rng.random(layout.dim) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    scale = draw(st.sampled_from([1e-3, 1e-6]))
    amps[rng.random(layout.dim) < draw(st.sampled_from([0.0, 0.5]))] *= scale
    amps[rng.integers(layout.dim)] = 1.0
    state = normalize(StateVector(layout, amps))
    register = draw(st.sampled_from(layout.names))
    outcomes = outcome_distribution(state, register).outcomes
    return state, register, int(outcomes[draw(st.integers(0, len(outcomes) - 1))])


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

    @settings(max_examples=200, deadline=None)
    @given(solver_cases())
    def test_matches_projection_route_on_drawn_states(self, case):
        state, register, eig = case
        solved = solve_measurement_constraints(state, register, eig)
        projected = normalize(project(state, ProjectorSpec(register, eig)))
        assert equals_up_to_global_phase(solved, projected, 1e-10)

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
        # the support body, on the nonzeros as a run records them, the cut taken either way
        live = np.flatnonzero(amps)
        support = _stored(layout, index=live, values=amps[live])
        assert _schmidt_rank(support, (side_b, side_a)) == full

    def test_rank_of_a_20_qubit_t2_read_from_its_support_allocates_no_dense_state(self):
        trace = run_simon(
            build_two_to_one(10, 5, np.random.default_rng(0)), measure_v_at_t3=False
        )
        support = trace.state_at("t2")
        tracemalloc.start()
        try:
            rank = _schmidt_rank(support, (("a",), ("v",)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rank == 512
        # the 1024 x 512 cut matrix is half the state's bytes; a dense route holds the state
        assert peak < 0.75 * 16 * support.layout.dim

    def test_rank_of_a_20_qubit_t2_read_through_the_public_api_allocates_no_dense_state(self):
        trace = run_simon(
            build_two_to_one(10, 5, np.random.default_rng(0)), measure_v_at_t3=False
        )
        tracemalloc.start()
        try:
            t2 = trace.state_at("t2")
            distribution = outcome_distribution(t2, "a")
            rank = schmidt_rank(t2, (("a",), ("v",)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(distribution.entries) == 1024
        assert rank == 512
        assert peak < 0.75 * 16 * t2.layout.dim

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
    def test_one_entry_per_row_or_column_counts_the_norms_the_svd_counts(
        self, seed, by_column, data
    ):
        # a support whose reached rows (columns, if by_column) hold one entry each, at
        # random columns; some entries are far below the tolerance, some columns many
        widths = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=2))
        layout = RegisterLayout((("a", widths[0]), ("v", widths[1])))
        rows, columns = layout.register_dim("a"), layout.register_dim("v")
        rng = np.random.default_rng(seed)
        one, other = (columns, rows) if by_column else (rows, columns)
        reached = rng.permutation(one)[: rng.integers(1, one + 1)]
        at = rng.integers(0, rng.integers(1, other + 1), size=reached.size)
        row, column = (at, reached) if by_column else (reached, at)
        values = rng.normal(size=reached.size) + 1j * rng.normal(size=reached.size)
        values[rng.random(reached.size) < 0.2] *= 1e-13
        matrix = np.zeros((rows, columns), dtype=complex)
        matrix[row, column] = values
        full = np.sum(np.linalg.svd(matrix, compute_uv=False) > 1e-10)
        index = row * columns + column
        order = np.argsort(index)
        support = _stored(layout, index=index[order], values=values[order])
        with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("an SVD ran")):
            assert _schmidt_rank(support, (("a",), ("v",))) == full
            assert _schmidt_rank(support, (("v",), ("a",))) == full

    def test_an_unnormalized_state_reads_against_an_absolute_tolerance(self):
        layout = RegisterLayout((("a", 1), ("v", 1)))
        assert schmidt_rank(StateVector(layout, [3, 0, 0, 4]), (("a",), ("v",))) == 2
        assert schmidt_rank(StateVector(layout, [3e-11, 0, 0, 4e-11]), (("a",), ("v",))) == 0

    def test_a_row_of_two_entries_takes_the_svd(self):
        # rows 0 and 1 hold one entry each, in one column; row 2 holds two: rank 2
        layout = pair_layout()
        index = np.array([0, 4, 8, 9])
        values = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        support = _stored(layout, index=index, values=values)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            assert _schmidt_rank(support, (("a",), ("v",))) == 2
            assert svd.call_count == 1

    def test_simon_lifecycle_at_the_24_qubit_cap(self):
        # Simon n=12: t2 has rank 2^11 across a | v and t3 rank 1, read off the column
        # norms; the SVD of t2's 4096 x 2048 cut matrix took seconds
        oracle = build_two_to_one(12, 5, np.random.default_rng(0))
        trace = run_simon(oracle, force_v_outcome=min(oracle.table))
        cut = (("a",), ("v",))
        with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("an SVD ran")):
            assert _schmidt_rank(trace.state_at("t2"), cut) == 2048
            assert _schmidt_rank(trace.state_at("t3"), cut) == 1


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


def deferred_report_by_dicts(circuit, measure_now, measure_later):
    """The reference: deferred_equivalence_check as dicts keyed by outcome tuples, each
    branch collapsed by a mask over the whole measured support, the rows sorted by key."""
    gates = tuple(step for step in circuit.steps if isinstance(step[1], GateSpec))
    labels = [label for label, _ in gates]

    def finals_of(support):
        layout, index, amps = support.layout, support.index, support.values
        probs = np.abs(amps) ** 2
        index, probs = index[probs > PROBABILITY_FLOOR], probs[probs > PROBABILITY_FLOOR]
        code = _decode(layout, circuit.final_registers, index)
        _, first, which = np.unique(code, return_index=True, return_inverse=True)
        sums = np.bincount(which, weights=probs)
        order = np.argsort(first)
        keys = np.empty((order.size, len(circuit.final_registers)), dtype=np.int64)
        for column, reg in enumerate(circuit.final_registers):
            keys[:, column] = _decode(layout, (reg,), index[first[order]])
        return dict(zip(map(tuple, keys.tolist()), sums[order].tolist()))

    def joint_of(branch_after):
        register, pre = circuit.deferred_register, circuit.initial
        for _, gate in gates[: branch_after + 1]:
            pre = gate.apply(pre)
        outcomes, probs, _, _ = _weights(pre, register, None)
        joint = {}
        for eig, p_branch in zip(outcomes.tolist(), probs.tolist()):
            keep = _decode(pre.layout, (register,), pre.index) == eig
            values = pre.values[keep]
            values /= float(np.linalg.norm(values))
            post = _stored(pre.layout, index=pre.index[keep], values=values)
            for _, gate in gates[branch_after + 1 :]:
                post = gate.apply(post)
            joint.update({(eig,) + key: p_branch * p for key, p in finals_of(post).items()})
        return joint

    def rows(joint):
        regs = (circuit.deferred_register,) + circuit.final_registers
        return [{"outcomes": dict(zip(regs, key)), "probability": joint[key]} for key in sorted(joint)]

    now = joint_of(len(labels) - 1 - labels[::-1].index(measure_now))
    later = joint_of(len(labels) - 1 - labels[::-1].index(measure_later))
    diff = max((abs(now.get(k, 0.0) - later.get(k, 0.0)) for k in set(now) | set(later)), default=0.0)
    return {"ordering_a": rows(now), "ordering_b": rows(later), "max_abs_diff": float(diff)}


def simon_circuit(n, family, seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 1 << n)) if family == "two_to_one_xor" else 1 << (n - 1)
    return simon_staged_circuit(build_two_to_one(n, r, rng, family=family))


DEFERRED_CASES = {
    **{
        f"simon-{family}-n{n}": (lambda n=n, f=family: simon_circuit(n, f, 41 + n), "t2", "t4")
        for n in range(1, 8)
        for family in ("two_to_one_xor", "two_to_one_arith")
    },
    "shor-7-15": (lambda: shor_staged_circuit(7, 15, a_width=4), "t2", "t4"),
    "shor-2-21": (lambda: shor_staged_circuit(2, 21), "t2", "t4"),
    # the diffusion on a runs after the branch point t2
    "grover-extended": (lambda: _search_circuit("extended", None), "t2", "t3"),
}


@pytest.mark.parametrize("case", DEFERRED_CASES)
def test_deferred_report_equals_the_dict_route_as_json(case):
    build, now, later = DEFERRED_CASES[case]
    circuit = build()
    got = deferred_equivalence_check(circuit, now, later)
    want = deferred_report_by_dicts(circuit, now, later)
    assert json.dumps(got) == json.dumps(want)
    assert got["ordering_a"] and got["ordering_b"]


def test_the_check_leaves_the_callers_tree_alone_and_holds_one_branch_at_a_time():
    circuit = simon_circuit(4, "two_to_one_xor", 45)
    for seed in range(6):
        execute(circuit, np.random.default_rng(seed))
    tree = circuit._tree
    children = dict(tree.children)
    grandchildren = {pick: dict(child.children) for pick, child in children.items()}
    grown = []

    def spy(branching, parent, pick):
        assert branching is not circuit
        # the branch read before this one was dropped before this one grows
        assert parent is None or parent.children == {}
        node = _grow(branching, parent, pick)
        grown.append((parent, node))
        return node

    with mock.patch("qregsim.measurement._grow", side_effect=spy):
        report = deferred_equivalence_check(circuit, "t2", "t4")
    assert report == deferred_equivalence_check(circuit, "t2", "t4")
    assert circuit._tree is tree
    assert tree.children == children
    assert {pick: child.children for pick, child in tree.children.items()} == grandchildren
    roots = [node for parent, node in grown if parent is None]
    assert len(roots) == 2
    assert all(root.children == {} for root in roots)
    assert len(grown) == 2 + sum(root.outcomes.size for root in roots)


def collapse_by_mask(support, register, outcome):
    """The reference collapse: the entries of the support where the register holds the
    outcome, kept in their order by a mask over the whole support, divided by their norm."""
    layout, index, values = support.layout, support.index, support.values
    keep = _decode(layout, (register,), index) == outcome
    return index[keep], values[keep] / float(np.linalg.norm(values[keep]))


def assert_children_collapse_as_the_mask(circuit, node):
    """Grow every child of the node and hold each to collapse_by_mask, bit for bit, and
    to normalize(project(...)) within 1e-12."""
    register = circuit.steps[node.end][1].register
    state = StateVector(node.pre.layout, node.pre.amplitudes)
    for pick in range(node.outcomes.size):
        child = node.children.get(pick) or _grow(circuit, node, pick)
        # the checkpoint that the labelled measurement step records: the collapse
        (_, collapse), outcome = child.checkpoints[0], child.record.outcome
        index, values = collapse_by_mask(node.pre, register, outcome)
        assert collapse.index.tobytes() == index.tobytes()
        assert collapse.values.tobytes() == values.tobytes()
        expected = normalize(project(state, ProjectorSpec(register, outcome)))
        assert np.abs(collapse.amplitudes - expected.amplitudes).max() <= 1e-12


class TestOneCollapse:
    """A measurement node groups its pre by the register's value once, with a stable sort
    keyed by the smallest unsigned type that holds the register (8, 16 or 32 bits); each
    child divides one group."""

    @pytest.mark.parametrize("width", [1, 3, 8, 9, 16, 17])
    @pytest.mark.parametrize("position", [0, 1, 2])
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_every_child_is_the_mask_collapse(self, width, position, seed, forced, shuffled):
        # a random support whose measured register takes a few values, some of them with
        # all their entries far below PROBABILITY_FLOOR, lying between the outcomes
        rng = np.random.default_rng(seed)
        names, widths = ["x", "y"], [1 if width > 3 else int(rng.integers(1, 3)) for _ in "xy"]
        names.insert(position, "m")
        widths.insert(position, width)
        layout = RegisterLayout(tuple(zip(names, widths)))
        size = int(rng.integers(1, min(layout.dim, 40) + 1))
        pool = rng.choice(1 << width, size=min(1 << width, 6), replace=False)
        columns = {name: rng.integers(1 << w, size=size) for name, w in zip(names, widths)}
        columns["m"] = rng.choice(pool, size=size)
        index = np.unique(sum(columns[name] << layout.shift(name) for name in names))
        if shuffled:
            index = rng.permutation(index)
        values = rng.normal(size=index.size) + 1j * rng.normal(size=index.size)
        value = _decode(layout, ("m",), index)
        faint = rng.choice(pool, size=rng.integers(0, pool.size), replace=False)
        values[np.isin(value, faint)] *= 1e-9
        values /= np.linalg.norm(values)
        support = _stored(layout, index=index, values=values)
        outcome = None
        if forced:
            probs = np.bincount(value, np.abs(values) ** 2)
            outcome = int(rng.choice(np.flatnonzero(probs >= PROBABILITY_FLOOR)))
        circuit = StagedCircuit(support, (("t1", MeasurementPoint("m", outcome)),), "m", ())
        root = _grow(circuit, None, 0)
        [(label, t0)] = circuit._tree.checkpoints
        assert label == "t0" and t0 is root.pre
        assert_children_collapse_as_the_mask(circuit, root)

    def test_the_children_of_a_17_qubit_argument_register(self):
        # Shor with --a-width 17: v's 131,072 entries fall into 4 groups, and the final
        # measurement's key takes 32 bits
        circuit = shor_staged_circuit(7, 15, a_width=17)
        path = _outcome_path(circuit, np.random.default_rng(3))
        assert [circuit.steps[node.end][1].register for node in path[:-1]] == ["v", "a"]
        for node in path[:-1]:
            assert_children_collapse_as_the_mask(circuit, node)
        assert path[-1].pre is path[-1].checkpoints[-1][1]


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

    @pytest.mark.parametrize(
        "amplitudes, total",
        [([1, 1], "2.0"), ([3e-170, 4e-170], "0.0"), ([3e200, 4e200], "inf")],
        ids=["norm-sqrt2", "norm-5e-170", "norm-5e200"],
    )
    def test_outcome_distribution_refuses_what_measure_refuses(self, amplitudes, total):
        # the squares of 3e-170 underflow to 0 and those of 3e200 overflow to inf
        state = self.one_qubit(amplitudes)
        message = f"state is not normalized: outcomes of 'a' sum to {total}"
        with pytest.raises(PreconditionError) as born:
            outcome_distribution(state, "a")
        with pytest.raises(PreconditionError) as measured:
            measure(state, "a", np.random.default_rng(0))
        assert str(born.value) == str(measured.value) == message


class TestJointNormalization:
    def layout(self):
        return RegisterLayout((("a", 1), ("v", 1)))

    def test_weights_above_one_are_refused(self):
        state = StateVector(self.layout(), [1, 0, 0, 1])
        with pytest.raises(
            PreconditionError, match=r"^state is not normalized: outcomes of \('a',\) sum to 2.0$"
        ):
            joint_distribution(state, ("a",), 0.0)

    def test_a_projected_or_zero_state_reads_as_it_stands(self):
        projected = project(entangled_pair_state(), ProjectorSpec("v", 1))
        assert joint_distribution(projected, ("a", "v"), 0.0) == {(1, 1): 0.25, (3, 1): 0.25}
        zero = StateVector(self.layout(), np.zeros(4))
        assert joint_distribution(zero, ("a", "v"), 0.0) == {}

    def test_within_tolerance_above_one_reads(self):
        state = StateVector(self.layout(), [RT2 * (1 + 1e-13), 0, 0, RT2])
        assert joint_distribution(state, ("v",), 0.0) == pytest.approx({(0,): 0.5, (1,): 0.5})


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


@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_finite_state_whose_squares_overflow_is_never_called_non_finite(reader):
    # |a=0, v=0> and |a=1, v=1> with amplitudes 3e200 and 4e200: every amplitude is
    # finite, every square overflows, and no reader may warn of it
    amps = np.zeros(pair_layout().dim, dtype=complex)
    amps[[pair_layout().index_of({"a": 0, "v": 0}), pair_layout().index_of({"a": 1, "v": 1})]] = (
        3e200,
        4e200,
    )
    state = StateVector(pair_layout(), amps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if reader == "schmidt_rank":
            assert READERS[reader](state) == 2
        elif reader == "solve_measurement_constraints":
            solved = READERS[reader](state)
            assert solved.amplitudes[pair_layout().index_of({"a": 0, "v": 0})] == 1.0
            assert solved.norm == 1.0
        else:
            with pytest.raises(PreconditionError, match="^state is not normalized: .* sum to inf$"):
                READERS[reader](state)


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
