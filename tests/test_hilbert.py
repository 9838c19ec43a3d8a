import math

import numpy as np
import pytest

from qregsim import (
    DegenerateStateError,
    LayoutMismatchError,
    RangeError,
    RegisterError,
    RegisterLayout,
    StateVector,
    equals_up_to_global_phase,
    inner_product,
    make_basis_state,
    normalize,
    state_from_records,
    state_from_terms,
)

RT2 = 1.0 / math.sqrt(2.0)


def two_register_layout():
    return RegisterLayout((("a", 2), ("v", 2)))


def entangled_pair_state():
    # (1/2)(|0,0> + |1,1> + |2,0> + |3,1>) over registers a and v
    return state_from_terms(
        two_register_layout(), [({"a": x, "v": x % 2}, 0.5) for x in range(4)]
    )


def random_state(layout, rng):
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return normalize(StateVector(layout, amps))


class TestLayout:
    def test_basis_state_at_origin(self):
        state = make_basis_state(two_register_layout(), {"a": 0, "v": 0})
        assert state.amplitudes[0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_single_qubit_basis_state(self):
        state = make_basis_state(RegisterLayout((("a", 1),)), {"a": 1})
        np.testing.assert_array_equal(state.amplitudes, [0.0, 1.0])

    def test_three_register_encoding(self):
        layout = RegisterLayout((("m", 2), ("a", 1), ("v", 1)))
        state = make_basis_state(layout, {"m": 2, "a": 1, "v": 0})
        assert state.amplitudes[2 * 4 + 1 * 2 + 0] == 1.0

    def test_out_of_range_label(self):
        with pytest.raises(RangeError):
            make_basis_state(two_register_layout(), {"a": 4, "v": 0})

    def test_unknown_register_label(self):
        with pytest.raises(RegisterError):
            make_basis_state(two_register_layout(), {"b": 0})

    def test_duplicate_names_rejected(self):
        with pytest.raises(RegisterError):
            RegisterLayout((("a", 1), ("a", 2)))

    def test_width_cap_enforced(self):
        with pytest.raises(RegisterError):
            RegisterLayout((("a", 20), ("v", 20)))
        RegisterLayout((("a", 20), ("v", 20)), width_cap=40)

    @pytest.mark.parametrize(
        "registers",
        [(("a", 1),), (("a", 2), ("v", 2)), (("m", 2), ("a", 1), ("v", 3))],
    )
    def test_label_index_round_trip(self, registers):
        layout = RegisterLayout(registers)
        for index in range(layout.dim):
            assert layout.index_of(layout.label_of(index)) == index

    def test_values_vector_matches_label_of(self):
        layout = RegisterLayout((("m", 2), ("a", 1), ("v", 3)))
        for name in layout.names:
            values = layout.values(name)
            for index in range(layout.dim):
                assert values[index] == layout.label_of(index)[name]


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        state = random_state(two_register_layout(), np.random.default_rng(1))
        assert inner_product(state, state) == pytest.approx(1.0)

    def test_orthogonal_basis_states(self):
        layout = RegisterLayout((("a", 1),))
        zero = make_basis_state(layout, {"a": 0})
        one = make_basis_state(layout, {"a": 1})
        assert inner_product(zero, one) == 0.0

    def test_overlap_with_collision_branch(self):
        # summing conj(amp) * amp over the two common labels (1,1) and (3,1)
        # gives 2 * (1/2) * (1/sqrt 2) = 1/sqrt 2
        branch = state_from_terms(
            two_register_layout(),
            [({"a": 1, "v": 1}, RT2), ({"a": 3, "v": 1}, RT2)],
        )
        assert inner_product(entangled_pair_state(), branch) == pytest.approx(RT2)

    def test_conjugate_linearity(self):
        rng = np.random.default_rng(2)
        layout = two_register_layout()
        x, y = random_state(layout, rng), random_state(layout, rng)
        assert inner_product(x, y) == pytest.approx(np.conj(inner_product(y, x)))

    def test_layout_mismatch(self):
        with pytest.raises(LayoutMismatchError):
            inner_product(
                make_basis_state(RegisterLayout((("a", 1),)), {"a": 0}),
                make_basis_state(RegisterLayout((("b", 1),)), {"b": 0}),
            )


class TestGlobalPhase:
    def test_sign_flip_is_equal(self):
        state = random_state(two_register_layout(), np.random.default_rng(3))
        flipped = StateVector(state.layout, -state.amplitudes)
        assert equals_up_to_global_phase(state, flipped, 1e-12)

    def test_orthogonal_states_differ(self):
        layout = RegisterLayout((("a", 1),))
        assert not equals_up_to_global_phase(
            make_basis_state(layout, {"a": 0}), make_basis_state(layout, {"a": 1}), 1e-12
        )

    def test_arbitrary_phase(self):
        state = random_state(two_register_layout(), np.random.default_rng(4))
        rotated = StateVector(state.layout, np.exp(0.7j) * state.amplitudes)
        assert equals_up_to_global_phase(state, rotated, 1e-12)

    def test_perturbation_detected(self):
        state = make_basis_state(RegisterLayout((("a", 2),)), {"a": 1})
        bumped = normalize(
            state_from_terms(state.layout, [({"a": 1}, 1.0), ({"a": 2}, 1e-3)])
        )
        assert not equals_up_to_global_phase(state, bumped, 1e-6)

    def test_equivalence_relation_on_exact_inputs(self):
        rng = np.random.default_rng(5)
        x = random_state(two_register_layout(), rng)
        y = StateVector(x.layout, np.exp(1.1j) * x.amplitudes)
        z = StateVector(x.layout, np.exp(-2.3j) * x.amplitudes)
        assert equals_up_to_global_phase(x, x, 0.0)
        assert equals_up_to_global_phase(x, y, 1e-12) == equals_up_to_global_phase(y, x, 1e-12)
        assert equals_up_to_global_phase(x, y, 1e-12)
        assert equals_up_to_global_phase(y, z, 1e-12)
        assert equals_up_to_global_phase(x, z, 1e-12)


class TestNormalize:
    def test_plain_sum(self):
        layout = RegisterLayout((("a", 1),))
        state = normalize(state_from_terms(layout, [({"a": 0}, 1.0), ({"a": 1}, 1.0)]))
        np.testing.assert_allclose(state.amplitudes, [RT2, RT2])

    def test_idempotent_on_unit_vectors(self):
        state = random_state(two_register_layout(), np.random.default_rng(6))
        np.testing.assert_allclose(
            normalize(state).amplitudes, state.amplitudes, atol=1e-15
        )

    def test_zero_vector_rejected(self):
        layout = RegisterLayout((("a", 1),))
        with pytest.raises(DegenerateStateError):
            normalize(StateVector(layout, np.zeros(2)))

    def test_renormalized_collision_branch(self):
        # keeping only the v=1 half of the entangled state and rescaling by
        # sqrt(N/2) = sqrt 2 lands exactly on the two-term branch
        state = entangled_pair_state()
        kept = np.where(state.layout.values("v") == 1, state.amplitudes, 0.0)
        renormalized = normalize(StateVector(state.layout, kept))
        expected = state_from_terms(
            state.layout, [({"a": 1, "v": 1}, RT2), ({"a": 3, "v": 1}, RT2)]
        )
        np.testing.assert_allclose(renormalized.amplitudes, expected.amplitudes, atol=1e-15)
        np.testing.assert_allclose(
            renormalized.amplitudes, math.sqrt(2.0) * kept, atol=1e-15
        )


class TestRecords:
    def test_records_sorted_and_sparse(self):
        records = entangled_pair_state().records()
        assert [rec["label"] for rec in records] == [
            {"a": 0, "v": 0},
            {"a": 1, "v": 1},
            {"a": 2, "v": 0},
            {"a": 3, "v": 1},
        ]
        assert all(rec["re"] == 0.5 and rec["im"] == 0.0 for rec in records)

    def test_round_trip(self):
        state = random_state(two_register_layout(), np.random.default_rng(7))
        rebuilt = state_from_records(state.layout, state.records())
        np.testing.assert_allclose(rebuilt.amplitudes, state.amplitudes, atol=1e-12)

    def test_amplitudes_read_only(self):
        state = entangled_pair_state()
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0
