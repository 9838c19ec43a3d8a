import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qregsim import (
    DegenerateStateError,
    LayoutMismatchError,
    ProjectorSpec,
    RangeError,
    RegisterError,
    RegisterLayout,
    StateVector,
    apply_function_add,
    apply_function_xor,
    apply_function_xor_controlled,
    apply_phase_oracle,
    equals_up_to_global_phase,
    grover_diffusion,
    hadamard,
    inner_product,
    kronecker_family,
    make_basis_state,
    measure,
    measure_forced,
    normalize,
    project,
    qft,
    solve_measurement_constraints,
    state_from_records,
    state_from_terms,
    von_neumann_premeasurement,
)
from qregsim import hilbert
from qregsim.gates import apply_phases
from qregsim.hilbert import _live_index, _nonzero

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

    def test_width_cap_enforced(self, monkeypatch):
        with pytest.raises(RegisterError):
            RegisterLayout((("a", 20), ("v", 20)))
        monkeypatch.setenv("DIS_WIDTH_CAP", "40")
        RegisterLayout((("a", 20), ("v", 20)))

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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(0.0, np.inf), np.nan])
    def test_non_finite_norm_rejected(self, bad):
        layout = RegisterLayout((("a", 1),))
        with pytest.raises(DegenerateStateError, match="not finite"):
            normalize(StateVector(layout, [bad, 1.0]))

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


def reference_records(state, tol):
    """The per-index dump: one label_of decode and two float() calls per amplitude."""
    out = []
    for index in np.nonzero(np.abs(state.amplitudes) > tol)[0]:
        amp = state.amplitudes[index]
        out.append(
            {"label": state.layout.label_of(int(index)), "re": float(amp.real), "im": float(amp.imag)}
        )
    return out


def reference_repr(state):
    terms = []
    for rec in reference_records(state, 1e-12)[:8]:
        amp = complex(rec["re"], rec["im"])
        ket = ",".join(f"{reg}={val}" for reg, val in rec["label"].items())
        terms.append(f"({amp:.4g})|{ket}>")
    return f"StateVector({' + '.join(terms) if terms else '0'})"


def random_sparse_states(seed, count):
    """Seeded states over layouts of 1 to 4 registers of widths 1 to 4, with
    exact zeros and amplitudes exactly at and just above 1e-14 and 1e-12."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        widths = rng.integers(1, 5, size=rng.integers(1, 5))
        layout = RegisterLayout(tuple((f"r{i}", int(w)) for i, w in enumerate(widths)))
        amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        amps[rng.random(layout.dim) < 0.4] = 0.0
        for tol in (1e-14, 1e-12):
            amps[rng.integers(layout.dim, size=2)] = tol
            amps[rng.integers(layout.dim)] = -1j * tol
            amps[rng.integers(layout.dim)] = np.nextafter(tol, 1.0)
        yield StateVector(layout, amps)
    yield StateVector(RegisterLayout((("a", 2), ("b", 3))), np.zeros(32))


class TestVectorisedDump:
    @pytest.mark.parametrize("tol", [0.0, 1e-14, 1e-12])
    def test_records_match_per_index_reference(self, tol):
        for state in random_sparse_states(11, 40):
            records = state.records(tol=tol)
            assert records == reference_records(state, tol)
            for rec in records:
                assert type(rec["re"]) is float and type(rec["im"]) is float
                assert all(type(value) is int for value in rec["label"].values())
                assert list(rec["label"]) == list(state.layout.names)

    def test_all_zero_state_dumps_nothing(self):
        state = StateVector(two_register_layout(), np.zeros(16))
        assert state.records(tol=0.0) == []
        assert repr(state) == "StateVector(0)"

    def test_repr_text_unchanged(self):
        for state in random_sparse_states(12, 40):
            assert repr(state) == reference_repr(state)
        assert repr(entangled_pair_state()) == (
            "StateVector((0.5+0j)|a=0,v=0> + (0.5+0j)|a=1,v=1> + (0.5+0j)|a=2,v=0> "
            "+ (0.5+0j)|a=3,v=1>)"
        )

    def test_repr_finds_terms_past_the_first_blocks(self):
        layout = RegisterLayout((("x", 10), ("y", 6)))
        amps = np.zeros(layout.dim, dtype=complex)
        amps[[5, 40_000, 40_001, 65_535]] = 0.5
        state = StateVector(layout, amps)
        assert repr(state) == reference_repr(state)

    def test_repr_of_wide_state_allocates_little(self):
        layout = RegisterLayout((("x", 10), ("y", 10)))
        state = StateVector(layout, np.full(layout.dim, 2.0**-10))
        tracemalloc.start()
        try:
            text = repr(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text.count("|x=0,y=") == 8
        assert peak < 10 * 2**20


def ownership_state():
    """A normalised state over mode m, argument a, value v and a pointer p sharp at 0."""
    layout = RegisterLayout((("m", 2), ("a", 2), ("v", 1), ("p", 1)))
    rng = np.random.default_rng(21)
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    amps[layout.values("p") != 0] = 0.0
    return normalize(StateVector(layout, amps))


def every_kernel(state):
    """(name, output) for every operation that builds a new state from one."""
    family = kronecker_family(2)
    return [
        ("hadamard", hadamard(state, "a")),
        ("qft", qft(state, "a")),
        ("inverse-qft", qft(state, "a", inverse=True)),
        ("diffusion", grover_diffusion(state, "a")),
        ("phases", apply_phases(state, "a", [0.1, 0.2, 0.3, 0.4])),
        ("phase-oracle", apply_phase_oracle(state, family[1], "a")),
        ("function-xor", apply_function_xor(state, family[2], "a", "v")),
        ("function-add", apply_function_add(state, family[2], "a", "v")),
        ("function-xor-controlled", apply_function_xor_controlled(state, family, "m", "a", "v")),
        ("premeasurement", von_neumann_premeasurement(state, "v", "p")),
        ("project", project(state, ProjectorSpec("a", 1))),
        ("solver", solve_measurement_constraints(state, "a", 1)),
        ("normalize", normalize(state)),
        ("measure", measure(state, "a", np.random.default_rng(0)).post_state),
        ("measure_forced", measure_forced(state, "v", 1).post_state),
    ]


class TestOwnership:
    def test_constructor_copies_the_callers_array(self):
        layout = two_register_layout()
        for amps in (np.ones(layout.dim, dtype=complex), np.ones(layout.dim)):
            state = StateVector(layout, amps)
            amps[0] = 5.0
            assert state.amplitudes[0] == 1.0
            assert not np.shares_memory(state.amplitudes, amps)

    def test_outputs_are_read_only_plain_arrays(self):
        state = ownership_state()
        built = [
            ("basis", make_basis_state(state.layout, {"a": 1})),
            ("terms", state_from_terms(state.layout, [({"a": 1}, 1.0)])),
        ]
        for name, out in every_kernel(state) + built:
            assert type(out.amplitudes) is np.ndarray, name
            assert out.amplitudes.dtype == np.complex128, name
            assert not out.amplitudes.flags.writeable, name
            assert not np.shares_memory(out.amplitudes, state.amplitudes), name
            with pytest.raises(ValueError):
                out.amplitudes[0] = 1.0

    def test_inputs_unchanged_bit_for_bit(self):
        state = ownership_state()
        before = state.amplitudes.tobytes()
        every_kernel(state)
        assert state.amplitudes.tobytes() == before


class TestDumpFilterOnSpecialValues:
    """records and repr take candidates from the nonzero scan and then filter by
    magnitude; that must select what np.abs over the whole array selects, for NaN
    (never dumped), +-inf (always dumped) and -0.0 (never dumped) too."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.sampled_from([0.0, 1e-14, 1e-12, 0.5]),
        st.sampled_from([hilbert._SCAN_BLOCK, 64]),
    )
    def test_records_select_what_the_whole_array_filter_selects(self, seed, width, tol, block):
        rng = np.random.default_rng(seed)
        layout = RegisterLayout((("a", width // 2), ("b", width - width // 2)))
        # magnitudes from 1e-16 to 1, so that every tolerance keeps some and drops some
        parts = rng.normal(size=(2, layout.dim)) * 10.0 ** rng.uniform(-16, 0, size=layout.dim)
        special = rng.random(parts.shape) < 0.3
        parts[special] = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf], size=int(special.sum()))
        amps = np.empty(layout.dim, dtype=np.complex128)
        amps.real, amps.imag = parts
        state = StateVector(layout, amps)
        with mock.patch.object(hilbert, "_SCAN_BLOCK", block):
            records = state.records(tol)
        index = np.flatnonzero(np.abs(amps) > tol)
        assert [layout.index_of(rec["label"]) for rec in records] == index.tolist()
        for part in ("re", "im"):
            dumped = np.array([rec[part] for rec in records], dtype=np.float64)
            want = getattr(amps[index], "real" if part == "re" else "imag")
            assert dumped.tobytes() == want.tobytes()

    @pytest.mark.parametrize("offset", [1 << 14, 1 << 16, (1 << 16) + 3])
    def test_repr_of_terms_past_the_first_scan_block(self, offset):
        layout = RegisterLayout((("x", 11), ("y", 6)))
        amps = np.zeros(layout.dim, dtype=complex)
        # at or below 1e-12: never shown, even where they come first
        amps[[offset, offset + 1, offset + 7]] = [1e-12, -5e-13j, 1e-300]
        amps[offset + 2] = complex(np.nan, 1.0)
        amps[offset + 3 : offset + 3 + 12 * 997 : 997] = np.nextafter(1e-12, 1.0)
        amps[offset + 5] = complex(-np.inf, -0.0)
        state = StateVector(layout, amps)
        assert repr(state) == reference_repr(state)
        assert repr(state).count("|x=") == 8

    def test_repr_of_a_state_with_only_tiny_terms(self):
        layout = RegisterLayout((("x", 11), ("y", 6)))
        amps = np.zeros(layout.dim, dtype=complex)
        amps[[3, 70_000, 100_000]] = [1e-12, 1e-13, -1e-12j]
        assert repr(StateVector(layout, amps)) == "StateVector(0)"


class TestNonzeroScan:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 9),
        st.sampled_from([0.0, 0.5, 0.99, 1.0]),
        st.sampled_from([hilbert._SCAN_BLOCK, 16, 3, 1]),
    )
    def test_matches_the_complex_comparison(self, seed, width, zeros, block):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
        amps[rng.random(amps.size) < zeros] = 0.0
        amps.real[rng.random(amps.size) < 0.3] = 0.0
        amps.imag[rng.random(amps.size) < 0.3] = -0.0
        amps[rng.random(amps.size) < 0.1] = complex(-0.0, -0.0)
        assert np.array_equal(_nonzero(amps), amps != 0)
        with mock.patch.object(hilbert, "_SCAN_BLOCK", block):
            assert np.array_equal(_live_index(amps), np.flatnonzero(amps != 0))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 5, 1000, 1023, 1024, 1025, 1100, 2048, 3000]),
        st.sampled_from([0.0, 0.5, 0.99, 1.0]),
        st.sampled_from([hilbert._SCAN_BLOCK, 1024, 7]),
    )
    def test_small_and_blocked_scans_agree(self, seed, size, zeros, block):
        # both paths on either side of _SMALL_SCAN, with signed zeros, NaN and inf
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        amps[rng.random(size) < zeros] = 0.0
        amps.real[rng.random(size) < 0.3] = -0.0
        amps.imag[rng.random(size) < 0.3] = -0.0
        amps.real[rng.random(size) < 0.05] = np.nan
        amps.imag[rng.random(size) < 0.05] = np.inf
        amps.real[rng.random(size) < 0.05] = -np.inf
        expected = np.flatnonzero((amps.real != 0) | (amps.imag != 0))
        assert np.array_equal(expected, np.flatnonzero(amps != 0))
        scans = []
        for small in (0, 1 << 20):
            with mock.patch.multiple(hilbert, _SMALL_SCAN=small, _SCAN_BLOCK=block):
                scans.append(_live_index(amps))
        scans.append(_live_index(amps))
        for index in scans:
            assert index.dtype == np.intp
            assert np.array_equal(index, expected)
