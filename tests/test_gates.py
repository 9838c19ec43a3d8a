import dataclasses
import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qregsim import (
    DegenerateStateError,
    GateSpec,
    MeasurementPoint,
    ProjectorSpec,
    RangeError,
    RegisterError,
    RegisterLayout,
    StagedCircuit,
    StateVector,
    apply_function_add,
    apply_function_xor,
    apply_function_xor_controlled,
    apply_phase_oracle,
    build_modexp,
    build_two_to_one,
    deferred_equivalence_check,
    deutsch_family,
    execute,
    grover_diffusion,
    hadamard,
    inner_product,
    kronecker_family,
    make_basis_state,
    measure,
    measure_forced,
    normalize,
    outcome_distribution,
    project,
    qft,
    run_simon,
    schmidt_rank,
    state_from_terms,
    von_neumann_premeasurement,
)
from qregsim import gates, hilbert
from qregsim.gates import _permute_register, apply_phases

RT2 = 1.0 / math.sqrt(2.0)


def random_state(layout, rng):
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return normalize(StateVector(layout, amps))


class TestHadamard:
    def test_single_qubit_plus(self):
        layout = RegisterLayout((("a", 1),))
        out = hadamard(make_basis_state(layout, {"a": 0}), "a")
        np.testing.assert_allclose(out.amplitudes, [RT2, RT2])

    def test_single_qubit_minus(self):
        layout = RegisterLayout((("a", 1),))
        out = hadamard(make_basis_state(layout, {"a": 1}), "a")
        np.testing.assert_allclose(out.amplitudes, [RT2, -RT2])

    def test_two_qubit_uniform(self):
        layout = RegisterLayout((("a", 2), ("v", 2)))
        out = hadamard(make_basis_state(layout, {"a": 0, "v": 0}), "a")
        expected = state_from_terms(layout, [({"a": x, "v": 0}, 0.5) for x in range(4)])
        np.testing.assert_allclose(out.amplitudes, expected.amplitudes, atol=1e-15)

    @pytest.mark.parametrize("width", range(1, 7))
    def test_sign_law_brute_force(self, width):
        # independent oracle: amplitude of |z> in H|x> is (-1)^popcount(x & z) / sqrt(N)
        layout = RegisterLayout((("a", width),))
        dim = 1 << width
        for x in range(dim):
            out = hadamard(make_basis_state(layout, {"a": x}), "a")
            expected = np.array(
                [(-1.0) ** bin(x & z).count("1") for z in range(dim)]
            ) / math.sqrt(dim)
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_self_inverse(self):
        layout = RegisterLayout((("a", 3), ("v", 1)))
        state = random_state(layout, np.random.default_rng(0))
        back = hadamard(hadamard(state, "a"), "a")
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)

    def test_unknown_register(self):
        layout = RegisterLayout((("a", 1),))
        with pytest.raises(RegisterError):
            hadamard(make_basis_state(layout, {"a": 0}), "b")


class TestFourier:
    def test_zero_maps_to_uniform_positive(self):
        layout = RegisterLayout((("a", 3),))
        out = qft(make_basis_state(layout, {"a": 0}), "a")
        np.testing.assert_allclose(out.amplitudes, np.full(8, 1 / math.sqrt(8)), atol=1e-12)

    def test_inverse_round_trip(self):
        layout = RegisterLayout((("a", 4),))
        state = random_state(layout, np.random.default_rng(1))
        back = qft(qft(state, "a"), "a", inverse=True)
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)

    def test_comb_support(self):
        # brute-force 16-point transform of a period-4 comb as the oracle
        layout = RegisterLayout((("a", 4),))
        comb = normalize(
            state_from_terms(layout, [({"a": x}, 1.0) for x in (1, 5, 9, 13)])
        )
        expected = np.array(
            [
                sum(np.exp(2j * np.pi * x * z / 16) * comb.amplitudes[x] for x in range(16))
                / math.sqrt(16)
                for z in range(16)
            ]
        )
        out = qft(comb, "a")
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)
        support = set(np.nonzero(np.abs(out.amplitudes) > 1e-12)[0])
        assert support == {0, 4, 8, 12}

    def test_unitarity_preserves_overlaps(self):
        layout = RegisterLayout((("a", 3), ("v", 2)))
        rng = np.random.default_rng(2)
        x, y = random_state(layout, rng), random_state(layout, rng)
        assert inner_product(qft(x, "a"), qft(y, "a")) == pytest.approx(
            inner_product(x, y), abs=1e-12
        )


class TestFunctionGates:
    def test_xor_maps_single_term(self):
        oracle = deutsch_family()[0b01]
        layout = RegisterLayout((("a", 1), ("v", 1)))
        out = apply_function_xor(make_basis_state(layout, {"a": 1, "v": 0}), oracle, "a", "v")
        assert out.amplitude({"a": 1, "v": 1}) == 1.0

    def test_xor_self_inverse(self):
        oracle = build_two_to_one(3, 5, np.random.default_rng(3))
        layout = RegisterLayout((("a", 3), ("v", 3)))
        state = random_state(layout, np.random.default_rng(4))
        back = apply_function_xor(
            apply_function_xor(state, oracle, "a", "v"), oracle, "a", "v"
        )
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)

    def test_phase_kickback_against_minus_state(self):
        # expanding |x>(|0>-|1>)/sqrt2 -> |x>(|f>-|1^f>)/sqrt2 = (-1)^f |x>(|0>-|1>)/sqrt2
        oracle = kronecker_family(2)[3]
        layout = RegisterLayout((("a", 2), ("v", 1)))
        rng = np.random.default_rng(5)
        weights = rng.normal(size=4) + 1j * rng.normal(size=4)
        weights /= np.linalg.norm(weights)
        state = state_from_terms(
            layout,
            [({"a": x, "v": v}, w * (RT2 if v == 0 else -RT2))
             for x, w in enumerate(weights) for v in range(2)],
        )
        out = apply_function_xor(state, oracle, "a", "v")
        expected = state_from_terms(
            layout,
            [({"a": x, "v": v}, (-1.0) ** oracle.value(x) * w * (RT2 if v == 0 else -RT2))
             for x, w in enumerate(weights) for v in range(2)],
        )
        np.testing.assert_allclose(out.amplitudes, expected.amplitudes, atol=1e-12)
        via_phase = apply_phase_oracle(state, oracle, "a")
        np.testing.assert_allclose(out.amplitudes, via_phase.amplitudes, atol=1e-12)

    def test_add_matches_xor_on_cleared_output(self):
        oracle = build_two_to_one(2, 2, (3, 1))
        layout = RegisterLayout((("a", 2), ("v", 2)))
        state = hadamard(make_basis_state(layout, {"a": 0, "v": 0}), "a")
        np.testing.assert_allclose(
            apply_function_add(state, oracle, "a", "v").amplitudes,
            apply_function_xor(state, oracle, "a", "v").amplitudes,
            atol=1e-15,
        )

    def test_add_entangles_argument_with_value(self):
        oracle = build_two_to_one(2, 2, (0, 1), family="two_to_one_arith")
        layout = RegisterLayout((("a", 2), ("v", 2)))
        state = hadamard(make_basis_state(layout, {"a": 0, "v": 0}), "a")
        out = apply_function_add(state, oracle, "a", "v")
        expected = state_from_terms(layout, [({"a": x, "v": x % 2}, 0.5) for x in range(4)])
        np.testing.assert_allclose(out.amplitudes, expected.amplitudes, atol=1e-15)

    def test_modexp_on_uniform_argument(self):
        oracle = build_modexp(7, 15, 4)
        layout = RegisterLayout((("a", 4), ("v", 4)))
        state = hadamard(make_basis_state(layout, {"a": 0, "v": 0}), "a")
        out = apply_function_add(state, oracle, "a", "v")
        expected = state_from_terms(
            layout, [({"a": x, "v": pow(7, x, 15)}, 0.25) for x in range(16)]
        )
        np.testing.assert_allclose(out.amplitudes, expected.amplitudes, atol=1e-15)

    def test_unitary_modular_addition(self):
        oracle = build_modexp(2, 15, 3)
        layout = RegisterLayout((("a", 3), ("v", 4)))
        rng = np.random.default_rng(6)
        x, y = random_state(layout, rng), random_state(layout, rng)
        gx = apply_function_add(x, oracle, "a", "v")
        gy = apply_function_add(y, oracle, "a", "v")
        assert inner_product(gx, gy) == pytest.approx(inner_product(x, y), abs=1e-12)

    def test_width_mismatch(self):
        oracle = build_modexp(7, 15, 4)
        layout = RegisterLayout((("a", 3), ("v", 4)))
        with pytest.raises(RegisterError):
            apply_function_add(make_basis_state(layout, {}), oracle, "a", "v")

    def test_repeated_register_rejected(self):
        # reading and writing one register is no permutation of the basis
        layout = RegisterLayout((("x", 1),))
        state = state_from_terms(layout, [({"x": 0}, 0.6), ({"x": 1}, 0.8)])
        with pytest.raises(RegisterError):
            apply_function_xor(state, deutsch_family()[0b01], "x", "x")
        with pytest.raises(RegisterError):
            apply_function_add(state, deutsch_family()[0b01], "x", "x")


class TestDiffusion:
    def test_uniform_is_fixed_point(self):
        layout = RegisterLayout((("a", 2),))
        uniform = hadamard(make_basis_state(layout, {"a": 0}), "a")
        out = grover_diffusion(uniform, "a")
        np.testing.assert_allclose(out.amplitudes, uniform.amplitudes, atol=1e-12)

    def test_single_round_search_matrix_product(self):
        # oracle: 4x4 matrix product computed explicitly
        mark = 2
        sign_flip = np.diag([(-1.0) ** (x == mark) for x in range(4)])
        mean_inversion = np.full((4, 4), 0.5) - np.eye(4)
        uniform = np.full(4, 0.5)
        expected = mean_inversion @ sign_flip @ uniform
        np.testing.assert_allclose(expected, np.eye(4)[mark], atol=1e-12)

        layout = RegisterLayout((("a", 2),))
        state = hadamard(make_basis_state(layout, {"a": 0}), "a")
        flipped = apply_phase_oracle(state, kronecker_family(2)[mark], "a")
        out = grover_diffusion(flipped, "a")
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_self_inverse(self):
        layout = RegisterLayout((("a", 3),))
        state = random_state(layout, np.random.default_rng(7))
        back = grover_diffusion(grover_diffusion(state, "a"), "a")
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)


class TestControlledFunctionGate:
    def test_sharp_mode_matches_plain_gate(self):
        family = deutsch_family()
        layout = RegisterLayout((("m", 2), ("a", 1), ("v", 1)))
        state = hadamard(make_basis_state(layout, {"m": 1, "a": 0, "v": 0}), "a")
        controlled = apply_function_xor_controlled(state, family, "m", "a", "v")
        plain = apply_function_xor(state, family[1], "a", "v")
        np.testing.assert_allclose(controlled.amplitudes, plain.amplitudes, atol=1e-15)

    def test_mode_register_too_narrow(self):
        family = deutsch_family()
        layout = RegisterLayout((("m", 1), ("a", 1), ("v", 1)))
        with pytest.raises(RegisterError):
            apply_function_xor_controlled(
                make_basis_state(layout, {}), family, "m", "a", "v"
            )

    def test_support_outside_family_rejected(self):
        family = deutsch_family()[:3]
        layout = RegisterLayout((("m", 2), ("a", 1), ("v", 1)))
        state = make_basis_state(layout, {"m": 3, "a": 0, "v": 0})
        with pytest.raises(RangeError):
            apply_function_xor_controlled(state, family, "m", "a", "v")

    def test_mode_register_left_unchanged(self):
        family = kronecker_family(2)
        layout = RegisterLayout((("m", 2), ("a", 2), ("v", 1)))
        state = hadamard(hadamard(make_basis_state(layout, {}), "m"), "a")
        out = apply_function_xor_controlled(state, family, "m", "a", "v")
        before = outcome_distribution(state, "m").as_dict()
        after = outcome_distribution(out, "m").as_dict()
        assert before == pytest.approx(after)


class TestGateLocality:
    def test_gate_on_one_register_leaves_product_structure(self):
        layout = RegisterLayout((("a", 2), ("v", 2)))
        rng = np.random.default_rng(8)
        left = rng.normal(size=4) + 1j * rng.normal(size=4)
        right = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = normalize(StateVector(layout, np.kron(left, right)))
        before = outcome_distribution(state, "v").as_dict()
        for gate in (lambda s: hadamard(s, "a"), lambda s: qft(s, "a"),
                     lambda s: grover_diffusion(s, "a")):
            out = gate(state)
            assert schmidt_rank(out, (("a",), ("v",))) == 1
            assert outcome_distribution(out, "v").as_dict() == pytest.approx(before)


class TestGateSpec:
    def test_apply_dispatch(self):
        layout = RegisterLayout((("a", 2), ("v", 2)))
        state = make_basis_state(layout, {"a": 0, "v": 0})
        via_spec = GateSpec("hadamard", ("a",)).apply(state)
        np.testing.assert_allclose(via_spec.amplitudes, hadamard(state, "a").amplitudes)

    def test_unknown_kind_rejected(self):
        with pytest.raises(RegisterError):
            GateSpec("toffoli", ("a",))

    def test_repeated_register_rejected(self):
        with pytest.raises(RegisterError):
            GateSpec("function-xor", ("x", "x"), oracle=deutsch_family()[0b01])
        with pytest.raises(RegisterError):
            GateSpec("function-xor-controlled", ("m", "x", "m"), family=tuple(deutsch_family()))


# Each kind's register count and payload field, written down here independently of
# gates.py: a GateSpec must match them when it is built.
KIND_SHAPES = {
    "hadamard": (1, None),
    "qft": (1, None),
    "inverse-qft": (1, None),
    "function-xor": (2, "oracle"),
    "function-add": (2, "oracle"),
    "function-xor-controlled": (3, "family"),
    "phase-oracle": (1, "oracle"),
    "diffusion": (1, None),
    "phase": (1, "phases"),
}
PAYLOADS = {"oracle": deutsch_family()[0b01], "family": deutsch_family(), "phases": [0.0, 1.0]}
NAMES = ("r0", "r1", "r2", "r3")


def gate_spec(kind, count=None, **payload):
    """A GateSpec of the kind on count registers (its own count if None), given the
    payload fields that are passed, or its own payload if none are."""
    own_count, own_payload = KIND_SHAPES[kind]
    if not payload and own_payload:
        payload = {own_payload: PAYLOADS[own_payload]}
    return GateSpec(kind, NAMES[: own_count if count is None else count], **payload)


class TestGateSpecMatchesItsKind:
    def test_the_nine_kinds_in_order(self):
        assert gates.GATE_KINDS == tuple(KIND_SHAPES)

    @pytest.mark.parametrize("kind", KIND_SHAPES)
    def test_well_formed_spec_builds(self, kind):
        spec = gate_spec(kind)
        assert len(spec.registers) == KIND_SHAPES[kind][0]

    @pytest.mark.parametrize("offset", [-1, 1])
    @pytest.mark.parametrize("kind", KIND_SHAPES)
    def test_one_register_too_many_or_too_few(self, kind, offset):
        with pytest.raises(RegisterError, match="distinct registers"):
            gate_spec(kind, KIND_SHAPES[kind][0] + offset)

    @pytest.mark.parametrize("kind", [kind for kind, (_, field) in KIND_SHAPES.items() if field])
    def test_missing_payload(self, kind):
        with pytest.raises(RegisterError, match=f"takes {KIND_SHAPES[kind][1]}, got none"):
            gate_spec(kind, **{name: None for name in PAYLOADS})

    @pytest.mark.parametrize(
        "kind, field",
        [
            (kind, field)
            for kind, (_, own) in KIND_SHAPES.items()
            for field in PAYLOADS
            if field != own
        ],
    )
    def test_payload_the_kind_does_not_take(self, kind, field):
        own = KIND_SHAPES[kind][1]
        payload = {field: PAYLOADS[field], **({own: PAYLOADS[own]} if own else {})}
        with pytest.raises(RegisterError, match="takes"):
            gate_spec(kind, **payload)

    def test_qft_with_an_oracle_is_refused(self):
        with pytest.raises(RegisterError, match="qft gate takes no payload, got"):
            GateSpec("qft", ("a",), oracle=deutsch_family()[0])

    @pytest.mark.parametrize("kind", KIND_SHAPES)
    def test_uses_oracle_reads_the_kind(self, kind):
        oracle_kinds = {"phase-oracle", "function-xor", "function-add", "function-xor-controlled"}
        assert gate_spec(kind).uses_oracle == (kind in oracle_kinds)

    def test_kernel_is_looked_up_when_applied(self, monkeypatch):
        """A kernel replaced on the module after import is the one a GateSpec calls."""
        calls = []
        kernel = gates.hadamard
        monkeypatch.setattr(gates, "hadamard", lambda *args: calls.append(args) or kernel(*args))
        state = make_basis_state(RegisterLayout((("a", 2),)), {"a": 0})
        GateSpec("hadamard", ("a",)).apply(state)
        assert len(calls) == 1


# Dense references, kept only in the tests: every register kernel must match
# the full operator I (x) M (x) I built from an explicit d x d matrix M.
def dense_hadamard(width):
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    out = np.eye(1)
    for _ in range(width):
        out = np.kron(out, h1)
    return out


def dense_fourier(width, sign):
    dim = 1 << width
    grid = np.outer(np.arange(dim), np.arange(dim))
    return np.exp(sign * 2j * np.pi * grid / dim) / math.sqrt(dim)


def dense_diffusion(width):
    dim = 1 << width
    return np.full((dim, dim), 2.0 / dim) - np.eye(dim)


def apply_dense(state, register, matrix):
    layout = state.layout
    right = 1 << layout.shift(register)
    left = layout.dim // (right * matrix.shape[0])
    return np.kron(np.kron(np.eye(left), matrix), np.eye(right)) @ state.amplitudes


def target_layouts():
    """Target register "t" of width 1..6, placed first, in the middle and last."""
    for width in range(1, 7):
        for names in (("t", "p", "q"), ("p", "t", "q"), ("p", "q", "t")):
            widths = {"t": width, "p": 2, "q": 1}
            yield RegisterLayout(tuple((name, widths[name]) for name in names))


def brute_force_permutation(state, target, new_value):
    """Move each basis state's amplitude to the label whose target register
    holds new_value(label), one basis state at a time."""
    layout = state.layout
    out = np.zeros(layout.dim, dtype=complex)
    for index in range(layout.dim):
        label = layout.label_of(index)
        moved = dict(label, **{target: new_value(label)})
        out[layout.index_of(moved)] += state.amplitudes[index]
    return out


class TestKernelsAgainstDenseReference:
    @pytest.mark.parametrize(
        "layout", list(target_layouts()), ids=lambda lay: str(lay.registers)
    )
    def test_register_kernels(self, layout):
        rng = np.random.default_rng(10 * layout.total_width + layout.names.index("t"))
        state = random_state(layout, rng)
        width = layout.width("t")
        dim = 1 << width
        phases = rng.uniform(0.0, 2.0 * np.pi, size=dim)
        mark = int(rng.integers(dim))
        cases = [
            (hadamard(state, "t"), dense_hadamard(width)),
            (qft(state, "t"), dense_fourier(width, +1)),
            (qft(state, "t", inverse=True), dense_fourier(width, -1)),
            (grover_diffusion(state, "t"), dense_diffusion(width)),
            (apply_phases(state, "t", phases), np.diag(np.exp(1j * phases))),
            (
                apply_phase_oracle(state, kronecker_family(width)[mark], "t"),
                np.diag([-1.0 if x == mark else 1.0 for x in range(dim)]),
            ),
        ]
        for out, matrix in cases:
            np.testing.assert_allclose(
                out.amplitudes, apply_dense(state, "t", matrix), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("names", list(itertools.permutations(("a", "v", "p"))))
    def test_function_gates(self, names):
        widths = {"a": 3, "v": 2, "p": 1}
        layout = RegisterLayout(tuple((name, widths[name]) for name in names))
        state = random_state(layout, np.random.default_rng(3 * names.index("a") + names.index("v")))
        oracle = build_modexp(2, 3, 3)
        xor = apply_function_xor(state, oracle, "a", "v")
        expected = brute_force_permutation(
            state, "v", lambda lab: lab["v"] ^ oracle.value(lab["a"])
        )
        np.testing.assert_allclose(xor.amplitudes, expected, rtol=0, atol=1e-12)
        add = apply_function_add(state, oracle, "a", "v")
        expected = brute_force_permutation(
            state, "v", lambda lab: (lab["v"] + oracle.value(lab["a"])) % 4
        )
        np.testing.assert_allclose(add.amplitudes, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("names", list(itertools.permutations(("m", "a", "v", "p"))))
    def test_controlled_gate(self, names):
        widths = {"m": 2, "a": 2, "v": 1, "p": 1}
        layout = RegisterLayout(tuple((name, widths[name]) for name in names))
        rng = np.random.default_rng(names.index("m") + 4 * names.index("a"))
        full = random_state(layout, rng)
        # a family shorter than the mode register needs a state without support past it
        for family in (kronecker_family(2), kronecker_family(2)[:3]):
            inside = layout.values("m") < len(family)
            state = normalize(StateVector(layout, np.where(inside, full.amplitudes, 0.0)))
            out = apply_function_xor_controlled(state, family, "m", "a", "v")
            tables = [oracle.table for oracle in family] + [(0, 0, 0, 0)]
            expected = brute_force_permutation(
                state, "v", lambda lab: lab["v"] ^ tables[lab["m"]][lab["a"]]
            )
            np.testing.assert_allclose(out.amplitudes, expected, rtol=0, atol=1e-12)


@st.composite
def masked_states(draw):
    """A random state whose (left, right) fibers along the target register "t" are
    zeroed by a mask with no live fiber, one, some or all, with "t" first, in the
    middle or last; live fibers may hold exact zeros too."""
    width = draw(st.integers(1, 5))
    names = draw(st.sampled_from([("t", "p", "q"), ("p", "t", "q"), ("p", "q", "t")]))
    widths = {"t": width, "p": draw(st.integers(1, 2)), "q": draw(st.integers(1, 2))}
    layout = RegisterLayout(tuple((name, widths[name]) for name in names))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    amps[rng.random(layout.dim) < 0.2] = 0.0
    view = amps.reshape(-1, 1 << width, 1 << layout.shift("t"))
    fibers = (view.shape[0], view.shape[2])
    kind = draw(st.sampled_from(["none", "one", "some", "all"]))
    if kind == "none":
        live = np.zeros(fibers, dtype=bool)
    elif kind == "one":
        live = np.zeros(fibers, dtype=bool)
        live[rng.integers(fibers[0]), rng.integers(fibers[1])] = True
    elif kind == "some":
        live = rng.random(fibers) < 0.5
    else:
        live = np.ones(fibers, dtype=bool)
    by_fiber = view.transpose(0, 2, 1)
    by_fiber[~live] = 0.0
    # a live fiber keeps at least one nonzero amplitude
    by_fiber[live, 0] = 1.0
    return StateVector(layout, amps), live


class TestLiveFiberKernels:
    @settings(max_examples=150, deadline=None)
    @given(masked_states())
    def test_kernels_match_dense_reference(self, case):
        state, live = case
        width = state.layout.width("t")
        cases = [
            (hadamard(state, "t"), dense_hadamard(width)),
            (qft(state, "t"), dense_fourier(width, +1)),
            (qft(state, "t", inverse=True), dense_fourier(width, -1)),
            (grover_diffusion(state, "t"), dense_diffusion(width)),
        ]
        for out, matrix in cases:
            np.testing.assert_allclose(
                out.amplitudes, apply_dense(state, "t", matrix), rtol=0, atol=1e-12
            )
            # fibers that were all zero stay exactly zero
            view = out.amplitudes.reshape(-1, 1 << width, 1 << state.layout.shift("t"))
            assert not view.transpose(0, 2, 1)[~live].any()

    @settings(max_examples=150, deadline=None)
    @given(masked_states(), st.sampled_from(["t", "p", "q"]), st.data())
    def test_collapse_equals_normalized_projection(self, case, register, data):
        state, _ = case
        if not state.amplitudes.any():
            return
        state = normalize(state)
        outcomes = [eig for eig, _ in outcome_distribution(state, register).entries]
        eigenvalue = data.draw(st.sampled_from(outcomes))
        forced = measure_forced(state, register, eigenvalue).post_state.amplitudes
        # measure_forced is a one-step run of the outcome tree: that run's branch exactly
        point = MeasurementPoint(register, eigenvalue)
        circuit = StagedCircuit(state, (("t1", point),), register, ())
        assert np.array_equal(forced, execute(circuit, None).state_at("t1").amplitudes)
        # the branch divides by the norm of its kept amplitudes, normalize by the norm of
        # the whole projected array: the same squares, summed in another order
        expected = normalize(project(state, ProjectorSpec(register, eigenvalue))).amplitudes
        assert np.array_equal(np.flatnonzero(forced), np.flatnonzero(expected))
        np.testing.assert_allclose(forced, expected, rtol=8 * np.finfo(float).eps, atol=0)


@st.composite
def live_amplitude_states(draw, widths):
    """A random state over the registers {name: width}, in a drawn order, with no
    live amplitude, one, some or all."""
    names = draw(st.permutations(sorted(widths)))
    layout = RegisterLayout(tuple((name, widths[name]) for name in names))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    kind = draw(st.sampled_from(["none", "one", "some", "all"]))
    if kind == "none":
        amps[:] = 0.0
    elif kind == "one":
        amps[np.arange(layout.dim) != rng.integers(layout.dim)] = 0.0
    elif kind == "some":
        amps[rng.random(layout.dim) < 0.5] = 0.0
    # purely real and purely imaginary amplitudes are live too
    amps.real[rng.random(layout.dim) < 0.2] = 0.0
    amps.imag[rng.random(layout.dim) < 0.2] = 0.0
    return StateVector(layout, amps)


def register_values(layout, name):
    return (np.arange(layout.dim) >> layout.shift(name)) & (layout.register_dim(name) - 1)


# Blocks for the permutation kernel: its own, and ones small enough that these
# small states span many blocks.
PERMUTE_BLOCKS = st.sampled_from([gates._PERMUTE_BLOCK, 8, 1])


class TestLivePermutationKernel:
    """The permutation kernel moves only live amplitudes; it must equal the
    one-basis-state-at-a-time reference bit for bit, in every register order."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.sampled_from([(2, 3), (3, 7)]), st.integers(1, 2), st.data())
    def test_function_gates(self, width, modexp, spectator, data):
        oracle = build_modexp(*modexp, width)
        d = oracle.codomain_size
        widths = {"a": width, "v": oracle.codomain_width, "p": spectator}
        state = data.draw(live_amplitude_states(widths))
        xor = brute_force_permutation(state, "v", lambda lab: lab["v"] ^ oracle.value(lab["a"]))
        add = brute_force_permutation(
            state, "v", lambda lab: (lab["v"] + oracle.value(lab["a"])) % d
        )
        with mock.patch.object(gates, "_PERMUTE_BLOCK", data.draw(PERMUTE_BLOCKS)):
            assert np.array_equal(apply_function_xor(state, oracle, "a", "v").amplitudes, xor)
            assert np.array_equal(apply_function_add(state, oracle, "a", "v").amplitudes, add)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([4, 3]), st.data())
    def test_controlled_gate(self, members, data):
        family = kronecker_family(2)[:members]
        state = data.draw(live_amplitude_states({"m": 2, "a": 2, "v": 1, "p": 1}))
        # a family shorter than the mode register needs a state without support past it
        inside = register_values(state.layout, "m") < members
        state = StateVector(state.layout, np.where(inside, state.amplitudes, 0.0))
        tables = [oracle.table for oracle in family] + [(0, 0, 0, 0)]
        expected = brute_force_permutation(
            state, "v", lambda lab: lab["v"] ^ tables[lab["m"]][lab["a"]]
        )
        with mock.patch.object(gates, "_PERMUTE_BLOCK", data.draw(PERMUTE_BLOCKS)):
            out = apply_function_xor_controlled(state, family, "m", "a", "v")
        assert np.array_equal(out.amplitudes, expected)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_premeasurement(self, width, data):
        state = data.draw(live_amplitude_states({"y": width, "ptr": width, "p": 1}))
        sharp = register_values(state.layout, "ptr") == 0
        state = StateVector(state.layout, np.where(sharp, state.amplitudes, 0.0))
        expected = brute_force_permutation(state, "ptr", lambda lab: lab["ptr"] ^ lab["y"])
        with mock.patch.object(gates, "_PERMUTE_BLOCK", data.draw(PERMUTE_BLOCKS)):
            out = von_neumann_premeasurement(state, "y", "ptr")
        assert np.array_equal(out.amplitudes, expected)


class TestPermutationKernelOnSpecialValues:
    """NaN and inf amplitudes are live: the kernel moves them as it moves finite
    ones, at every block size."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.sampled_from([1, 8, gates._PERMUTE_BLOCK]), st.data())
    def test_function_add_moves_nan_and_inf(self, width, block, data):
        oracle = build_modexp(2, 3, width)
        state = data.draw(live_amplitude_states({"a": width, "v": 2, "p": 1}))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        amps = state.amplitudes.copy()
        for part in (amps.real, amps.imag):
            special = rng.random(amps.size) < 0.15
            part[special] = rng.choice([np.nan, np.inf, -np.inf, -0.0], size=int(special.sum()))
        state = StateVector(state.layout, amps)
        expected = brute_force_permutation(
            state, "v", lambda lab: (lab["v"] + oracle.value(lab["a"])) % 4
        )
        with mock.patch.object(gates, "_PERMUTE_BLOCK", block):
            out = apply_function_add(state, oracle, "a", "v").amplitudes
        np.testing.assert_array_equal(out, expected)
        assert np.isnan(out).sum() == np.isnan(amps).sum()
        assert np.isinf(out).sum() == np.isinf(amps).sum()


def peak_over_state(fn, state):
    """tracemalloc peak of fn(), as a multiple of the state's amplitude bytes."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / state.amplitudes.nbytes


class TestPeakMemory:
    """On an 18-qubit Simon trace, kernels on a state with one live fiber and the
    collapse of v allocate about one output array; so does a dense QFT, whose output is
    the new state, and a dense Hadamard adds one half-state difference of its butterflies;
    a permutation of a dense state allocates about one and its block-sized index
    temporaries."""

    @pytest.fixture(scope="class")
    def checkpoints(self):
        oracle = build_two_to_one(9, 5, np.random.default_rng(0))
        return dict(run_simon(oracle, np.random.default_rng(1)).checkpoints)

    def test_one_live_fiber(self, checkpoints):
        t3 = checkpoints["t3"]
        assert np.count_nonzero(t3.amplitudes) == 2
        assert peak_over_state(lambda: hadamard(t3, "a"), t3) <= 1.1
        assert peak_over_state(lambda: qft(t3, "a"), t3) <= 1.1

    def test_measure_v(self, checkpoints):
        t2 = checkpoints["t2"]
        assert peak_over_state(lambda: measure(t2, "v", np.random.default_rng(2)), t2) <= 1.1

    def test_dense_hadamard(self, checkpoints):
        layout = checkpoints["t2"].layout
        rng = np.random.default_rng(3)
        dense = StateVector(layout, rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim))
        assert peak_over_state(lambda: hadamard(dense, "a"), dense) <= 2.1

    def test_dense_box_kernels_adopt_their_output(self, checkpoints):
        layout = checkpoints["t2"].layout
        rng = np.random.default_rng(3)
        dense = StateVector(layout, rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim))
        for register in ("a", "v"):
            assert peak_over_state(lambda: hadamard(dense, register), dense) <= 1.7
            assert peak_over_state(lambda: qft(dense, register), dense) <= 1.1

    def test_permutation_on_one_live_fiber(self, checkpoints):
        t1 = checkpoints["t1"]
        identity = np.arange(t1.layout.register_dim("a"))
        move = lambda: _permute_register(t1, ("a", "v"), identity, np.bitwise_xor)
        assert peak_over_state(move, t1) <= 1.1

    def test_permutation_on_a_dense_state(self, checkpoints):
        layout = checkpoints["t1"].layout
        rng = np.random.default_rng(4)
        dense = StateVector(layout, rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim))
        identity = np.arange(layout.register_dim("a"))
        move = lambda: _permute_register(dense, ("a", "v"), identity, np.bitwise_xor)
        assert peak_over_state(move, dense) <= 1.5


# Differential tests: random staged circuits run by execute and by a dense executor
# that lives only here. It applies each register gate as its explicit d x d matrix (the
# Hadamard and Fourier references above, or diagonal phases) along the register's axis,
# moves each function gate's amplitudes one basis state at a time, and measures through
# explicit projectors.

ONE_REGISTER_KINDS = ("hadamard", "qft", "inverse-qft", "diffusion", "phase", "phase-oracle")
KINDS_BY_REGISTERS = {
    1: ONE_REGISTER_KINDS,
    2: ONE_REGISTER_KINDS + ("function-xor", "function-add"),
    3: gates.GATE_KINDS,
    4: gates.GATE_KINDS,
}


def oracle_for(in_width, out_width, choice):
    """Some oracle from in_width to out_width bits; choice picks among several."""
    if out_width == 1:
        return kronecker_family(in_width)[choice % (1 << in_width)]
    if in_width == out_width:
        r = 1 + choice % ((1 << in_width) - 1)
        return build_two_to_one(in_width, r, np.random.default_rng(choice))
    # 2^w - 1 is odd and needs exactly w bits
    return build_modexp(2, (1 << out_width) - 1, in_width)


@st.composite
def random_states(draw, least_registers=1, max_qubits=10, most_registers=3, least_qubits=1):
    """A normalized random state on least_registers to most_registers registers r0, r1,
    ... of 1 to 4 qubits each and least_qubits to max_qubits in all, and an rng for the
    further choices of an example."""
    count = draw(st.integers(least_registers, most_registers))
    widths = []
    for i in range(count):
        room = max_qubits - sum(widths) - (count - i - 1)
        need = least_qubits - sum(widths) - 4 * (count - i - 1)
        widths.append(draw(st.integers(max(1, need), min(4, room))))
    layout = RegisterLayout(tuple((f"r{i}", width) for i, width in enumerate(widths)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    amps[rng.random(layout.dim) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    amps[0] = 1.0  # never all zero, so it normalizes
    return normalize(StateVector(layout, amps)), rng


def arity(kind):
    """How many registers a gate of this kind acts on."""
    return 3 if kind == "function-xor-controlled" else 2 if kind.startswith("function") else 1


def draw_gate(draw, layout, rng, kind, names):
    """A gate of the given kind on registers drawn from names, in a random role order."""
    registers = tuple(draw(st.permutations(names))[: arity(kind)])
    choice = draw(st.integers(0, 2**16))
    if kind == "phase":
        phases = rng.uniform(0.0, 2.0 * np.pi, size=layout.register_dim(registers[0]))
        return GateSpec(kind, registers, phases=tuple(phases))
    if kind == "phase-oracle":
        return GateSpec(kind, registers, oracle=oracle_for(layout.width(registers[0]), 1, choice))
    if kind == "function-xor-controlled":
        mode, x, y = registers
        family = tuple(
            oracle_for(layout.width(x), layout.width(y), choice + k)
            for k in range(layout.register_dim(mode))
        )
        return GateSpec(kind, registers, family=family)
    if kind.startswith("function"):
        oracle = oracle_for(layout.width(registers[0]), layout.width(registers[1]), choice)
        return GateSpec(kind, registers, oracle=oracle)
    return GateSpec(kind, registers)


def measure_point(point, state, rng):
    """The record of a measurement point applied to state, as a run applies it: the
    outcome is sampled with rng, unless the point fixes it."""
    if point.outcome is None:
        return measure(state, point.register, rng)
    return measure_forced(state, point.register, point.outcome)


@st.composite
def random_runs(draw, least_registers=1, max_qubits=10, most_registers=3, least_qubits=1):
    """A random circuit and the seed of one run of it: least_registers to most_registers
    registers of least_qubits to max_qubits qubits in all (see random_states), a random
    normalized initial state, and up to 8 steps drawn from the
    nine gate kinds, sampled measurement points and forced ones, labelled with new
    labels, repeated labels and None.

    The circuit is stepped as it is drawn, as execute steps it under the seed, so that
    each forced point names an outcome that the run reaches with probability above 1e-6."""
    state, rng = draw(random_states(least_registers, max_qubits, most_registers, least_qubits))
    names = state.layout.names
    seed = draw(st.integers(0, 2**32 - 1))
    run_rng = np.random.default_rng(seed)
    initial = state
    steps, labels = [], 0
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("measure", "forced") + KINDS_BY_REGISTERS[len(names)]))
        if kind == "measure":
            step = MeasurementPoint(draw(st.sampled_from(names)))
        elif kind == "forced":
            register = draw(st.sampled_from(names))
            dist = outcome_distribution(state, register)
            step = MeasurementPoint(
                register, draw(st.sampled_from([o for o, p in dist.entries if p > 1e-6]))
            )
        else:
            step = draw_gate(draw, state.layout, rng, kind, names)
        if isinstance(step, MeasurementPoint):
            state = measure_point(step, state, run_rng).post_state
        else:
            state = step.apply(state)
        how = draw(st.sampled_from(["new", "same", "none"]))
        if how == "none":
            label = None
        elif how == "same" and steps and steps[-1][0] is not None:
            label = steps[-1][0]
        else:
            labels += 1
            label = f"t{labels}"
        steps.append((label, step))
    return StagedCircuit(initial, steps, names[0], ()), seed


@st.composite
def random_gates(draw, kind, max_qubits=10):
    """A normalized random state and one gate of the given kind on it."""
    state, rng = draw(random_states(arity(kind), max_qubits))
    return state, draw_gate(draw, state.layout, rng, kind, state.layout.names)


@st.composite
def deferred_circuits(draw):
    """A gate-only circuit on 2 or 3 registers with its gates labelled g0, g1, ..., and
    two labels, now and later, such that no gate after now up to later acts on the
    deferred register. The gates before now and after later act on any registers."""
    state, rng = draw(random_states(2))
    names = state.layout.names
    deferred = draw(st.sampled_from(names))
    others = tuple(name for name in names if name != deferred)
    finals = draw(st.permutations(others))[: draw(st.integers(1, len(others)))]
    gates, ends = [], []
    for allowed, least in ((names, 1), (others, 1), (names, 0)):
        for _ in range(draw(st.integers(least, 3))):
            kind = draw(st.sampled_from(KINDS_BY_REGISTERS[len(allowed)]))
            gates.append(draw_gate(draw, state.layout, rng, kind, allowed))
        ends.append(f"g{len(gates) - 1}")
    steps = [(f"g{i}", gate) for i, gate in enumerate(gates)]
    return StagedCircuit(state, steps, deferred, tuple(finals)), ends[0], ends[1]


def dense_gate(layout, step, amps):
    """The amplitudes amps after one gate step, as a new array."""
    kind, registers = step.kind, step.registers
    if kind.startswith("function"):
        *controls, out = registers

        def new_value(label):
            if kind == "function-xor-controlled":
                value = step.family[label[controls[0]]].value(label[controls[1]])
            else:
                value = step.oracle.value(label[controls[0]])
            if kind == "function-add":
                return (label[out] + value) % layout.register_dim(out)
            return label[out] ^ value

        return brute_force_permutation(StateVector(layout, amps), out, new_value)
    width = layout.width(registers[0])
    register_matrix = {
        "hadamard": lambda: dense_hadamard(width),
        "qft": lambda: dense_fourier(width, +1),
        "inverse-qft": lambda: dense_fourier(width, -1),
        "diffusion": lambda: dense_diffusion(width),
        "phase": lambda: np.diag(np.exp(1j * np.array(step.phases))),
        "phase-oracle": lambda: np.diag(1.0 - 2.0 * np.array(step.oracle.table)),
    }[kind]()
    d = register_matrix.shape[0]
    view = amps.reshape(-1, d, 1 << layout.shift(registers[0]))
    return np.einsum("ij,ljr->lir", register_matrix, view).reshape(-1)


def dense_measure(layout, register, amps, rng, outcome=None):
    """Born sampling through explicit projectors, with the rng drawn as measure draws it;
    a given outcome is collapsed onto without drawing, as measure_forced does."""
    d = layout.register_dim(register)
    right = 1 << layout.shift(register)
    left = layout.dim // (right * d)
    projectors = [np.kron(np.kron(np.ones(left), np.eye(d)[k]), np.ones(right)) for k in range(d)]
    if outcome is None:
        probs = np.array([np.vdot(p * amps, p * amps).real for p in projectors])
        outcomes = np.flatnonzero(probs >= 1e-14)
        kept = probs[outcomes]
        outcome = int(outcomes[rng.choice(len(kept), p=kept / kept.sum())])
    branch = projectors[outcome] * amps
    return outcome, branch / np.linalg.norm(branch)


def dense_execute(circuit, rng):
    """(checkpoints, outcomes) of one run, with execute's checkpoint rule."""
    layout = circuit.initial.layout
    amps = circuit.initial.amplitudes.copy()
    checkpoints, outcomes = [("t0", amps)], []
    for i, (label, step) in enumerate(circuit.steps):
        if isinstance(step, MeasurementPoint):
            outcome, amps = dense_measure(layout, step.register, amps, rng, step.outcome)
            outcomes.append(outcome)
        else:
            amps = dense_gate(layout, step, amps)
        following = circuit.steps[i + 1][0] if i + 1 < len(circuit.steps) else None
        if label is not None and label != following:
            checkpoints.append((label, amps))
    return checkpoints, outcomes


def assert_run_matches_the_dense_executor(circuit, seed):
    trace = execute(circuit, np.random.default_rng(seed))
    checkpoints, outcomes = dense_execute(circuit, np.random.default_rng(seed))
    assert [rec.outcome for rec in trace.measurements] == outcomes
    assert trace.labels == [label for label, _ in checkpoints]
    for label, amps in checkpoints:
        np.testing.assert_allclose(trace.state_at(label).amplitudes, amps, rtol=0, atol=1e-12)


class TestRandomCircuitsAgainstDenseExecutor:
    @settings(max_examples=120, deadline=None)
    @given(random_runs())
    def test_every_checkpoint_and_outcome(self, run):
        assert_run_matches_the_dense_executor(*run)

    @settings(max_examples=100, deadline=None)
    @given(random_runs(least_registers=3, max_qubits=12, most_registers=4, least_qubits=11))
    def test_every_checkpoint_and_outcome_on_3_or_4_registers_of_11_or_12_qubits(self, run):
        assert_run_matches_the_dense_executor(*run)

    @settings(max_examples=60, deadline=None)
    @given(random_runs())
    def test_one_circuit_object_under_several_seeds(self, run):
        # Runs of one circuit object share its outcome tree: each must equal, byte for
        # byte, a run of a fresh copy, draw the same numbers, and match the dense
        # executor. A forced point that another seed's path cannot reach raises alike.
        circuit, seed = run
        for offset in range(4):
            run_seed = (seed + offset) % 2**32
            rng, fresh_rng = np.random.default_rng(run_seed), np.random.default_rng(run_seed)
            try:
                fresh = execute(dataclasses.replace(circuit), fresh_rng)
            except DegenerateStateError as exc:
                with pytest.raises(DegenerateStateError) as again:
                    execute(circuit, rng)
                assert str(again.value) == str(exc)
                assert rng.bit_generator.state == fresh_rng.bit_generator.state
                continue
            trace = execute(circuit, rng)
            assert trace_bytes(trace) == trace_bytes(fresh)
            assert rng.bit_generator.state == fresh_rng.bit_generator.state
            # as in random_runs: collapsing onto a branch of probability 1e-6 or less
            # scales rounding noise past the 1e-12 of the dense comparison
            if min((rec.probability for rec in trace.measurements), default=1.0) > 1e-6:
                checkpoints, outcomes = dense_execute(circuit, np.random.default_rng(run_seed))
                assert [rec.outcome for rec in trace.measurements] == outcomes
                assert trace.labels == [label for label, _ in checkpoints]
                for label, amps in checkpoints:
                    np.testing.assert_allclose(
                        trace.state_at(label).amplitudes, amps, rtol=0, atol=1e-12
                    )


def trace_bytes(trace):
    """Everything a trace holds, as bytes: its JSON text, then the raw index and
    amplitude arrays of every checkpoint's support."""
    text = json.dumps(trace.to_json(), sort_keys=True).encode()
    return text + b"".join(s.index.tobytes() + s.values.tobytes() for _, s in trace.checkpoints)


class TestRandomGateProperties:
    @pytest.mark.parametrize("kind", gates.GATE_KINDS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_every_gate_kind_keeps_the_norm(self, kind, data):
        state, gate = data.draw(random_gates(kind))
        assert abs(np.linalg.norm(gate.apply(state).amplitudes) - 1.0) < 1e-12

    @pytest.mark.parametrize("kind", gates.GATE_KINDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_gate_on_a_support_gives_the_support_of_the_gate_on_the_state(self, kind, data):
        # the state is cut to a window of flat indices, so that the box of its live fibers
        # is often smaller than the whole state, and a box kind runs on the support
        state, gate = data.draw(random_gates(kind))
        dim = state.layout.dim
        low = data.draw(st.integers(0, dim - 1))
        high = data.draw(st.integers(low + 1, dim))
        amps = np.zeros(dim, dtype=complex)
        amps[low:high] = state.amplitudes[low:high]
        state = StateVector(state.layout, amps)
        out = gate.apply(hilbert._sparse_view(state))
        expected = gate.apply(state)
        assert out._sparse and not expected._sparse
        assert out.layout == expected.layout
        assert out.index.tobytes() == expected.index.tobytes()
        assert out.values.tobytes() == expected.values.tobytes()
        assert not out.index.flags.writeable and not out.values.flags.writeable

    @pytest.mark.parametrize("kind", ("function-xor", "function-add"))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_function_gates_map_basis_states_to_distinct_basis_states(self, kind, data):
        state, gate = data.draw(random_gates(kind, max_qubits=8))
        layout = state.layout
        images = []
        for index in range(layout.dim):
            out = gate.apply(make_basis_state(layout, layout.label_of(index))).amplitudes
            (image,) = np.flatnonzero(out)
            assert out[image] == 1.0
            images.append(int(image))
        assert sorted(images) == list(range(layout.dim))

    @settings(max_examples=100, deadline=None)
    @given(deferred_circuits())
    def test_deferred_equivalence_on_random_circuits(self, case):
        circuit, now, later = case
        assert deferred_equivalence_check(circuit, now, later)["max_abs_diff"] < 1e-12


def on_both_forms(gate, state):
    """The gate on the state stored as its support, checked byte for byte against the
    support of the gate on the state stored dense."""
    out = gate.apply(hilbert._sparse_view(state))
    expected = gate.apply(state)
    assert out._sparse and not expected._sparse
    assert out.index.tobytes() == expected.index.tobytes()
    assert out.values.tobytes() == expected.values.tobytes()
    return out


class TestSupportDrivers:
    """The edges of the permutation and phase drivers on a support."""

    @pytest.mark.parametrize(
        "kind, combine", [("function-xor", np.bitwise_xor), ("function-add", np.add)]
    )
    def test_moved_indices_out_of_order_are_sorted(self, kind, combine):
        # v is not the last register, and each (a, p) fiber holds every v: f(1) = 2
        # moves v = 0, 1 of a fiber past v = 2, 3, so the moved indices are out of order
        oracle = build_modexp(2, 3, 1)
        layout = RegisterLayout((("a", 1), ("v", 2), ("p", 1)))
        state = random_state(layout, np.random.default_rng(5))
        support = hilbert._sparse_view(state)
        moved = gates._moved(layout, ("a", "v"), oracle.table, combine, support.index)
        assert not (np.diff(moved) > 0).all()
        on_both_forms(GateSpec(kind, ("a", "v"), oracle=oracle), state)

    def test_ascending_moved_indices_reuse_the_values(self):
        # the oracle adds into a last register that holds 0: the entries keep their order
        oracle = build_modexp(2, 3, 3)
        layout = RegisterLayout((("a", 3), ("v", 2)))
        state = hadamard(make_basis_state(layout, {}), "a")
        support = hilbert._sparse_view(state)
        assert apply_function_add(support, oracle, "a", "v").values is support.values
        on_both_forms(GateSpec("function-add", ("a", "v"), oracle=oracle), state)

    @pytest.mark.parametrize("kind", ["hadamard", "qft", "diffusion"])
    def test_a_box_step_on_a_big_support_keeps_no_dense_array_on_it(self, kind):
        # a support bigger than 2/3 of the dense array is made dense for the step, in an
        # array that the state does not keep, so the outcome tree's states stay supports
        layout = RegisterLayout((("a", 3), ("v", 2)))
        state = random_state(layout, np.random.default_rng(6))
        assert 3 * state.index.size > 2 * layout.dim
        out = on_both_forms(GateSpec(kind, ("a",)), state)
        support = hilbert._sparse_view(state)
        GateSpec(kind, ("a",)).apply(support)
        assert out._sparse and "amplitudes" not in vars(support)

    def test_phases_keep_subnormal_amplitudes(self):
        # a nonzero value times a unit factor never rounds to exactly 0, even at the
        # smallest subnormals, so every entry of the support stays, as in the dense product
        tiny = 5e-324
        layout = RegisterLayout((("m", 2), ("a", 2)))
        amps = np.tile([tiny, 1j * tiny, tiny * (1 - 1j), 0.5], 4)
        state = StateVector(layout, amps)
        for phases in np.linspace(0.0, 2.0 * np.pi, 1024).reshape(-1, 4):
            out = on_both_forms(GateSpec("phase", ("m",), phases=phases), state)
            assert out.index.size == layout.dim

    def test_stray_mode_check_reads_the_support(self):
        family = deutsch_family()[:3]
        layout = RegisterLayout((("m", 2), ("a", 1), ("v", 1)))
        gate = GateSpec("function-xor-controlled", ("m", "a", "v"), family=tuple(family))
        amps = np.zeros(layout.dim, dtype=complex)
        amps[layout.index_of({"m": 1})] = 1.0
        amps[layout.index_of({"m": 3, "a": 1})] = 1e-15
        on_both_forms(gate, StateVector(layout, amps))
        amps[layout.index_of({"m": 3, "a": 1})] = 1e-13
        with pytest.raises(RangeError):
            gate.apply(hilbert._sparse_view(StateVector(layout, amps)))

    @pytest.mark.parametrize("stray", [np.nan, complex(0.0, np.nan)])
    @pytest.mark.parametrize("form", ["dense", "support"])
    def test_a_nan_on_a_mode_outside_the_family_is_stray(self, stray, form):
        # a NaN fails every comparison with the stray tolerance, so it is refused
        family = deutsch_family()[:3]
        layout = RegisterLayout((("m", 2), ("a", 1), ("v", 1)))
        gate = GateSpec("function-xor-controlled", ("m", "a", "v"), family=tuple(family))
        amps = np.zeros(layout.dim, dtype=complex)
        amps[layout.index_of({"m": 1})] = 1.0
        amps[layout.index_of({"m": 3, "a": 1})] = stray
        state = StateVector(layout, amps)
        with pytest.raises(RangeError):
            gate.apply(state if form == "dense" else hilbert._sparse_view(state))
