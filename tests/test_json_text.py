"""The CLI's indented-JSON encoder against json.dumps(indent=2, sort_keys=True).

Every JSON command writes through `cli._json_text`, so these tests are what
keep its output byte-for-byte the stdlib encoding: property tests on
generated trees, the TypeErrors json raises, and each command's bytes
against the stdlib encoding of the payload it built. `run` encodes each
trial on its own as it finishes, and each distinct checkpoint once per run,
so its bytes are held to the stdlib encoding of the whole payload, rebuilt
here as one dict.
"""

import json
import math
from collections import Counter
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qregsim import RegisterLayout, StagedCircuit, StateVector, cli, execute, hilbert
from qregsim.algorithms import trace as trace_module
from qregsim.cli import _json_text


def stdlib(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


class Int(int):
    def __repr__(self):
        return "Int(...)"


class Float(float):
    def __repr__(self):
        return "Float(...)"


class Str(str):
    pass


SPECIAL = '"\\/[]{},: \n\r\t\b\f\x00\x1f\x7fé \U0001f600'
texts = st.text(st.characters() | st.sampled_from(SPECIAL), max_size=12)
floats = st.floats() | st.sampled_from(
    [-0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
)
numbers = st.integers() | st.integers(-(2**80), 2**80) | floats | st.booleans()
scalars = (
    st.none()
    | numbers
    | texts
    | st.builds(Int, st.integers())
    | st.builds(Float, floats)
    | st.builds(np.float64, floats)
    | st.builds(Str, texts)
)
# Keys within one dict must be mutually orderable, as sort_keys needs.
trees = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(texts | st.builds(Str, texts), children, max_size=4)
    | st.dictionaries(numbers | st.builds(Int, st.integers()), children, max_size=4)
    | st.dictionaries(st.none(), children, max_size=1),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(trees)
def test_matches_stdlib_on_generated_trees(tree):
    assert _json_text(tree) == stdlib(tree)


@pytest.mark.parametrize(
    "tree",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": ()},
        [[], [[]], {}],
        {"x": [1, 2.5, None, True, False, "s"]},
        {10: "ten", 9: "nine", 2.5: "float", True: "bool"},
        {None: [math.nan, math.inf, -math.inf, -0.0]},
        {math.nan: 1, math.inf: 2, -math.inf: 3},
        "top-level é string",
        Int(7),
        Float(0.1),
        [np.float64(1e16), Int(-3), Str("s")],
    ],
)
def test_matches_stdlib_on_edge_cases(tree):
    assert _json_text(tree) == stdlib(tree)


@pytest.mark.parametrize(
    "tree",
    [
        {1: "int", "a": "str"},
        {None: 0, 1: 0},
        {(1, 2): "tuple key"},
        {"nested": {b"bytes": 0}},
        object(),
        [1, object()],
        {"value": np.int64(3)},
        [np.bool_(True)],
        {1, 2},
    ],
)
def test_raises_type_error_where_stdlib_does(tree):
    with pytest.raises(TypeError) as expected:
        stdlib(tree)
    with pytest.raises(TypeError) as raised:
        _json_text(tree)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--format", "json"],
        ["ledger", "--format", "json", "--n-max", "4", "--trials", "3"],
        ["dump-oracle", "--family", "modexp", "--a", "7", "--L", "15", "--n", "4"],
    ],
    ids=lambda argv: "-".join(argv[:3]),
)
def test_command_writes_the_stdlib_encoding(monkeypatch, capsys, argv):
    payloads = []

    def spy(obj):
        payloads.append(obj)
        return _json_text(obj)

    monkeypatch.setattr(cli, "_json_text", spy)
    assert cli.main(argv) == 0
    assert len(payloads) == 1
    assert capsys.readouterr().out == stdlib(payloads[0]) + "\n"



@pytest.mark.parametrize("depth", [1, 2, 5])
@settings(max_examples=50, deadline=None)
@given(trees)
def test_starting_newline_writes_the_text_at_that_depth(depth, tree):
    # tree as the innermost item of depth nested lists: its text is what lies
    # between the lists' opening and closing lines
    nested = tree
    for _ in range(depth):
        nested = [nested]
    opening = "".join("[\n" + "  " * (k + 1) for k in range(depth))
    closing = "".join("\n" + "  " * k + "]" for k in reversed(range(depth)))
    document = stdlib(nested)
    assert document.startswith(opening) and document.endswith(closing)
    expected = document[len(opening) : len(document) - len(closing)]
    assert _json_text(tree, "\n" + "  " * depth) == expected


def reference_payload(argv):
    """The run's whole payload as one dict, built as the CLI built it before it
    encoded each trial on its own: every trial's to_json() kept to the end."""
    args = cli.build_parser().parse_args(argv)
    _, setup = cli.ALGORITHMS[args.algo]
    payload, trial = setup(args)
    trials = []
    tallies = {}
    for i, rng in enumerate(cli._trial_rngs(args.seed, args.trials)):
        trace, summary, tally = trial(rng)
        for name, value in tally.items():
            tallies.setdefault(name, Counter())[value] += 1
        result = {} if summary is None else {"result": summary}
        trials.append({"trial": i, **result, **trace.to_json()})
    payload["aggregate"] = {
        f"{name}_frequencies": {
            str(key): count / args.trials
            for key, count in sorted(counts.items(), key=lambda kv: str(kv[0]))
        }
        for name, counts in sorted(tallies.items())
    }
    config = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "output", "format") and value is not None
    }
    return {"config": config, **payload, "trials": trials}


@pytest.mark.parametrize("trials", ["1", "4"])
@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--algo", "simon", "--n", "3", "--r", "5", "--seed", "7"],
        ["run", "--algo", "shor", "--a", "7", "--L", "15", "--seed", "3"],
        ["run", "--algo", "deutsch", "--variant", "mixture", "--seed", "5"],
        ["run", "--algo", "grover2", "--variant", "extended", "--seed", "6"],
    ],
    ids=lambda argv: "-".join(argv[:3]),
)
def test_run_writes_the_stdlib_encoding_of_the_whole_payload(capsys, argv, trials):
    argv = [*argv, "--trials", trials]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == stdlib(reference_payload(argv)) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        # checkpoints repeat across trials: one per measurement path
        ["run", "--algo", "simon", "--n", "4", "--r", "3", "--seed", "101", "--trials", "200"],
        # checkpoints mostly differ across trials
        ["run", "--algo", "shor", "--a", "7", "--L", "15", "--seed", "3", "--trials", "50"],
        ["run", "--algo", "shor", "--a", "7", "--L", "15", "--seed", "3", "--trials", "50",
         "--skip-v-measurement"],
    ],
    ids=lambda argv: "-".join(argv[2:3] + argv[-3:]),
)
def test_many_trial_run_writes_the_stdlib_encoding_of_the_whole_payload(capsys, argv):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == stdlib(reference_payload(argv)) + "\n"


def one_checkpoint_trace(state, metadata):
    """A trace whose one checkpoint, t0, is state: the run of a circuit with no steps."""
    circuit = StagedCircuit(state, (), state.layout.names[0], (), metadata)
    return execute(circuit, None)


def crafted_algorithm(states):
    """An ALGORITHMS entry whose i-th trial's trace holds the one checkpoint states[i]."""

    def setup(args):
        trials = count()

        def trial(rng):
            return one_checkpoint_trace(states[next(trials)], {"crafted": True}), None, {}

        return {}, trial

    return (), setup


def one_amplitude(registers, index, amplitude):
    layout = RegisterLayout(registers)
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[index] = amplitude
    return StateVector(layout, amps)


@pytest.mark.parametrize(
    "states",
    [
        # equal under ==, and equal in hash, but written "0.0" and "-0.0"
        [
            one_amplitude((("a", 2), ("b", 1)), 5, complex(1.0, 0.0)),
            one_amplitude((("a", 2), ("b", 1)), 5, complex(1.0, -0.0)),
            one_amplitude((("a", 2), ("b", 1)), 5, complex(-0.0, 1.0)),
            one_amplitude((("a", 2), ("b", 1)), 5, complex(0.0, 1.0)),
            one_amplitude((("a", 2), ("b", 1)), 5, complex(1.0, 0.0)),
        ],
        # the same flat index and amplitude under other register widths and names
        [
            one_amplitude((("a", 2), ("b", 1)), 5, 1.0),
            one_amplitude((("a", 1), ("b", 2)), 5, 1.0),
            one_amplitude((("x", 2), ("y", 1)), 5, 1.0),
            one_amplitude((("a", 2), ("b", 1)), 5, 1.0),
        ],
    ],
    ids=["signed-zeros", "layouts"],
)
def test_run_of_checkpoints_that_differ_only_in_their_bytes_or_layout(
    monkeypatch, capsys, states
):
    monkeypatch.setitem(cli.ALGORITHMS, "deutsch", crafted_algorithm(states))
    argv = ["run", "--algo", "deutsch", "--trials", str(len(states))]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    reference = reference_payload(argv)
    # only the last trial repeats a checkpoint, the first trial's
    assert len({stdlib(t["checkpoints"]) for t in reference["trials"]}) == len(states) - 1
    assert out == stdlib(reference) + "\n"


def test_run_encodes_each_distinct_checkpoint_once(monkeypatch, capsys):
    argv = ["run", "--algo", "simon", "--n", "4", "--r", "3", "--seed", "101", "--trials", "200"]
    reference = reference_payload(argv)
    checkpoints = [cp for t in reference["trials"] for cp in t["checkpoints"]]
    distinct = {stdlib(cp) for cp in checkpoints}
    assert len(distinct) < len(checkpoints) // 10
    records, calls = hilbert._records, []

    def spy(layout, index, amps):
        calls.append(layout)
        return records(layout, index, amps)

    for module in (hilbert, cli, trace_module):
        monkeypatch.setattr(module, "_records", spy)
    assert cli.main(argv) == 0
    assert len(calls) == len(distinct)
    assert capsys.readouterr().out == stdlib(reference) + "\n"
