"""The CLI's JSON text against json.dumps(indent=2, sort_keys=True).

`run` writes each checkpoint with `cli._checkpoint_text`, a %-template per
record filled from its support's arrays; every other text is json.dumps,
re-indented to its depth by `cli._json_text`. These tests keep the output
byte-for-byte the stdlib encoding: the checkpoint writer on generated
supports, `_json_text` and its re-indent on generated trees, the TypeErrors
json raises, and each command's bytes against the stdlib encoding of the
payload it built. `run` writes each node's
checkpoints once and each path through a circuit's outcome tree once per
run, so its bytes are held to the stdlib encoding of the whole payload,
rebuilt here as one dict.
"""

import json
import math
from collections import Counter
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qregsim import RegisterLayout, StagedCircuit, StateVector, cli, execute
from qregsim.algorithms.trace import _path_trace
from qregsim.cli import _checkpoint_text, _json_text
from qregsim.hilbert import _dumped, _records, _stored
from qregsim.measurement import _outcome_path


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


SPECIAL = '"\\/[]{},:% \n\r\t\b\f\x00\x1f\x7fé \U0001f600'
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


# _json_text is json.dumps re-indented, so with the default newline the next three
# tests compare json.dumps with itself. They guard a future hand-written _json_text;
# the depth test below is the one that tests the re-indent.
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


# amplitude parts: json writes the non-finite ones as Infinity and NaN, %r as inf and nan
parts = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e-14, 9999999999999998.0, 1e16,
     1.0000000000000002e16, math.inf, -math.inf, math.nan]
)


@st.composite
def checkpoints(draw):
    """(label, layout, index, values): a checkpoint label and a support of 0 to 8
    entries on a layout of 1 to 4 registers, names and label drawn to need escaping."""
    registers = draw(
        st.lists(st.tuples(texts, st.integers(1, 3)), min_size=1, max_size=4,
                 unique_by=lambda register: register[0])
    )
    layout = RegisterLayout(tuple(registers))
    index = sorted(draw(st.sets(st.integers(0, layout.dim - 1), max_size=8)))
    values = [complex(draw(parts), draw(parts)) for _ in index]
    return (
        draw(texts), layout, np.array(index, dtype=np.int64),
        np.array(values, dtype=np.complex128),
    )


def written(label, layout, index, values):
    """The checkpoint writer's text of the state stored as this support."""
    return _checkpoint_text(label, _stored(layout, index, values))


def stdlib_checkpoint(label, layout, index, values):
    """The checkpoint as json.dumps writes it, re-indented to a checkpoint's depth."""
    state = _records(layout, *_dumped(index, values))
    return stdlib({"label": label, "state": state}).replace("\n", cli._CHECKPOINT_NEWLINE)


@settings(max_examples=300, deadline=None)
@given(checkpoints())
def test_checkpoint_writer_is_the_stdlib_encoding_at_checkpoint_depth(checkpoint):
    assert written(*checkpoint) == stdlib_checkpoint(*checkpoint)


def two_registers(names, values, label="t1"):
    """A checkpoint on two one-qubit registers whose support is every basis index."""
    values = np.array(values, dtype=np.complex128)
    return label, RegisterLayout(tuple((name, 1) for name in names)), np.arange(4), values


@pytest.mark.parametrize(
    "checkpoint",
    [
        ("t0", RegisterLayout((("a", 2),)), np.array([], np.int64), np.array([], np.complex128)),
        # kept by the support, below the dump tolerance
        ("t1", RegisterLayout((("a", 1),)), np.array([1]), np.array([1e-15 + 0j])),
        two_registers("ab", [complex(-0.0, 0.5), complex(0.5, -0.0), -0.5, -0.5j]),
        two_registers("ab", [5e-324 + 1j, 2.2250738585072014e-308, 1e-14 + 1e-300j, 0.5]),
        two_registers("ab", [9999999999999998.0, 1e16j, 1.0000000000000002e16, -1e16]),
        two_registers("ab", [math.inf, 0, complex(1, math.nan), complex(math.inf, math.nan)]),
        two_registers("ab", [complex(0.5, -math.inf), -math.inf, 0.5, 0.5]),
        two_registers(["%d", "%(x)s%%"], [0.5] * 4, label="t%r %s"),
        two_registers(['"\\', "\n\x00é\U0001f600"], [0.5] * 4, label='"\té\n'),
        ("t2", RegisterLayout((("d", 1), ("b", 2), ("c", 1), ("a", 1))), np.array([3, 17, 30]),
         np.array([0.5, 0.5j, -0.5 - 0.5j])),
    ],
    ids=[
        "empty", "undumped", "signed-zeros", "subnormals", "near-1e16", "inf-and-nan",
        "minus-inf", "percent-names", "escaped-names", "four-unsorted-registers",
    ],
)
def test_checkpoint_writer_on_edge_cases(checkpoint):
    assert written(*checkpoint) == stdlib_checkpoint(*checkpoint)


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



def reference_payload(argv):
    """The run's whole payload as one dict, built as the CLI built it before it
    encoded each trial on its own: every trial executed afresh, and its to_json() kept
    to the end."""
    args = cli.build_parser().parse_args(argv)
    _, setup = cli.ALGORITHMS[args.algo]
    payload, circuit_of, describe = setup(args)
    trials = []
    tallies = {}
    for i, rng in enumerate(cli._trial_rngs(args.seed, args.trials)):
        circuit = circuit_of(rng)
        trace = execute(circuit, rng)
        summary, tally = describe(circuit, trace)
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
        # one circuit per run: the trials share its outcome tree
        pytest.param(
            ["run", "--algo", "deutsch", "--variant", "original", "--k", "01", "--seed", "3"],
            id="deutsch-original-k01",
        ),
        pytest.param(
            ["run", "--algo", "deutsch", "--variant", "extended", "--seed", "2"],
            id="deutsch-extended",
        ),
        pytest.param(["run", "--algo", "grover2", "--k", "2", "--seed", "1"], id="grover2-k2"),
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


def crafted_algorithm(states):
    """An ALGORITHMS entry whose i-th trial's trace holds the one checkpoint states[i]:
    the trial's circuit has no steps and starts on states[i], its checkpoint t0."""

    def setup(args):
        trials = count()

        def circuit_of(rng):
            state = states[next(trials)]
            return StagedCircuit(state, (), state.layout.names[0], (), {"crafted": True})

        return {}, circuit_of, lambda circuit, trace: (None, {})

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
        # parts that json writes as Infinity and NaN; an entry of NaN magnitude is not dumped
        [
            StateVector(
                RegisterLayout((("a", 1), ("b", 1))),
                np.array([math.inf, 0, complex(1, math.nan), 0.5]),
            ),
            one_amplitude((("a", 2), ("b", 1)), 5, complex(0.0, -math.inf)),
            one_amplitude((("a", 2), ("b", 1)), 5, complex(math.inf, math.nan)),
            StateVector(
                RegisterLayout((("a", 1), ("b", 1))),
                np.array([math.inf, 0, complex(1, math.nan), 0.5]),
            ),
        ],
    ],
    ids=["signed-zeros", "layouts", "non-finite"],
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
    calls = []

    def spy(*support):
        calls.append(support)
        return _checkpoint_text(*support)

    monkeypatch.setattr(cli, "_checkpoint_text", spy)
    assert cli.main(argv) == 0
    assert len(calls) == len(distinct)
    assert capsys.readouterr().out == stdlib(reference) + "\n"


def paths_of_a_run(monkeypatch, argv):
    """cmd_run's pieces for argv, and the path of each trial, in trial order."""
    paths = []

    def spy(circuit, rng):
        paths.append(_outcome_path(circuit, rng))
        return paths[-1]

    monkeypatch.setattr(cli, "_outcome_path", spy)
    return cli.cmd_run(cli.build_parser().parse_args(argv)), paths


SIMON_200 = ["run", "--algo", "simon", "--n", "4", "--r", "3", "--seed", "101", "--trials", "200"]


def test_run_encodes_each_node_and_each_path_once(monkeypatch):
    checkpoint_calls, json_calls = [], []

    def checkpoint_spy(*support):
        checkpoint_calls.append(support)
        return _checkpoint_text(*support)

    def json_spy(obj, newline="\n"):
        json_calls.append(obj)
        return _json_text(obj, newline)

    monkeypatch.setattr(cli, "_checkpoint_text", checkpoint_spy)
    monkeypatch.setattr(cli, "_json_text", json_spy)
    _, paths = paths_of_a_run(monkeypatch, SIMON_200)
    nodes = {id(node): node for path in paths for node in path}
    leaves = {id(path[-1]) for path in paths}
    assert len(leaves) < len(paths) // 2
    # each node's checkpoints once
    assert len(checkpoint_calls) == sum(len(node.checkpoints) for node in nodes.values())
    # the rest of each path's text, then the head
    assert len(json_calls) == len(leaves) + 1


def test_run_makes_one_trace_per_path(monkeypatch):
    leaves = []

    def spy(circuit, path):
        leaves.append(path[-1])
        return _path_trace(circuit, path)

    monkeypatch.setattr(cli, "_path_trace", spy)
    _, paths = paths_of_a_run(monkeypatch, SIMON_200)
    assert len(paths) == 200
    assert len(leaves) == len({id(leaf) for leaf in leaves}) == len({id(p[-1]) for p in paths})


def test_trials_on_one_path_hold_the_same_string(monkeypatch):
    pieces, paths = paths_of_a_run(monkeypatch, SIMON_200)
    # pieces[0] is the head; each trial's text up to its index starts with "{"
    texts = [piece for piece in pieces[1:] if piece.startswith("{")]
    assert len(texts) == len(paths) == 200
    text_of_leaf = {}
    for text, path in zip(texts, paths):
        assert text_of_leaf.setdefault(id(path[-1]), text) is text
    # one string object per path, and distinct paths have distinct texts
    assert len({id(text) for text in texts}) == len(set(texts)) == len(text_of_leaf)
