"""Command-line harness: run algorithms, verify golden checkpoints, emit the
query-count ledger, and dump oracle tables.

All randomness flows from --seed: trial i draws what numpy's Generator(PCG64) seeded
by SeedSequence(seed).spawn(trials)[i] draws. The CLI computes SeedSequence's mixing
(in blocks of children) and PCG64's step itself; numpy's own child generator is the
tests' reference, and run never loads numpy.random. So a given command line
reproduces its output byte for byte. Exit status is 0 on success, 2 for usage errors (a
DIS_WIDTH_CAP that is not an integer >= 1, an input wider than the cap and an --output
that cannot be opened among them), 1 for verification failures and for a stdout that its
reader closed before the output was written.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
from collections import Counter, defaultdict
from collections.abc import Iterator
from dataclasses import asdict
from json.encoder import encode_basestring_ascii as _json_str
from weakref import WeakKeyDictionary

import numpy as np

from .algorithms import (
    ledger_to_csv,
    ledger_to_json,
    parse_mode,
    shor_staged_circuit,
    simon_staged_circuit,
    speedup_ledger,
)
from .algorithms.deutsch import _deutsch_circuits, _deutsch_result
from .algorithms.grover import _search_circuit, _search_result
from .algorithms.shor import _period_result
from .algorithms.trace import _path_trace
from .errors import RangeError
from .hilbert import _decode, _dumped, _width_cap
from .measurement import _outcome_path
from .oracles import _kronecker, _require_domain, build_modexp, build_two_to_one
from .oracles import deutsch_family, oracle_to_json

FAMILY_ALIASES = {
    "xor": "two_to_one_xor",
    "arith": "two_to_one_arith",
    "two_to_one_xor": "two_to_one_xor",
    "two_to_one_arith": "two_to_one_arith",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qregsim",
        description="Multi-register state-vector simulator for oracle algorithms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute seeded algorithm trials")
    run.add_argument("--algo", required=True, choices=ALGORITHMS)
    run.add_argument("--n", type=int, help="argument register width (simon)")
    run.add_argument("--r", type=int, help="collision spacing (simon)")
    run.add_argument("--family", default="xor", choices=FAMILY_ALIASES, help="2-to-1 family")
    run.add_argument("--a", type=int, help="base of a^x mod L (shor)")
    run.add_argument("--L", type=int, help="modulus (shor)")
    run.add_argument("--a-width", type=int, help="override argument width (shor)")
    run.add_argument("--variant", default=None, help="algorithm variant")
    run.add_argument("--k", help="oracle mode (deutsch: 2-bit label; grover2: 0..3)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trials", type=int, default=1)
    run.add_argument("--skip-v-measurement", action="store_true")
    run.add_argument("--output", default=None)
    run.add_argument("--format", default="json", choices=("json",))

    verify = sub.add_parser("verify", help="run the golden checkpoint suite")
    verify.add_argument("--format", default="text", choices=("text", "json"))
    verify.add_argument("--output", default=None)

    ledger = sub.add_parser("ledger", help="emit the query-count comparison table")
    ledger.add_argument("--seed", type=int, default=0)
    ledger.add_argument("--trials", type=int, default=30)
    ledger.add_argument("--n-min", type=int, default=2)
    ledger.add_argument("--n-max", type=int, default=8)
    ledger.add_argument("--format", default="csv", choices=("csv", "json"))
    ledger.add_argument("--output", default=None)

    dump = sub.add_parser("dump-oracle", help="print one oracle table as JSON")
    dump.add_argument("--family", required=True, choices=_DUMP_FAMILIES)
    dump.add_argument("--n", type=int)
    dump.add_argument("--r", type=int)
    dump.add_argument("--a", type=int)
    dump.add_argument("--L", type=int)
    dump.add_argument("--k")
    dump.add_argument("--output", default=None)
    return parser


# numpy's SeedSequence mixing constants; its arithmetic is on 32-bit words
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# trial streams seeded per computed block; 2^32 is a multiple, so no block mixes key lengths
_SEED_BLOCK = 1024
# PCG64's 128-bit LCG multiplier, numpy's PCG_DEFAULT_MULTIPLIER_128
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1


def _words(n: int) -> list[int]:
    """n's 32-bit words, least significant first, as SeedSequence reads an int."""
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _hashmix(value, const: int):
    """SeedSequence's hashmix of a word (an int or a uint64 array): (hash, next constant)."""
    mult = const * _MULT_A & _MASK32
    value = (value ^ const) * mult & _MASK32
    return value ^ value >> 16, mult


def _mix(x, y):
    """SeedSequence's mix of two words (ints or uint64 arrays)."""
    mixed = _MIX_MULT_L * x - _MIX_MULT_R * y & _MASK32
    return mixed ^ mixed >> 16


def _mixed_in(pool: list, const: int, words) -> tuple[list, int]:
    """The pool and hash constant after SeedSequence mixes words beyond the pool size in."""
    pool = list(pool)
    for word in words:
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    return pool, const


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """The pool and hash constant every child of SeedSequence(seed) has before its spawn key:
    the seed's words, padded to the pool size, mixed as SeedSequence.mix_entropy does."""
    entropy = _words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    pool, const = [], _INIT_A
    for word in entropy[:_POOL_SIZE]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    return _mixed_in(pool, const, entropy[_POOL_SIZE:])


def _child_states(seed_pool: tuple[list[int], int], start: int, count: int) -> np.ndarray:
    """PCG64's seed words, one row per child, of children start .. start + count - 1 of the
    SeedSequence whose _seed_pool is seed_pool: generate_state(4, np.uint64) of each."""
    key = _words(start)
    assert (start + count - 1) >> 32 == start >> 32, "the children differ above key word 0"
    key[0] = np.arange(key[0], key[0] + count, dtype=np.uint64)
    pool, _ = _mixed_in(*seed_pool, key)
    halves = np.empty((count, 2 * _POOL_SIZE), np.uint64)
    const = _INIT_B
    for k in range(2 * _POOL_SIZE):
        value = pool[k % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        halves[:, k] = value ^ value >> 16
    # each uint64 is two 32-bit words, low word first
    return halves[:, 0::2] | halves[:, 1::2] << 32


class _PCG64:
    """The stream of numpy's Generator(PCG64(child)) for the two calls a run makes,
    stepped in Python ints from the child's generate_state(4, np.uint64) words w0..w3
    (see _child_states). PCG64 is a 128-bit LCG with XSL-RR output (O'Neill 2014);
    numpy seeds inc = (w2:w3 << 1) | 1 and state = ((inc + w0:w1) * M + inc) mod 2^128,
    and each draw steps the LCG, then outputs the XSL-RR of the new state."""

    __slots__ = ("state", "inc")

    def __init__(self, words: list[int]):
        w0, w1, w2, w3 = words
        self.inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        self.state = ((self.inc + (w0 << 64 | w1)) * _PCG_MULT + self.inc) & _MASK128

    def random(self) -> float:
        """Generator.random(): the next output's top 53 bits, over 2^53."""
        state = self.state = (self.state * _PCG_MULT + self.inc) & _MASK128
        rot, folded = state >> 122, (state >> 64 ^ state) & _MASK64
        return (((folded >> rot | folded << (64 - rot)) & _MASK64) >> 11) * 2.0**-53

    def uniform(self, low: float, high: float, size: int) -> list[float]:
        """Generator.uniform(low, high, size): low + (high - low) * random(), size times."""
        span = high - low
        return [low + span * self.random() for _ in range(size)]


def _trial_rngs(seed: int, trials: int) -> Iterator[_PCG64]:
    """The trials' streams, each made when its trial starts: the i-th draws as
    Generator(PCG64(SeedSequence(seed).spawn(trials)[i])) does.

    The children's seed words are computed _SEED_BLOCK at a time with array maths, by
    SeedSequence's published mixing (_seed_pool, _child_states); a test holds every
    stream's draws to numpy's own child. numpy.random is never imported."""
    if seed < 0:
        raise ValueError("expected non-negative integer")  # numpy's refusal of the seed
    seed_pool = _seed_pool(seed)
    for start in range(0, trials, _SEED_BLOCK):
        states = _child_states(seed_pool, start, min(_SEED_BLOCK, trials - start))
        yield from map(_PCG64, states.tolist())


def _canonical_two_to_one(args):
    # pair i (by smaller element) gets value i; n=2, r=2 gives f = (0, 1, 0, 1)
    family = FAMILY_ALIASES[args.family]
    return build_two_to_one(args.n, args.r, range(1 << max(0, args.n - 1)), family=family)


# Each setup returns the payload's fixed part, the circuit of a trial as a function of
# the trial's rng, and a describe function. describe maps a circuit and the trace of one
# run on it to the run's "result" summary (None: none) and the {name: value} pairs
# counted into "<name>_frequencies". cmd_run describes each outcome-tree path once, so a
# summary and a tally are functions of the path: Shor's _period_result reads only the
# measurements, the search's confirmation the answer.

def _simon(args):
    oracle = _canonical_two_to_one(args)
    circuit = simon_staged_circuit(oracle, measure_v_at_t3=not args.skip_v_measurement)
    return {"oracle": oracle_to_json(oracle)}, lambda rng: circuit, _describe_simon


def _describe_simon(circuit, trace):
    return None, {rec.register: rec.outcome for rec in trace.measurements}


def _shor(args):
    circuit = shor_staged_circuit(
        args.a, args.L, args.a_width, measure_v=not args.skip_v_measurement
    )
    return {}, lambda rng: circuit, _describe_shor


def _describe_shor(circuit, trace):
    result = _period_result(circuit, trace)
    summary = {
        "measured_z": result.measured_z,
        "convergents": [[f.numerator, f.denominator] for f in result.convergents],
        "recovered_period": result.recovered_period,
    }
    return summary, {"period": result.recovered_period, "z": result.measured_z}


def _deutsch(args):
    return {}, _deutsch_circuits(args.variant or "original", args.k), _describe_deutsch


def _describe_deutsch(circuit, trace):
    result = _deutsch_result(circuit, trace)
    summary = {"mode": result.mode_label, "answer": result.answer}
    return summary, dict(summary)


def _grover(args):
    circuit = _search_circuit(args.variant or "standard", args.k)
    return {}, lambda rng: circuit, _describe_grover


def _describe_grover(circuit, trace):
    result = _search_result(circuit, trace)
    keys = ("target", "answer", "confirmed", "oracle_uses")
    summary = {key: getattr(result, key) for key in keys}
    return summary, {"answer": result.answer}


# --algo -> (arguments it cannot run without, setup)
ALGORITHMS = {
    "simon": (("n", "r"), _simon),
    "shor": (("a", "L"), _shor),
    "deutsch": ((), _deutsch),
    "grover2": ((), _grover),
}


# Each trial is written at this depth of the payload: one item of "trials";
# each checkpoint one level below, as one item of a trial's "checkpoints".
_TRIAL_NEWLINE = "\n    "
_CHECKPOINT_NEWLINE = _TRIAL_NEWLINE + "    "
_TRIAL_CLOSE = _TRIAL_NEWLINE + "}"


def _json_text(obj, newline: str = "\n") -> str:
    """json.dumps(obj, indent=2, sort_keys=True) as obj stands at the depth of an
    enclosing document whose line break and indent is newline ("\n" + "  " * depth).
    json escapes every newline inside a string, so the replace touches only layout."""
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline)


def _checkpoint_text(label, state) -> str:
    """_json_text({"label": label, "state": state.records()}, _CHECKPOINT_NEWLINE), written
    from the state's support: one %-template per record, its keys in json's order and its
    register names sorted, filled from tolist() columns. %r writes a finite float as json
    does; a support with a value that is not finite takes json's route, which writes NaN
    and Infinity."""
    layout, (index, values) = state.layout, _dumped(state.index, state.values)
    if not np.isfinite(values).all():
        return _json_text({"label": label, "state": state.records()}, _CHECKPOINT_NEWLINE)
    # the line breaks of the checkpoint's keys, its records, their keys and their labels' keys
    keys, records, record_keys, label_keys = (
        _CHECKPOINT_NEWLINE + "  " * depth for depth in (1, 2, 3, 4)
    )
    head = "{" + keys + '"label": ' + json.dumps(label) + "," + keys + '"state": '
    if not index.size:
        return head + "[]" + _CHECKPOINT_NEWLINE + "}"
    names = sorted(layout.names)
    fields = ("," + label_keys).join(_json_str(name).replace("%", "%%") + ": %d" for name in names)
    record = (
        "{" + record_keys + '"im": %r,' + record_keys + '"label": {' + label_keys + fields
        + record_keys + "}," + record_keys + '"re": %r' + records + "}"
    )
    columns = [_decode(layout, (name,), index).tolist() for name in names]
    rows = zip(values.imag.tolist(), *columns, values.real.tolist())
    return (
        head + "[" + records + ("," + records).join([record % row for row in rows])
        + keys + "]" + _CHECKPOINT_NEWLINE + "}"
    )


def cmd_run(args) -> list[str]:
    """The run's JSON text, in pieces: the trials are kept as their text, not as data.

    Sorted keys put "trials" last, after the head, which needs every trial. A trial
    draws its path through its circuit's outcome tree (measurement._outcome_path), and
    its text is a function of that path and its index. So the trace, the summary, the
    tally and the text up to '"trial": ' are made once per path, keyed by its leaf, and
    each trial on the path holds that string; the aggregate counts each path's tally
    once per trial on it. The memos are keyed weakly by nodes: a mixture trial's entries
    go with the circuit it builds.
    """
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    payload, circuit_of, describe = _chosen(ALGORITHMS, args.algo, args)(args)
    trials: list[str] = []
    sep, trial_sep = _TRIAL_NEWLINE, "," + _TRIAL_NEWLINE
    # leaf -> [its path's text, tally, trials]; drawn keeps the entries past their leaves
    leaves, drawn = WeakKeyDictionary(), []
    node_texts = WeakKeyDictionary()
    for i, rng in enumerate(_trial_rngs(args.seed, args.trials)):
        circuit = circuit_of(rng)
        path = _outcome_path(circuit, rng)
        entry = leaves.get(path[-1])
        if entry is None:
            trace = _path_trace(circuit, path)
            summary, tally = describe(circuit, trace)
            entry = leaves[path[-1]] = [_path_text(path, trace, summary, node_texts), tally, 0]
            drawn.append(entry)
        entry[2] += 1
        trials += (sep, entry[0], str(i), _TRIAL_CLOSE)
        sep = trial_sep
    tallies: defaultdict[str, Counter] = defaultdict(Counter)
    for _, tally, count in drawn:
        for name, value in tally.items():
            tallies[name][value] += count
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
    head = {"config": config, **payload}
    assert max(head) < "trials", f"{max(head)!r} would sort after the trials"
    # the head's text without its closing "\n}", then "trials" as its last key
    return [_json_text(head)[:-2], ',\n  "trials": [', *trials, "\n  ]\n}\n"]


def _path_text(path, trace, summary, node_texts) -> str:
    """The text up to its index of a trial that took path, whose trace this is;
    node_texts maps a node to its checkpoint texts."""
    checkpoints = []
    for node in path:
        if node not in node_texts:
            node_texts[node] = [_checkpoint_text(label, state) for label, state in node.checkpoints]
        checkpoints += node_texts[node]
    rest = {"metadata": trace.metadata, "oracle_queries": trace.oracle_queries}
    rest["measurements"] = [rec.to_json() for rec in trace.measurements]
    if summary is not None:
        rest["result"] = summary
    # "checkpoints" sorts first and "trial" last, with the rest's text between them
    return (
        "{" + _TRIAL_NEWLINE + '  "checkpoints": [' + _CHECKPOINT_NEWLINE
        + ("," + _CHECKPOINT_NEWLINE).join(checkpoints) + _TRIAL_NEWLINE + "  ],"
        + _json_text(rest, _TRIAL_NEWLINE)[1 : -len(_TRIAL_CLOSE)]
        + "," + _TRIAL_NEWLINE + '  "trial": '
    )


def _chosen(table: dict, choice: str, args):
    """The entry's builder, once args holds every argument that the entry requires."""
    required, build = table[choice]
    if any(getattr(args, name) is None for name in required):
        raise ValueError(f"{choice} needs " + " and ".join(f"--{name}" for name in required))
    return build


def _dump_kronecker(args):
    _require_domain(args.n)
    if not args.k.isdecimal() or int(args.k) >= 1 << args.n:
        raise RangeError(f"--k {args.k} is outside 0..{(1 << args.n) - 1}")
    return _kronecker(args.n, int(args.k))


# dump-oracle --family -> (arguments it cannot build without, builder); --n is the domain width
_DUMP_FAMILIES = {
    "xor": (("n", "r"), _canonical_two_to_one),
    "arith": (("n", "r"), _canonical_two_to_one),
    "modexp": (("a", "L", "n"), lambda args: build_modexp(args.a, args.L, args.n)),
    "deutsch": (("k",), lambda args: deutsch_family()[parse_mode(args.k)]),
    "kronecker": (("n", "k"), _dump_kronecker),
}


# characters joined into each write of _emit
_BATCH = 1 << 16


def _unwritable(output: str, exc: OSError) -> ValueError:
    return ValueError(f"cannot write --output {output}: {exc.strerror}")


def _check_output(output: str) -> None:
    """Refuse, before any work and without creating it, an output path that open cannot
    write: a directory, or one whose parent is not an existing directory."""
    try:
        if os.path.isdir(output):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISDIR(os.stat(os.path.dirname(output) or ".").st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
    except OSError as exc:
        raise _unwritable(output, exc) from None


def _emit(pieces: list[str], output: str | None) -> None:
    """Write the pieces of a command's text to the output file or stdout, joined into
    batches of about _BATCH characters, one write each. A file that cannot be opened is
    a usage error; it is opened only now, so that a run that fails leaves no file."""
    if output:
        try:
            handle = open(output, "w", encoding="utf-8")
        except OSError as exc:
            raise _unwritable(output, exc) from None
        with handle:
            handle.writelines(_batches(pieces))
    else:
        sys.stdout.writelines(_batches(pieces))
        sys.stdout.flush()


def _batches(pieces: list[str]) -> Iterator[str]:
    """The pieces joined in order, each string at least _BATCH long but the last."""
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH:
            yield "".join(batch)
            batch, size = [], 0
    yield "".join(batch)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _command(args, parser)
    except BrokenPipeError:
        # the reader closed stdout: stop quietly, and let the exit flush write to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _command(args, parser: argparse.ArgumentParser) -> int:
    """Run the parsed command and return its exit status."""
    try:
        # a bad DIS_WIDTH_CAP is a usage error for every command, also one that builds no layout
        _width_cap()
        if args.output:
            _check_output(args.output)
        if args.command == "verify":
            from .verification import run_all_checks

            results = run_all_checks()
            all_passed = all(r.passed for r in results)
            if args.format == "json":
                payload = {"checks": [asdict(r) for r in results], "all_passed": all_passed}
                _emit([_json_text(payload), "\n"], args.output)
            else:
                lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
                passed = sum(r.passed for r in results)
                lines.append(f"{passed}/{len(results)} checks passed")
                _emit(["\n".join(lines), "\n"], args.output)
            return 0 if all_passed else 1
        if args.command == "run":
            _emit(cmd_run(args), args.output)
        elif args.command == "ledger":
            rows = speedup_ledger(
                range(args.n_min, args.n_max + 1), trials=args.trials, seed=args.seed
            )
            if args.format == "csv":
                _emit([ledger_to_csv(rows)], args.output)
            else:
                _emit([_json_text(ledger_to_json(rows)), "\n"], args.output)
        else:
            oracle = _chosen(_DUMP_FAMILIES, args.family, args)(args)
            _emit([_json_text(oracle_to_json(oracle)), "\n"], args.output)
    except (ValueError, LookupError) as exc:
        parser.error(str(exc))
    except MemoryError as exc:
        parser.error(f"not enough memory for this {args.command}: {str(exc) or 'allocation failed'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
