"""Command-line harness: run algorithms, verify golden checkpoints, emit the
query-count ledger, and dump oracle tables.

All randomness flows from --seed through numpy SeedSequence spawning, so a
given command line reproduces its output byte for byte. Exit status is 0 on
success, 2 for usage errors (a DIS_WIDTH_CAP that is not an integer >= 1
among them), 1 for verification failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from .algorithms import (
    execute,
    ledger_to_csv,
    ledger_to_json,
    parse_mode,
    run_deutsch,
    run_grover2,
    run_shor_period,
    simon_staged_circuit,
    speedup_ledger,
)
from .errors import RangeError
from .hilbert import DEFAULT_WIDTH_CAP, _records
from .oracles import _kronecker, build_modexp, build_two_to_one, deutsch_family, oracle_to_json

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
    run.add_argument("--algo", required=True, choices=("simon", "shor", "deutsch", "grover2"))
    run.add_argument("--n", type=int, help="argument register width (simon)")
    run.add_argument("--r", type=int, help="collision spacing (simon)")
    run.add_argument("--family", default="xor", help="2-to-1 family: xor or arith")
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
    dump.add_argument(
        "--family", required=True, choices=("xor", "arith", "modexp", "deutsch", "kronecker")
    )
    dump.add_argument("--n", type=int)
    dump.add_argument("--r", type=int)
    dump.add_argument("--a", type=int)
    dump.add_argument("--L", type=int)
    dump.add_argument("--k")
    dump.add_argument("--seed", type=int, default=0)
    dump.add_argument("--output", default=None)
    return parser


def _trial_rngs(seed: int, trials: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(trials)]


def _frequencies(counter: Counter, trials: int) -> dict:
    return {
        str(key): count / trials
        for key, count in sorted(counter.items(), key=lambda kv: str(kv[0]))
    }


def _canonical_two_to_one(n: int, r: int, family: str):
    # pair i (by smaller element) gets value i; n=2, r=2 gives f = (0, 1, 0, 1)
    return build_two_to_one(n, r, range(1 << max(0, n - 1)), family=family)


# Each setup returns the payload's fixed part and a trial function. A trial
# maps its rng to the run's trace, the run's "result" summary (None: none)
# and the {name: value} pairs counted into "<name>_frequencies".

def _simon(args, width_cap: int):
    oracle = _canonical_two_to_one(args.n, args.r, FAMILY_ALIASES[args.family])
    circuit = simon_staged_circuit(oracle, width_cap, measure_v_at_t3=not args.skip_v_measurement)

    def trial(rng):
        trace = execute(circuit, rng)
        return trace, None, {rec.register: rec.outcome for rec in trace.measurements}

    return {"oracle": oracle_to_json(oracle)}, trial


def _shor(args, width_cap: int):
    def trial(rng):
        trace, result = run_shor_period(
            args.a,
            args.L,
            rng,
            a_width=args.a_width,
            measure_v=not args.skip_v_measurement,
            width_cap=width_cap,
        )
        summary = {
            "measured_z": result.measured_z,
            "convergents": [[f.numerator, f.denominator] for f in result.convergents],
            "recovered_period": result.recovered_period,
        }
        return trace, summary, {"period": result.recovered_period, "z": result.measured_z}

    return {}, trial


def _deutsch(args, width_cap: int):
    def trial(rng):
        trace, result = run_deutsch(args.variant or "original", k=args.k, rng=rng)
        summary = {"mode": result.mode_label, "answer": result.answer}
        return trace, summary, dict(summary)

    return {}, trial


def _grover(args, width_cap: int):
    def trial(rng):
        trace, result = run_grover2(args.variant or "standard", k=args.k, rng=rng)
        summary = {
            "target": result.target,
            "answer": result.answer,
            "confirmed": result.confirmed,
            "oracle_uses": result.oracle_uses,
        }
        return trace, summary, {"answer": result.answer}

    return {}, trial


# --algo -> (arguments it cannot run without, setup)
ALGORITHMS = {
    "simon": (("n", "r"), _simon),
    "shor": (("a", "L"), _shor),
    "deutsch": ((), _deutsch),
    "grover2": ((), _grover),
}


# Each trial is encoded at this depth of the payload: one item of "trials";
# each checkpoint one level below, as one item of a trial's "checkpoints".
_TRIAL_NEWLINE = "\n    "
_CHECKPOINT_NEWLINE = _TRIAL_NEWLINE + "    "


def cmd_run(args, width_cap: int) -> list[str]:
    """The run's JSON text, in pieces: the trials are kept as their text, not as data.

    Each trial is encoded as soon as it finishes, so a run holds its trials' text
    rather than their dict trees. Sorted keys put "trials" last, after the head
    (config, aggregate and the setup's fixed part), which needs every trial.

    Trials share checkpoints: every trial prepares the same states up to its first
    measurement, and after it there is one state per measurement path. So each
    distinct checkpoint is encoded once per run and every trial that holds it
    holds the same string. The memo's key is the checkpoint's label, its layout's
    registers and the bytes of its dumped support (AlgorithmTrace.dumped_supports):
    the text is a function of exactly these, so equal keys mean equal text.
    """
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    required, setup = ALGORITHMS[args.algo]
    if any(getattr(args, name) is None for name in required):
        raise ValueError(f"{args.algo} needs " + " and ".join(f"--{name}" for name in required))
    payload, trial = setup(args, width_cap)
    trials: list[str] = []
    sep = _TRIAL_NEWLINE
    tallies: dict[str, Counter] = {}
    checkpoint_texts: dict[tuple, str] = {}
    # the pieces around a trial's checkpoints, shared by every trial
    trial_sep, opening = "," + _TRIAL_NEWLINE, "{" + _TRIAL_NEWLINE + '  "checkpoints": ['
    checkpoint_sep, closing = "," + _CHECKPOINT_NEWLINE, _TRIAL_NEWLINE + "  ],"
    for i, rng in enumerate(_trial_rngs(args.seed, args.trials)):
        trace, summary, tally = trial(rng)
        for name, value in tally.items():
            tallies.setdefault(name, Counter())[value] += 1
        result = {} if summary is None else {"result": summary}
        rest = {"trial": i, **result, **trace.to_json(include_states=False)}
        del rest["checkpoints"]
        assert min(rest) > "checkpoints", f"{min(rest)!r} would sort before the checkpoints"
        # "checkpoints" sorts first: its items, then the rest's text without its "{"
        trials += (sep, opening)
        item_sep, close = _CHECKPOINT_NEWLINE, "],"
        for label, layout, index, values in trace.dumped_supports():
            key = (label, layout.registers, index.tobytes(), values.tobytes())
            text = checkpoint_texts.get(key)
            if text is None:
                checkpoint = {"label": label, "state": _records(layout, index, values)}
                text = checkpoint_texts[key] = _json_text(checkpoint, _CHECKPOINT_NEWLINE)
            trials += (item_sep, text)
            item_sep, close = checkpoint_sep, closing
        trials += (close, _json_text(rest, _TRIAL_NEWLINE)[1:])
        sep = trial_sep
    payload["aggregate"] = {
        f"{name}_frequencies": _frequencies(counts, args.trials)
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


def _build_dump_oracle(args):
    if args.family in ("xor", "arith"):
        if args.n is None or args.r is None:
            raise ValueError("2-to-1 families need --n and --r")
        return _canonical_two_to_one(args.n, args.r, FAMILY_ALIASES[args.family])
    if args.family == "modexp":
        if args.a is None or args.L is None or args.n is None:
            raise ValueError("modexp needs --a, --L and --n (domain width)")
        return build_modexp(args.a, args.L, args.n)
    if args.family == "deutsch":
        if args.k is None:
            raise ValueError("deutsch needs --k")
        return deutsch_family()[parse_mode(args.k)]
    if args.n is None or args.k is None:
        raise ValueError("kronecker needs --n and --k")
    if not 0 <= int(args.k) < 1 << args.n:
        raise RangeError(f"--k {args.k} is outside 0..{(1 << args.n) - 1}")
    return _kronecker(args.n, int(args.k))


_INFINITY = float("inf")


def _json_scalar(value) -> str | None:
    """JSON text of a str, number, bool or None, as json writes it; None otherwise."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    return None


def _json_text(obj, newline: str = "\n") -> str:
    """Exactly json.dumps(obj, indent=2, sort_keys=True), without its slow path.

    Any indent sends json.dumps to its pure-Python generator encoder, which
    costs more than the simulation on a many-trial run. This writes the same
    text in one recursion into one list, joined once; every scalar, at any
    depth, is written by _json_scalar. Circular input is not detected:
    payloads are trees.

    newline is the line break and indent of obj's own depth: with
    "\n" + "  " * depth the text is obj as it stands at that depth of an
    enclosing document.
    """
    parts: list[str] = []
    put = parts.append

    def encode(value, newline: str) -> None:
        text = _json_scalar(value)
        if text is not None:
            put(text)
        elif isinstance(value, (list, tuple)):
            if not value:
                put("[]")
                return
            inner = newline + "  "
            sep, comma = "[" + inner, "," + inner
            for item in value:
                put(sep)
                sep = comma
                encode(item, inner)
            put(newline + "]")
        elif isinstance(value, dict):
            if not value:
                put("{}")
                return
            inner = newline + "  "
            sep, comma = "{" + inner, "," + inner
            # like json: sort the (key, value) pairs first, then coerce the keys
            for key, item in sorted(value.items()):
                text = key if isinstance(key, str) else _json_scalar(key)
                if text is None:
                    raise TypeError(
                        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
                    )
                put(sep + _json_str(text) + ": ")
                sep = comma
                encode(item, inner)
            put(newline + "}")
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    encode(obj, newline)
    return "".join(parts)


def _emit(pieces: list[str], output: str | None) -> None:
    """Write the pieces of a command's text, unjoined, to the output file or stdout."""
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    raw_cap = os.environ.get("DIS_WIDTH_CAP", str(DEFAULT_WIDTH_CAP))
    try:
        width_cap = int(raw_cap)
    except ValueError:
        width_cap = 0
    if width_cap < 1:
        parser.error(f"DIS_WIDTH_CAP must be an integer >= 1, got {raw_cap!r}")

    if args.command == "verify":
        from .verification import run_all_checks

        results = run_all_checks()
        if args.format == "json":
            payload = {
                "checks": [
                    {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
                ],
                "all_passed": all(r.passed for r in results),
            }
            _emit([_json_text(payload), "\n"], args.output)
        else:
            lines = [
                f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
            ]
            passed = sum(r.passed for r in results)
            lines.append(f"{passed}/{len(results)} checks passed")
            _emit(["\n".join(lines), "\n"], args.output)
        return 0 if all(r.passed for r in results) else 1

    try:
        if args.command == "run":
            _emit(cmd_run(args, width_cap), args.output)
        elif args.command == "ledger":
            rows = speedup_ledger(
                range(args.n_min, args.n_max + 1), trials=args.trials, seed=args.seed
            )
            if args.format == "csv":
                _emit([ledger_to_csv(rows)], args.output)
            else:
                _emit([_json_text(ledger_to_json(rows)), "\n"], args.output)
        else:
            oracle = _build_dump_oracle(args)
            _emit([_json_text(oracle_to_json(oracle)), "\n"], args.output)
    except (ValueError, LookupError) as exc:
        parser.error(str(exc))
    except MemoryError as exc:
        parser.error(f"not enough memory for this {args.command}: {str(exc) or 'allocation failed'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
