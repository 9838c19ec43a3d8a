"""Seeded CLI behaviour, one `run` command per algorithm and variant.

tests/data/cli_seeded_behaviour.json holds, per command, what a seed fixes:
checkpoint labels, the support of each checkpoint state, the measured
registers and outcomes, metadata, results and aggregates. It holds no
amplitudes, so a kernel that moves them by rounding noise still passes.
Regenerate it (only when behaviour is meant to change) with

    PYTHONPATH=src python3 tests/test_seeded_behaviour.py
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qregsim.cli import main

DATA = Path(__file__).parent / "data" / "cli_seeded_behaviour.json"

COMMANDS = {
    "simon": ["--algo", "simon", "--n", "3", "--r", "5", "--seed", "7", "--trials", "5"],
    "shor": ["--algo", "shor", "--a", "7", "--L", "15", "--a-width", "6", "--seed", "3", "--trials", "3"],
    "deutsch-original": ["--algo", "deutsch", "--k", "10", "--seed", "1", "--trials", "3"],
    "deutsch-extended": ["--algo", "deutsch", "--variant", "extended", "--seed", "2", "--trials", "5"],
    "deutsch-mixture": ["--algo", "deutsch", "--variant", "mixture", "--seed", "5", "--trials", "5"],
    "grover2-standard": ["--algo", "grover2", "--k", "2", "--seed", "1", "--trials", "3"],
    "grover2-extended": ["--algo", "grover2", "--variant", "extended", "--seed", "6", "--trials", "5"],
}

# Amplitudes at or below this magnitude are rounding noise, not support.
SUPPORT_TOL = 1e-9


def _support(records: list[dict]) -> list[str]:
    """Labels such as "a=3,v=1" of the amplitudes above SUPPORT_TOL."""
    return [
        ",".join(f"{reg}={val}" for reg, val in rec["label"].items())
        for rec in records
        if (rec["re"] ** 2 + rec["im"] ** 2) ** 0.5 > SUPPORT_TOL
    ]


def behaviour(argv: list[str]) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["run", *argv]) == 0
    payload = json.loads(out.getvalue())
    return {
        "aggregate": payload["aggregate"],
        "trials": [
            {
                "metadata": trial["metadata"],
                "oracle_queries": trial["oracle_queries"],
                "result": trial.get("result"),
                "checkpoints": [
                    [cp["label"], _support(cp["state"])] for cp in trial["checkpoints"]
                ],
                "measurements": [[m["register"], m["outcome"]] for m in trial["measurements"]],
            }
            for trial in payload["trials"]
        ],
    }


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_run_matches_recorded_behaviour(name):
    recorded = json.loads(DATA.read_text())
    assert behaviour(COMMANDS[name]) == recorded[name]


if __name__ == "__main__":
    lines = [f"{json.dumps(name)}: {json.dumps(behaviour(COMMANDS[name]), sort_keys=True)}"
             for name in sorted(COMMANDS)]
    DATA.write_text("{\n" + ",\n".join(lines) + "\n}\n")
