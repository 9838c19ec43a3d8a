import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qregsim
from qregsim import RegisterLayout, build_two_to_one, execute, run_simon, state_from_records
from qregsim.cli import main
from qregsim.oracles import oracle_from_json

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def collision_xor_mask(oracle):
    """The single mask m with partner(x) = x ^ m over every collision pair, or None."""
    buckets = {}
    for x, v in enumerate(oracle.table):
        buckets.setdefault(v, []).append(x)
    pairs = [xs for xs in buckets.values() if len(xs) == 2]
    if not pairs or 2 * len(pairs) != oracle.domain_size:
        return None
    masks = {x1 ^ x2 for x1, x2 in pairs}
    return masks.pop() if len(masks) == 1 else None


class TestRunCommand:
    def test_simon_value_frequencies(self, capsys):
        code, out = run_cli(
            capsys,
            "run", "--algo", "simon", "--n", "2", "--r", "2", "--family", "arith",
            "--seed", "7", "--trials", "400",
        )
        assert code == 0
        payload = json.loads(out)
        freqs = payload["aggregate"]["v_frequencies"]
        assert freqs["0"] == pytest.approx(0.5, abs=0.08)
        assert freqs["1"] == pytest.approx(0.5, abs=0.08)
        assert payload["config"]["seed"] == 7
        assert len(payload["trials"]) == 400

    def test_deutsch_balanced_answer(self, capsys):
        code, out = run_cli(
            capsys, "run", "--algo", "deutsch", "--variant", "original",
            "--k", "10", "--seed", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["aggregate"]["answer_frequencies"] == {"balanced": 1.0}

    def test_grover_answer(self, capsys):
        code, out = run_cli(capsys, "run", "--algo", "grover2", "--k", "2", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["aggregate"]["answer_frequencies"] == {"2": 1.0}
        assert payload["trials"][0]["result"]["oracle_uses"] == 2

    def test_shor_period_majority(self, capsys):
        code, out = run_cli(
            capsys, "run", "--algo", "shor", "--a", "7", "--L", "15",
            "--seed", "5", "--trials", "20",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["aggregate"]["period_frequencies"].get("4", 0.0) >= 0.5

    def test_byte_identical_reruns(self, capsys):
        argv = (
            "run", "--algo", "simon", "--n", "3", "--r", "5",
            "--seed", "11", "--trials", "25",
        )
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, _ = run_cli(
            capsys, "run", "--algo", "grover2", "--k", "1", "--seed", "2",
            "--output", str(target),
        )
        assert code == 0
        assert json.loads(target.read_text())["aggregate"]["answer_frequencies"] == {"1": 1.0}

    def test_output_file_holds_the_stdout_bytes(self, capsys, tmp_path):
        argv = ("run", "--algo", "simon", "--n", "3", "--r", "5", "--seed", "4", "--trials", "30")
        _, out = run_cli(capsys, *argv)
        target = tmp_path / "out.json"
        code, printed = run_cli(capsys, *argv, "--output", str(target))
        assert code == 0 and printed == ""
        assert target.read_bytes() == out.encode("utf-8")

    def test_missing_parameters_exit_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algo", "simon", "--seed", "1"])
        assert exc.value.code == 2

    def test_bad_oracle_parameters_exit_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algo", "simon", "--n", "2", "--r", "3",
                  "--family", "arith", "--seed", "1"])
        assert exc.value.code == 2


    def test_shor_skip_v_measurement(self, capsys):
        code, out = run_cli(
            capsys, "run", "--algo", "shor", "--a", "7", "--L", "15", "--a-width", "6",
            "--seed", "2", "--trials", "5", "--skip-v-measurement",
        )
        assert code == 0
        for trial in json.loads(out)["trials"]:
            assert [m["register"] for m in trial["measurements"]] == ["a"]
            assert "t3" not in [cp["label"] for cp in trial["checkpoints"]]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--algo", "deutsch", "--variant", "extended", "--k", "01"],
            ["--algo", "deutsch", "--variant", "mixture", "--k", "01"],
            ["--algo", "grover2", "--variant", "extended", "--k", "1"],
        ],
    )
    def test_k_with_mode_register_variant_exits_usage(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(["run", *argv, "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("algo", ["deutsch", "grover2"])
    def test_default_variant_without_k_exits_usage(self, algo):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algo", algo, "--seed", "1"])
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_text_report_passes(self, capsys):
        code, out = run_cli(capsys, "verify")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_json_report(self, capsys):
        code, out = run_cli(capsys, "verify", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert all(set(c) == {"name", "passed", "detail"} for c in payload["checks"])


class TestLedgerCommand:
    def test_csv_columns_and_rows(self, capsys):
        code, out = run_cli(
            capsys, "ledger", "--seed", "3", "--trials", "5",
            "--n-min", "2", "--n-max", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "algorithm,n,quantum_queries_per_run,runs,"
            "classical_queries_mean,classical_queries_max,seed"
        )
        assert lines[1].startswith("deutsch,1,1,1.0,2.0,2,3")
        assert lines[2].startswith("grover2,2,2,1.0,")
        assert len(lines) == 1 + 2 + 2

    def test_json_format(self, capsys):
        code, out = run_cli(
            capsys, "ledger", "--seed", "1", "--trials", "4",
            "--n-min", "2", "--n-max", "2", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["algorithm"] == "deutsch"
        assert rows[0]["classical_queries_max"] == 2


class TestDumpOracleCommand:
    def test_two_to_one_dump_revalidates(self, capsys):
        code, out = run_cli(
            capsys, "dump-oracle", "--family", "xor", "--n", "3", "--r", "5", "--seed", "1"
        )
        assert code == 0
        oracle = oracle_from_json(json.loads(out))
        assert oracle.params["r"] == 5
        assert collision_xor_mask(oracle) == 5

    def test_modexp_dump(self, capsys):
        code, out = run_cli(
            capsys, "dump-oracle", "--family", "modexp", "--a", "7", "--L", "15", "--n", "4"
        )
        assert code == 0
        assert json.loads(out)["table"] == [pow(7, x, 15) for x in range(16)]

    def test_missing_parameters(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dump-oracle", "--family", "modexp", "--a", "7"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "deutsch", "--k=-1"],
            ["--family", "deutsch", "--k", "100"],
            ["--family", "kronecker", "--n", "2", "--k=-1"],
            ["--family", "kronecker", "--n", "2", "--k", "4"],
        ],
    )
    def test_out_of_range_k_exits_usage(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(["dump-oracle", *argv])
        assert exc.value.code == 2

    def test_kronecker_dump_builds_only_the_requested_member(self, capsys, monkeypatch):
        built = []
        check = qregsim.oracles.FunctionOracle.__post_init__
        monkeypatch.setattr(
            qregsim.oracles.FunctionOracle,
            "__post_init__",
            lambda oracle: (built.append(oracle.params), check(oracle)),
        )
        code, out = run_cli(capsys, "dump-oracle", "--family", "kronecker", "--n", "6", "--k", "17")
        assert code == 0
        assert json.loads(out)["table"] == [int(x == 17) for x in range(64)]
        assert built == [{"k": 17}]

    def test_k_in_range(self, capsys):
        code, out = run_cli(capsys, "dump-oracle", "--family", "kronecker", "--n", "2", "--k", "3")
        assert code == 0
        assert json.loads(out)["table"] == [0, 0, 0, 1]
        code, out = run_cli(capsys, "dump-oracle", "--family", "deutsch", "--k", "01")
        assert code == 0
        assert json.loads(out)["table"] == [0, 1]


class TestWidthCap:
    def test_env_override(self, capsys, monkeypatch):
        argv = ["run", "--algo", "simon", "--n", "4", "--r", "3", "--seed", "1"]
        monkeypatch.setenv("DIS_WIDTH_CAP", "6")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        monkeypatch.delenv("DIS_WIDTH_CAP")
        code, _ = run_cli(capsys, *argv)
        assert code == 0

    @pytest.mark.parametrize("cap", ["abc", "0", "-3", "2.5", ""])
    def test_bad_cap_exits_usage(self, capsys, monkeypatch, cap):
        monkeypatch.setenv("DIS_WIDTH_CAP", cap)
        for argv in (["run", "--algo", "simon", "--n", "2", "--r", "2"], ["verify"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


class TestGoldenFiles:
    def test_collision_entangled_state_dump(self):
        records = json.loads((DATA / "collision_entangled_state.json").read_text())
        layout = RegisterLayout((("a", 2), ("v", 2)))
        golden = state_from_records(layout, records)
        oracle = build_two_to_one(2, 2, (0, 1), family="two_to_one_arith")
        produced = run_simon(oracle, measure_v_at_t3=False).state_at("t2")
        np.testing.assert_allclose(produced.amplitudes, golden.amplitudes, atol=1e-12)
        assert [rec["label"] for rec in produced.records()] == [
            rec["label"] for rec in records
        ]

    def test_mode_answer_entangled_state_dump(self):
        from qregsim import run_deutsch

        records = json.loads((DATA / "mode_answer_entangled_state.json").read_text())
        layout = RegisterLayout((("m", 2), ("a", 1), ("v", 1)))
        golden = state_from_records(layout, records)
        trace, _ = run_deutsch("extended", rng=np.random.default_rng(0))
        np.testing.assert_allclose(
            trace.state_at("t3").amplitudes, golden.amplitudes, atol=1e-12
        )


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "runner, argv",
        [
            ("cmd_run", ["run", "--algo", "simon", "--n", "2", "--r", "2"]),
            ("speedup_ledger", ["ledger", "--n-max", "3", "--trials", "1"]),
        ],
    )
    @pytest.mark.parametrize("error", [MemoryError("Unable to allocate 4.00 GiB"), MemoryError()])
    def test_memory_error_is_a_one_line_usage_error(self, capsys, monkeypatch, runner, argv, error):
        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(f"qregsim.cli.{runner}", exhausted)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(message) == 1 and "not enough memory" in message[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("to_file", [False, True])
    def test_memory_error_mid_run_writes_nothing(self, capsys, monkeypatch, tmp_path, to_file):
        calls = []

        def third_trial_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise MemoryError("Unable to allocate 4.00 GiB")
            return execute(*args, **kwargs)

        monkeypatch.setattr("qregsim.cli.execute", third_trial_fails)
        target = tmp_path / "out.json"
        argv = ["run", "--algo", "simon", "--n", "3", "--r", "5", "--trials", "5"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output", str(target)] if to_file else argv)
        assert exc.value.code == 2
        assert len(calls) == 3
        assert capsys.readouterr().out == ""
        assert not target.exists()


class TestRunMemory:
    @pytest.fixture(scope="class")
    def run_growth(self, tmp_path_factory):
        """(growth of ru_maxrss in bytes, bytes written) for a 2000-trial run."""
        output = tmp_path_factory.mktemp("run") / "run.json"
        # a process exec'd from this one starts with this one's ru_maxrss as its own;
        # a process it forks starts afresh, so the run happens in a fork of the child
        code = (
            "import os, resource, sys\n"
            "from qregsim.cli import main\n"
            "pid = os.fork()\n"
            "if pid:\n"
            "    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        argv = ["run", "--algo", "simon", "--n", "4", "--r", "3", "--seed", "101",
                "--trials", "2000", "--output", str(output)]
        src = os.path.dirname(os.path.dirname(qregsim.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        before, after = map(int, done.stdout.split())
        # ru_maxrss is in KiB on Linux
        return (after - before) * 1024, output.stat().st_size

    def test_many_trial_run_holds_little_more_than_its_text(self, run_growth):
        # A 2000-trial run keeps each finished trial as its encoded text only: the
        # child's ru_maxrss grows by at most 4x the bytes it writes. Holding every
        # trial's dict tree to the end grows it by about 9x.
        growth, written = run_growth
        assert growth <= 4 * written, (growth, written)

    def test_trials_share_the_text_of_their_common_checkpoints(self, run_growth):
        # Each distinct checkpoint is encoded once and every trial holding it holds
        # the same string: growth about 0.95x the bytes written, where a copy of
        # the text per trial grows it by about 2x.
        growth, written = run_growth
        assert growth <= 1.5 * written, (growth, written)
