import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qregsim
from qregsim import cli, verification
from qregsim import RegisterLayout, build_two_to_one, run_simon, state_from_records
from qregsim.cli import main
from qregsim.measurement import _outcome_path
from qregsim.oracles import oracle_from_json

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def fresh_python(code, *argv, timeout=60):
    """The stdout of code run with argv in a fresh interpreter that imports this qregsim."""
    src = os.path.dirname(os.path.dirname(qregsim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


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

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--algo", "simon", "--n", "3", "--r", "5", "--seed", "4", "--trials", "30"),
            ("verify",),
            ("verify", "--format", "json"),
            ("ledger", "--seed", "2", "--n-max", "4", "--trials", "3"),
            ("ledger", "--seed", "2", "--n-max", "4", "--trials", "3", "--format", "json"),
            ("dump-oracle", "--family", "modexp", "--a", "7", "--L", "15", "--n", "8"),
        ],
        ids=["run", "verify-text", "verify-json", "ledger-csv", "ledger-json", "dump-oracle"],
    )
    def test_output_file_holds_the_stdout_bytes(self, capsys, tmp_path, argv):
        _, out = run_cli(capsys, *argv)
        target = tmp_path / "out.json"
        code, printed = run_cli(capsys, *argv, "--output", str(target))
        assert code == 0 and printed == ""
        assert target.read_bytes() == out.encode("utf-8")

    def test_missing_parameters_exit_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algo", "simon", "--seed", "1"])
        assert exc.value.code == 2

    def test_missing_parameters_are_named(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--algo", "shor", "--a", "7"])
        assert "shor needs --a and --L" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, choices",
        [
            (["--algo", "bogus"], "'simon', 'shor', 'deutsch', 'grover2'"),
            (
                ["--algo", "simon", "--n", "3", "--r", "3", "--family", "bogus"],
                "'xor', 'arith', 'two_to_one_xor', 'two_to_one_arith'",
            ),
        ],
    )
    def test_unknown_choice_is_named_with_the_choices(self, capsys, argv, choices):
        with pytest.raises(SystemExit) as exc:
            main(["run", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err and f"(choose from {choices})" in err

    def test_bad_oracle_parameters_exit_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algo", "simon", "--n", "2", "--r", "3",
                  "--family", "arith", "--seed", "1"])
        assert exc.value.code == 2


    def test_shor_builds_its_circuit_once_per_run(self, capsys, monkeypatch):
        built = []
        build = qregsim.algorithms.shor.build_modexp
        monkeypatch.setattr(
            qregsim.algorithms.shor,
            "build_modexp",
            lambda *args: (built.append(args), build(*args))[1],
        )
        code, out = run_cli(
            capsys, "run", "--algo", "shor", "--a", "7", "--L", "15", "--seed", "5", "--trials", "6"
        )
        assert code == 0 and len(json.loads(out)["trials"]) == 6
        assert built == [(7, 15, 8)]

    def test_mixture_builds_its_family_and_initial_state_once_per_run(
        self, capsys, monkeypatch
    ):
        made = {"family": 0, "initial": 0}
        deutsch = qregsim.algorithms.deutsch
        family, basis = deutsch.deutsch_family, deutsch._sparse_basis

        def counted(name, make):
            return lambda *args: (made.__setitem__(name, made[name] + 1), make(*args))[1]

        monkeypatch.setattr(deutsch, "deutsch_family", counted("family", family))
        monkeypatch.setattr(deutsch, "_sparse_basis", counted("initial", basis))
        code, out = run_cli(
            capsys, "run", "--algo", "deutsch", "--variant", "mixture", "--seed", "5",
            "--trials", "6",
        )
        assert code == 0 and made == {"family": 1, "initial": 1}
        phases = [trial["metadata"]["phases"] for trial in json.loads(out)["trials"]]
        assert len({tuple(p) for p in phases}) == 6

    @pytest.mark.parametrize("seed, trials", [(0, 1), (5, 7), (2**40 + 3, 50)])
    def test_trial_generators_are_the_spawned_children_in_order(self, seed, trials):
        rngs = cli._trial_rngs(seed, trials)
        spawned = np.random.SeedSequence(seed).spawn(trials)
        for rng, child in zip(rngs, spawned, strict=True):
            assert_draws_as(rng, np.random.default_rng(child))

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--algo", "shor", "--a", "2", "--L", "-5"], "modulus -5 must be >= 1"),
            (["run", "--algo", "shor", "--a", "1", "--L", "0"], "modulus 0 must be >= 1"),
            (["dump-oracle", "--family", "modexp", "--a", "2", "--L", "-5", "--n", "3"],
             "modulus -5 must be >= 1"),
            (["dump-oracle", "--family", "modexp", "--a", "1", "--L", "0", "--n", "3"],
             "modulus 0 must be >= 1"),
            (["run", "--algo", "grover2", "--k", "x"],
             "standard variant needs a marked item k in 0..3, got 'x'"),
            (["dump-oracle", "--family", "kronecker", "--n", "2", "--k", "x"],
             "--k x is outside 0..3"),
        ],
    )
    def test_a_bad_modulus_or_k_is_named_with_empty_stdout(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"error: {message}\n" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "xor", "--n", "-2", "--r", "1"],
            ["--family", "modexp", "--a", "2", "--L", "15", "--n", "-1"],
            ["--family", "kronecker", "--n", "-1", "--k", "0"],
        ],
        ids=["xor", "modexp", "kronecker"],
    )
    def test_a_negative_width_is_named_with_empty_stdout(self, capsys, argv):
        # it used to reach a bit shift, which said "negative shift count"
        with pytest.raises(SystemExit) as exc:
            main(["dump-oracle", *argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        n = argv[argv.index("--n") + 1]
        assert f"error: domain width {n} must be >= 0\n" in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--family", "xor", "--n", "0", "--r", "1"], "spacing r=1 outside (0, 1)"),
            (["--family", "kronecker", "--n", "0", "--k", "0"], "one-hot family needs n >= 1"),
            (["--family", "modexp", "--a", "2", "--L", "15", "--n", "0"], None),
        ],
        ids=["xor", "kronecker", "modexp"],
    )
    def test_a_zero_width_answers_as_before(self, capsys, argv, message):
        if message is None:
            code, out = run_cli(capsys, "dump-oracle", *argv)
            assert code == 0 and json.loads(out)["table"] == [1]
            return
        with pytest.raises(SystemExit) as exc:
            main(["dump-oracle", *argv])
        assert exc.value.code == 2 and f"error: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--algo", "grover2", "--k", "1"],
            ["dump-oracle", "--family", "deutsch", "--k", "01"],
        ],
        ids=["run", "dump-oracle"],
    )
    @pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["no-directory", "directory"])
    def test_an_output_that_cannot_be_opened_is_named_with_empty_stdout(
        self, capsys, tmp_path, argv, target
    ):
        path = tmp_path / target
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", str(path)])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"error: cannot write --output {path}: " in captured.err
        assert list(tmp_path.iterdir()) == []


class TestOutputCheckedFirst:
    """An --output that cannot be written is refused before the command does any work."""

    @staticmethod
    def never(*args, **kwargs):
        raise AssertionError("the command ran before its --output was checked")

    @pytest.mark.parametrize(
        "argv, work",
        [
            (["run", "--algo", "simon", "--n", "10", "--r", "5"], "qregsim.cli.cmd_run"),
            (["ledger"], "qregsim.cli.speedup_ledger"),
            (["verify"], "qregsim.verification.run_all_checks"),
            (["dump-oracle", "--family", "xor", "--n", "4", "--r", "5"], "qregsim.cli._chosen"),
        ],
        ids=["run", "ledger", "verify", "dump-oracle"],
    )
    @pytest.mark.parametrize("target", ["/nonexistent/dir/x.json", "tmp"], ids=["missing", "dir"])
    def test_an_unwritable_output_is_refused_before_any_work(
        self, capsys, monkeypatch, tmp_path, argv, work, target
    ):
        monkeypatch.setattr(work, self.never)
        path = tmp_path if target == "tmp" else target
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", str(path)])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        reason = "Is a directory" if target == "tmp" else "No such file or directory"
        assert f"error: cannot write --output {path}: {reason}\n" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_a_parent_that_is_a_file_is_refused(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("qregsim.cli._chosen", self.never)
        (tmp_path / "file").write_text("")
        path = tmp_path / "file" / "x.json"
        with pytest.raises(SystemExit) as exc:
            main(["dump-oracle", "--family", "deutsch", "--k", "01", "--output", str(path)])
        assert exc.value.code == 2
        assert f"cannot write --output {path}: Not a directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["file"]


def assert_draws_as(rng, reference):
    """rng's random() and uniform(0, 2 pi, size=3) draw reference's bytes, in turn."""
    got = [rng.random() for _ in range(5)] + rng.uniform(0.0, 2.0 * np.pi, size=3)
    got.append(rng.random())
    want = [*reference.random(5), *reference.uniform(0.0, 2.0 * np.pi, size=3), reference.random()]
    assert np.array(got).tobytes() == np.array(want).tobytes()


class TestTrialGenerators:
    """cli._trial_rngs computes SeedSequence's children and steps PCG64 itself; numpy's
    own children are the reference."""

    @pytest.mark.parametrize("trials", [1, 1023, 1024, 1025, 2049])
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**64) | st.integers(2**128, 2**256))
    @example(seed=0)
    @example(seed=2**32 - 1)
    @example(seed=2**32)
    @example(seed=2**64)
    @example(seed=2**128)
    def test_every_generator_is_numpys_spawned_child(self, trials, seed):
        spawned = np.random.SeedSequence(seed).spawn(trials)
        for rng, child in zip(cli._trial_rngs(seed, trials), spawned, strict=True):
            assert_draws_as(rng, np.random.default_rng(child))

    @pytest.mark.parametrize("seed", [3, 2**64 + 1])
    @pytest.mark.parametrize("start", [2**32 - 1024, 2**32, 2**33 + 2**20, 2**64])
    def test_children_from_two_to_the_32_on_have_two_word_spawn_keys(self, seed, start):
        states = cli._child_states(cli._seed_pool(seed), start, 3)
        for i, state in enumerate(states, start):
            # spawn(n)[i] is SeedSequence(seed, spawn_key=(i,)), without making n children
            child = np.random.SeedSequence(seed, spawn_key=(i,))
            assert state.tobytes() == child.generate_state(4, np.uint64).tobytes()

    def test_a_huge_trial_count_computes_one_block_of_seeds(self):
        next(cli._trial_rngs(0, 1))  # warm up before measuring
        tracemalloc.start()
        try:
            rng = next(cli._trial_rngs(2**64 + 5, 10**12))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        reference = np.random.default_rng(np.random.SeedSequence(2**64 + 5).spawn(1)[0])
        assert_draws_as(rng, reference)

    def test_a_negative_seed_exits_usage_with_empty_stdout(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algo", "simon", "--n", "4", "--r", "3", "--seed", "-1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "expected non-negative integer" in captured.err

    def test_a_setup_error_is_reported_before_a_bad_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algo", "simon", "--n", "4", "--r", "0", "--seed", "-1"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "spacing r=0" in err and "non-negative" not in err

    def test_importing_the_package_leaves_numpy_random_unloaded(self):
        code = (
            "import sys, qregsim, qregsim.cli, qregsim.verification\n"
            "print('numpy.random' in sys.modules)\n"
        )
        assert fresh_python(code) == "False\n"

    def test_no_run_command_loads_numpy_random(self):
        runs = [
            "--algo simon --n 4 --r 3 --trials 20",
            "--algo shor --a 7 --L 15 --trials 5",
            "--algo deutsch --variant original --k 01 --trials 5",
            "--algo deutsch --variant extended --trials 20",
            "--algo deutsch --variant mixture --trials 20",
            "--algo grover2 --k 2 --trials 5",
            "--algo grover2 --variant extended --trials 20",
        ]
        code = (
            "import contextlib, io, sys\n"
            "from qregsim.cli import main\n"
            f"for run in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "        assert main(['run', '--seed', '3', *run.split()]) == 0, run\n"
            "    assert out.getvalue().startswith('{'), run\n"
            "print('numpy.random' in sys.modules)\n"
        )
        assert fresh_python(code) == "False\n"


class TestVerifyCommand:
    def test_the_checks_leave_numpy_ma_unloaded(self):
        # np.union1d would import numpy.ma, which takes 12-20 ms in a fresh process
        code = (
            "import sys\n"
            "from qregsim.verification import run_all_checks\n"
            "assert all(check.passed for check in run_all_checks())\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        assert fresh_python(code, timeout=120) == "False\n"

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

    @pytest.fixture
    def wrong_golden(self, monkeypatch):
        """Flip the sign of the a=1 branch in Simon's t4 golden for f_bar = 1, so that
        check, and only it, must fail."""
        goldens = verification._simon_goldens

        def flipped(f_bar):
            wanted = goldens(f_bar)
            if f_bar == 1:
                t4 = wanted["t4"]
                signs = np.ones(t4.layout.dim)
                signs[4:8] = -1.0  # a=1 (the index is 4a + v)
                wanted["t4"] = qregsim.StateVector(t4.layout, t4.amplitudes * signs)
            return wanted

        monkeypatch.setattr(verification, "_simon_goldens", flipped)

    def test_failing_check_text_report(self, capsys, wrong_golden):
        code, out = run_cli(capsys, "verify")
        assert code == 1
        lines = out.strip().splitlines()
        assert "FAIL simon-checkpoints-fbar1: t4 deviates beyond 1e-12" in lines
        assert sum(line.startswith("FAIL") for line in lines) == 1
        assert lines[-1] == f"{len(lines) - 2}/{len(lines) - 1} checks passed"

    def test_failing_check_json_report(self, capsys, wrong_golden):
        code, out = run_cli(capsys, "verify", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["all_passed"] is False
        failed = [check for check in payload["checks"] if not check["passed"]]
        assert failed == [
            {"name": "simon-checkpoints-fbar1", "passed": False,
             "detail": "t4 deviates beyond 1e-12"}
        ]

    def test_the_checks_run_in_report_order(self):
        assert [check.name for check in verification.run_all_checks()] == [
            "simon-checkpoints-fbar1",
            "simon-checkpoints-fbar0",
            "simon-deferred-joint",
            "shor-deferred-joint",
            "constraint-solver-vs-projection",
            "pointer-model-consistency",
            "deutsch-original-checkpoints",
            "deutsch-extended-checkpoints",
            "deutsch-mixture-correlation",
            "grover-standard-checkpoints",
            "grover-extended-checkpoints",
            "shor-comb-support",
            "entanglement-lifecycle",
        ]

    @pytest.mark.parametrize(
        "attr, breaking, name, detail",
        [
            (
                "deutsch_extended_goldens",
                # t1 and t3 swapped, so both deviate
                lambda goldens: lambda: dict(zip(("t1", "t3"), reversed(goldens().values()))),
                "deutsch-extended-checkpoints",
                "t1 deviates beyond 1e-12; t3 deviates beyond 1e-12",
            ),
            (
                "grover_extended_golden",
                lambda golden: lambda: qregsim.state_from_terms(
                    golden().layout, [({"m": 1, "a": 2, "v": 0}, 1.0)]
                ),
                "grover-extended-checkpoints",
                "t3 state wrong",
            ),
            (
                # right at n = 1, where N/2 is 1; wrong before measurement from n = 2 on
                "schmidt_rank",
                lambda rank: lambda state, cut: 1,
                "entanglement-lifecycle",
                "two_to_one_xor n=2 r=1: pre-measurement rank != N/2",
            ),
        ],
        ids=["deutsch-extended", "grover-extended", "entanglement-lifecycle"],
    )
    def test_a_broken_reference_fails_only_its_own_check(
        self, monkeypatch, attr, breaking, name, detail
    ):
        monkeypatch.setattr(verification, attr, breaking(getattr(verification, attr)))
        failed = [check for check in verification.run_all_checks() if not check.passed]
        assert failed == [verification.CheckResult(name, False, detail)]


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--trials", "0"], "trials and sizes n must be >= 1, got 0 and [2, 3]"),
            (["--n-min", "0"], "trials and sizes n must be >= 1, got 30 and [0, 1, 2, 3]"),
            (["--n-min", "-1"], "trials and sizes n must be >= 1, got 30 and [-1, 0, 1, 2, 3]"),
            # an empty size range: no Simon row to print
            (["--n-min", "3", "--n-max", "2", "--trials", "1"],
             "trials and sizes n must be >= 1, got 1 and []"),
        ],
    )
    def test_refuses_no_trials_or_a_size_below_one(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["ledger", "--n-max", "3", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"qregsim: error: {message}"

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
        code, out = run_cli(capsys, "dump-oracle", "--family", "xor", "--n", "3", "--r", "5")
        assert code == 0
        oracle = oracle_from_json(json.loads(out))
        assert oracle.params["r"] == 5
        assert collision_xor_mask(oracle) == 5

    @pytest.mark.parametrize(
        "modulus, width", [(2**63 + 5, 64), (2**64 + 13, 65)], ids=["64-bit", "65-bit"]
    )
    def test_a_codomain_over_63_bits_exits_usage(self, capsys, modulus, width):
        with pytest.raises(SystemExit) as exc:
            main(["dump-oracle", "--family", "modexp", "--a", "2", "--L", str(modulus), "--n", "2"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"error: codomain width {width} exceeds 63 bits\n" in captured.err

    def test_modexp_dump(self, capsys):
        code, out = run_cli(
            capsys, "dump-oracle", "--family", "modexp", "--a", "7", "--L", "15", "--n", "4"
        )
        assert code == 0
        assert json.loads(out)["table"] == [pow(7, x, 15) for x in range(16)]

    def test_seed_is_not_an_option(self, capsys):
        # no dump draws anything, so a seed would change nothing
        with pytest.raises(SystemExit) as exc:
            main(["dump-oracle", "--family", "xor", "--n", "3", "--r", "5", "--seed", "1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --seed 1" in captured.err

    def test_missing_parameters(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dump-oracle", "--family", "modexp", "--a", "7"])
        assert exc.value.code == 2
        assert "modexp needs --a and --L and --n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, start",
        [
            (["dump-oracle", "--family", "modexp", "--a", "7", "--L", "15", "--n", "16"],
             b'{\n  "famil'),
            # 17 MB of trials, written in batches
            (["run", "--algo", "simon", "--n", "4", "--r", "3", "--seed", "101",
              "--trials", "2000"], b'{\n  "aggre'),
        ],
        ids=["dump-oracle", "run"],
    )
    def test_closed_stdout_ends_quietly(self, argv, start):
        """A reader that stops after a few bytes of a 2^16-entry table or of a 2000-trial
        run, far more than a pipe holds, gets no traceback and no second error from the
        final flush."""
        src = os.path.dirname(os.path.dirname(qregsim.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        with subprocess.Popen(
            [sys.executable, "-m", "qregsim.cli", *argv],
            env={**os.environ, "PYTHONPATH": path},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as child:
            assert child.stdout.read(10) == start
            child.stdout.close()
            err = child.stderr.read()
            code = child.wait(timeout=60)
        assert err == b""
        assert code == 1

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

    @pytest.mark.parametrize("cap", [4, 9])
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--algo", "simon", "--n", "2", "--r", "2", "--seed", "1"],
            ["run", "--algo", "shor", "--a", "7", "--L", "15", "--seed", "1"],
            ["run", "--algo", "deutsch", "--variant", "extended", "--seed", "1"],
            ["run", "--algo", "grover2", "--variant", "extended", "--seed", "1"],
            ["ledger", "--n-max", "3", "--trials", "2"],
            ["verify"],
            ["dump-oracle", "--family", "kronecker", "--n", "5", "--k", "3"],
        ],
        ids=lambda argv: "-".join(argv[:3]),
    )
    def test_every_layout_is_within_the_cap_or_the_command_is_refused(
        self, capsys, monkeypatch, argv, cap
    ):
        widths = []
        check = RegisterLayout.__post_init__

        def spy(layout):
            widths.append(sum(int(width) for _, width in layout.registers))
            check(layout)

        monkeypatch.setattr(RegisterLayout, "__post_init__", spy)
        monkeypatch.setenv("DIS_WIDTH_CAP", str(cap))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        if code == 2:
            assert out == "" and "cap" in err
        else:
            assert code == 0 and max(widths, default=0) <= cap, (code, widths)

    @pytest.mark.parametrize("cap, n_max", [("6", "5"), (None, "13")])
    def test_ledger_refuses_an_over_cap_size_before_any_row(self, capsys, monkeypatch, cap, n_max):
        calls = []
        for name in ("solve_simon", "run_deutsch", "run_grover2"):
            monkeypatch.setattr(
                f"qregsim.algorithms.ledger.{name}", lambda *a, name=name, **k: calls.append(name)
            )
        if cap is None:
            monkeypatch.delenv("DIS_WIDTH_CAP", raising=False)
        else:
            monkeypatch.setenv("DIS_WIDTH_CAP", cap)
        with pytest.raises(SystemExit) as exc:
            main(["ledger", "--n-max", n_max, "--trials", "2"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "exceeds cap" in err
        assert calls == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["dump-oracle", "--family", "xor", "--n", "34", "--r", "1"],
            ["run", "--algo", "simon", "--n", "34", "--r", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_domain_wider_than_the_cap_is_refused_before_its_table_is_allocated(self, argv):
        # the child lowers its own address-space limit to 2 GiB: a 2^34-entry table
        # would fail there as "not enough memory" rather than name the cap
        code = (
            "import resource, sys\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, hard))\n"
            "from qregsim.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = os.path.dirname(os.path.dirname(qregsim.__file__))
        env = {key: value for key, value in os.environ.items() if key != "DIS_WIDTH_CAP"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert "domain width 34 exceeds cap 24 qubits" in done.stderr
        assert "not enough memory" not in done.stderr


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
            return _outcome_path(*args, **kwargs)

        monkeypatch.setattr("qregsim.cli._outcome_path", third_trial_fails)
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
        before, after = map(int, fresh_python(code, *argv, timeout=300).split())
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
