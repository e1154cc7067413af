"""Command line behavior: outputs, exit codes, determinism, config precedence."""

import argparse
import dataclasses
import errno
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import biascal as bc
import biascal.cli as cli
from biascal.cli import main
from conftest import INT_DIGIT_LIMIT

BENCH_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def run(*argv):
    return main([str(a) for a in argv])


def synth_files(tmp_path, subdir="data", **kwargs):
    out = tmp_path / subdir
    args = ["synth", "--out", out]
    for key, value in kwargs.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, (tuple, list)):
            args.extend([flag, *value])
        else:
            args.extend([flag, value])
    assert run(*args) == 0
    return out / "corpus.jsonl", out / "stats.json"


def read_bytes_map(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


class TestSynthCommand:
    def test_files_round_trip(self, tmp_path):
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=3, instances_per_activity=5, seed=4
        )
        corpus = bc.load_corpus(corpus_path)
        stats = bc.load_training_stats(stats_path)
        assert len(corpus) == 15
        assert len(stats.counts) == 3

    def test_boost_increases_reported_amplification(self, tmp_path, capsys):
        low = synth_files(tmp_path, "low", n_activities=6, instances_per_activity=200,
                          boost=0.0, seed=6)
        high = synth_files(tmp_path, "high", n_activities=6, instances_per_activity=200,
                          boost=1.0, seed=6)
        amps = []
        for corpus_path, stats_path in (low, high):
            out = corpus_path.parent / "report"
            assert run("report", "--corpus", corpus_path, "--stats", stats_path, "--out", out) == 0
            payload = json.loads((out / "report.json").read_text())
            amps.append(payload["mean_amp_dist"])
        assert amps[1] > amps[0]

    def test_invalid_bias_range_fails(self, tmp_path):
        assert run("synth", "--out", tmp_path / "x", "--bias-range", "0.9", "0.1") == 1

    def test_negative_seed_is_one_error_line(self, tmp_path, capsys):
        assert run("synth", "--out", tmp_path / "x", "--seed", "-1") == 1
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
        assert not (tmp_path / "x").exists()

    def test_unset_flags_take_the_generator_defaults(self, tmp_path):
        synth_files(tmp_path, "cli", instances_per_activity=2, boost=0.5)
        corpus, stats = bc.generate(bc.SynthConfig(instances_per_activity=2,
                                                   amplification_boost=0.5))
        (tmp_path / "api").mkdir()
        bc.dump_corpus(corpus, tmp_path / "api" / "corpus.jsonl")
        bc.dump_training_stats(stats, tmp_path / "api" / "stats.json")
        assert read_bytes_map(tmp_path / "cli") == read_bytes_map(tmp_path / "api")


class TestReportCommand:
    def test_writes_report_and_scatter(self, tmp_path, capsys):
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=4, instances_per_activity=50, boost=1.0, seed=2
        )
        out = tmp_path / "rep"
        assert run("report", "--corpus", corpus_path, "--stats", stats_path, "--out", out) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["schema_version"] == 1
        assert len(payload["activities"]) == 4
        lines = (out / "scatter.csv").read_text().splitlines()
        assert lines[0] == "activity,b_star,bias_dist,bias_top,violated_dist,violated_top"
        assert len(lines) == 5
        assert "A_dist" in capsys.readouterr().out

    def test_zero_boost_reports_few_violations(self, tmp_path):
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=10, instances_per_activity=1000, boost=0.0, seed=3
        )
        out = tmp_path / "rep"
        assert run("report", "--corpus", corpus_path, "--stats", stats_path, "--out", out) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["n_violations_dist"] <= 0.05 * len(payload["activities"])

    def test_notes_excluded_activities(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(
            '{"id":"a","candidates":['
            '{"activity":"x","gender":"M","score":0.0},'
            '{"activity":"x","gender":"W","score":1.0},'
            '{"activity":"y","gender":"M","score":0.0}]}\n'
        )
        stats_path = tmp_path / "stats.json"
        stats_path.write_text('{"x": {"male": 5, "female": 5}}\n')
        assert run("report", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", tmp_path / "rep") == 0
        assert capsys.readouterr().err == (
            "note: 1 activities excluded from the constraint set "
            "(no gendered training labels or no gendered candidates): y\n"
        )

    @pytest.mark.parametrize("gamma_eval", ["nan", "inf", "-1"])
    def test_gamma_eval_must_be_finite_and_nonnegative(self, tmp_path, capsys, gamma_eval):
        corpus_path, stats_path = synth_files(tmp_path, n_activities=3, instances_per_activity=5)
        out = tmp_path / "rep"
        assert run("report", "--corpus", corpus_path, "--stats", stats_path, "--out", out,
                   f"--gamma-eval={gamma_eval}") == 1
        assert "gamma_eval must be a finite nonnegative real" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_missing_corpus_flag_fails(self, tmp_path):
        assert run("report", "--stats", tmp_path / "none.json") == 1

    def test_no_constrained_activities_fails(self, tmp_path):
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(
            '{"id":"a","candidates":[{"activity":"x","gender":"-","score":0.0}]}\n'
        )
        stats_path = tmp_path / "stats.json"
        stats_path.write_text('{"x": {"male": 5, "female": 5}}\n')
        assert run("report", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", tmp_path / "rep") == 1


    def test_deeply_nested_line_exits_one(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text("[" * 100_000 + "\n")
        stats_path = tmp_path / "stats.json"
        stats_path.write_text('{"x": {"male": 5, "female": 5}}\n')
        capsys.readouterr()
        assert run("report", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", tmp_path / "rep") == 1
        assert capsys.readouterr().err == "error: line 1: invalid JSON (nested too deeply)\n"

    @pytest.mark.parametrize("past, message", [
        ("float range", "error: line 2: instance 'b': score must be a real number, "
                        "got an integer beyond the float range\n"),
        ("digit limit", "error: line 2: invalid JSON (Exceeds the limit ("),
    ])
    def test_huge_integer_score_exits_one(self, tmp_path, capsys, past, message):
        if past == "float range":
            digits = 400
        elif INT_DIGIT_LIMIT:
            digits = INT_DIGIT_LIMIT + 1
        else:
            pytest.skip("no integer digit limit in this interpreter")
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(
            '{"id":"a","candidates":[{"activity":"x","gender":"M","score":0.5}]}\n'
            '{"id":"b","candidates":[{"activity":"x","gender":"W","score":1%s}]}\n'
            % ("0" * digits)
        )
        stats_path = tmp_path / "stats.json"
        stats_path.write_text('{"x": {"male": 5, "female": 5}}\n')
        capsys.readouterr()
        assert run("report", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", tmp_path / "rep") == 1
        assert capsys.readouterr().err.startswith(message)


class TestCalibrateCommand:
    def test_feasible_corpus_keeps_everything(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(
            '{"id":"a","candidates":['
            '{"activity":"x","gender":"M","score":0.0},'
            '{"activity":"x","gender":"W","score":0.0}]}\n'
        )
        stats_path = tmp_path / "stats.json"
        stats_path.write_text('{"x": {"male": 5, "female": 5}}\n')
        out = tmp_path / "cal"
        assert run("calibrate", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", out, "--mode", "full-batch") == 0
        before = json.loads((out / "report_before.json").read_text())
        after = json.loads((out / "report_after.json").read_text())
        assert before == after
        checkpoint = json.loads((out / "checkpoint.json").read_text())
        assert checkpoint["lambda"] == [0.0, 0.0]

    def test_unbounded_dual_exits_zero(self, tmp_path):
        # male-only "cook" against a 3/7 training ratio: feasible only with no mass
        # on "cook", so the dual is bounded but has no maximum
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(
            '{"id":"a","candidates":['
            '{"activity":"cook","gender":"M","score":1.0},'
            '{"activity":"other","gender":"-","score":0.0}]}\n'
            '{"id":"b","candidates":['
            '{"activity":"cook","gender":"M","score":0.5},'
            '{"activity":"other","gender":"-","score":0.2}]}\n'
        )
        stats_path = tmp_path / "stats.json"
        stats_path.write_text('{"cook": {"male": 3, "female": 7}}\n')
        out = tmp_path / "cal"
        assert run("calibrate", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", out, "--mode", "full-batch") == 0
        checkpoint = json.loads((out / "checkpoint.json").read_text())
        assert all(np.isfinite(checkpoint["lambda"]))

    def test_infinite_convergence_tol_exits_one(self, tmp_path, capsys):
        corpus_path, stats_path = synth_files(tmp_path, n_activities=3, instances_per_activity=5)
        out = tmp_path / "cal"
        assert run("calibrate", "--corpus", corpus_path, "--stats", stats_path, "--out", out,
                   "--mode", "full-batch", "--convergence-tol", "inf") == 1
        assert "convergence_tol must be finite and positive" in capsys.readouterr().err
        assert not (out / "calibrated.jsonl").exists()

    def test_overflowing_stochastic_step_exits_two(self, tmp_path, capsys):
        # the first Adam step overflows lam to inf; that is divergence, and
        # no numpy warning may come before the solver's own message
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=2, instances_per_activity=20, boost=1.0, seed=1
        )
        capsys.readouterr()
        out = tmp_path / "cal"
        assert run("calibrate", "--corpus", corpus_path, "--stats", stats_path, "--out", out,
                   "--lr", "1e308", "--lr-decay", "1") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite dual vector at coordinate ")
        assert err.count("\n") == 1
        assert not (out / "calibrated.jsonl").exists()

    def test_stochastic_solve_that_moves_a_ratio_away_warns(self, tmp_path, capsys):
        # a rate of 1e300 throws lam far past the optimum without overflowing it
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=3, instances_per_activity=30, boost=1.0, seed=1
        )
        capsys.readouterr()
        out = tmp_path / "cal"
        assert run("calibrate", "--corpus", corpus_path, "--stats", stats_path, "--out", out,
                   "--lr", "1e300", "--epochs", 2) == 0
        assert capsys.readouterr().err == (
            "warning: the stochastic solve raised the largest |bias_dist - b_star| "
            "from 0.1187 to 0.5000\n")
        assert len(list(out.iterdir())) == 6

    def test_full_batch_removes_violations(self, tmp_path):
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=10, instances_per_activity=100, boost=1.0, seed=12
        )
        out = tmp_path / "cal"
        assert run("calibrate", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", out, "--mode", "full-batch") == 0
        before = json.loads((out / "report_before.json").read_text())
        after = json.loads((out / "report_after.json").read_text())
        assert before["n_violations_dist"] >= 3
        assert after["n_violations_dist"] <= 2
        assert abs(after["mean_amp_dist"]) <= 0.01

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=5, instances_per_activity=60, boost=1.0, seed=14
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run("calibrate", "--corpus", corpus_path, "--stats", stats_path,
                       "--out", out, "--mode", "full-batch", "--seed", 7) == 0
        assert read_bytes_map(out_a) == read_bytes_map(out_b)

    def test_calibrated_file_matches_after_report(self, tmp_path):
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=4, instances_per_activity=60, boost=1.0, seed=15
        )
        out = tmp_path / "cal"
        assert run("calibrate", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", out, "--mode", "full-batch") == 0
        corpus = bc.load_corpus(corpus_path)
        stats = bc.load_training_stats(stats_path)
        rows = []
        with open(out / "calibrated.jsonl", "r", encoding="utf-8") as handle:
            for inst_id, line in zip(corpus.ids, handle):
                record = json.loads(line)
                assert record["id"] == inst_id
                probs = np.array([c["prob"] for c in record["candidates"]])
                rows.append(probs / probs.sum())
        posteriors = bc.PosteriorTable(corpus, np.concatenate(rows))
        predictions = bc.map_predict(posteriors)
        report = bc.build_report(corpus, stats, posteriors, predictions, gamma_eval=0.05)
        emitted = json.loads((out / "report_after.json").read_text())
        assert report.n_violations_dist == emitted["n_violations_dist"]
        assert abs(report.mean_amp_dist - emitted["mean_amp_dist"]) < 1e-12

    def test_stochastic_mode_runs(self, tmp_path, capsys):
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=4, instances_per_activity=50, boost=1.0, seed=16
        )
        out = tmp_path / "cal"
        assert run("calibrate", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", out, "--mode", "stochastic", "--epochs", 10) == 0
        assert "warning" not in capsys.readouterr().err
        after = json.loads((out / "report_after.json").read_text())
        before = json.loads((out / "report_before.json").read_text())
        assert abs(after["mean_amp_dist"]) < abs(before["mean_amp_dist"])


class TestExitCodes:
    @pytest.mark.parametrize("command, shape, flags, unrelated_stats, code", [
        ("report", (2, 4), (), True, 1),
        ("calibrate", (2, 4), (), True, 1),
        ("calibrate", (3, 30), ("--lr", "1e308", "--epochs", 3), False, 2),
    ], ids=["report_no_constraints", "calibrate_no_constraints", "calibrate_divergence"])
    def test_a_failed_run_leaves_no_out(self, tmp_path, capsys, command, shape, flags,
                                        unrelated_stats, code):
        corpus_path, stats_path = synth_files(tmp_path, n_activities=shape[0],
                                              instances_per_activity=shape[1], boost=1.0, seed=1)
        if unrelated_stats:  # names no activity of the corpus, so nothing is constrained
            stats_path = tmp_path / "unrelated.json"
            stats_path.write_text('{"not_in_the_corpus": {"male": 1, "female": 1}}\n')
        out = tmp_path / "out"
        assert run(command, "--corpus", corpus_path, "--stats", stats_path, "--out", out,
                   *flags) == code
        assert not out.exists()

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
    @pytest.mark.parametrize("mode", [("full-batch", "--max-steps", 50), ("stochastic",)],
                             ids=["full_batch", "stochastic"])
    def test_an_infeasible_system_exits_two(self, tmp_path, capsys, mode):
        # b* is 0.25 and the one candidate is male, so no posterior meets the bound
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(
            '{"id": "a", "candidates": [{"activity": "x", "gender": "M", "score": 0}]}\n')
        stats_path = tmp_path / "stats.json"
        stats_path.write_text('{"x": {"male": 1, "female": 3}}\n')
        out = tmp_path / "cal"
        code = run("calibrate", "--corpus", corpus_path, "--stats", stats_path, "--out", out,
                   "--mode", *mode)
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "'x'" in err
        assert not out.exists()

    @pytest.mark.parametrize("error, code", [
        (bc.SolverDivergenceError("boom"), 2),
        (bc.ValidationError("boom"), 1),
        (bc.DegenerateDistributionError("boom"), 1),
        (OSError("boom"), 1),
    ])
    def test_each_error_kind_has_its_code(self, tmp_path, monkeypatch, capsys, error, code):
        corpus_path, stats_path = synth_files(tmp_path, n_activities=2, instances_per_activity=4)

        def failing_solve(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "solve", failing_solve, raising=False)
        capsys.readouterr()
        assert run("calibrate", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", tmp_path / "cal") == code
        assert capsys.readouterr().err == "error: boom\n"

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["nope"], "invalid choice: 'nope'"),
        (["calibrate", "--mode", "newton"], "invalid choice: 'newton'"),
        (["calibrate", "--epochs", "ten"], "invalid int value: 'ten'"),
        (["report", "--lr", "0.1"], "unrecognized arguments: --lr 0.1"),
        (["calibrate", "--resolution", "5"], "unrecognized arguments: --resolution 5"),
        (["oracle"], "invalid choice: 'oracle'"),
    ])
    def test_usage_error_exits_one(self, capsys, argv, message):
        # 2 is the solver-failure code, so argparse's own exit code is not passed on
        assert run(*argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["report", "--help"], ["synth", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        assert run(*argv) == 0
        assert capsys.readouterr().out.startswith("usage: biascal")


class TestFlags:
    PATHS = {"--config", "--corpus", "--stats", "--out"}

    @staticmethod
    def flags(command):
        [sub] = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        actions = sub.choices[command]._actions
        return {flag for a in actions for flag in a.option_strings} - {"-h", "--help"}

    def test_each_pipeline_command_takes_only_the_flags_it_reads(self):
        assert self.flags("report") == self.PATHS | {"--gamma-eval"}
        assert self.flags("calibrate") == self.PATHS | {
            "--gamma-eval", "--gamma-solve", "--batch-size", "--epochs", "--lr", "--lr-decay",
            "--seed", "--mode", "--convergence-tol", "--max-steps"}

    def test_run_config_restates_the_solver_defaults(self):
        # `report` must not import the solver, so RunConfig repeats SolverConfig's
        # defaults instead of reading them; this pins the two together
        assert cli.RunConfig().solver_config() == bc.SolverConfig()


class TestSettingsCheckedFirst:
    # the corpus path does not exist, so a check that ran after loading
    # would report the missing file instead of the setting
    @pytest.mark.parametrize("subcommand, flags, message", [
        ("report", ["--gamma-eval", "nan"], "gamma_eval must be a finite nonnegative real"),
        ("calibrate", ["--epochs", "0"], "batch_size, epochs and max_steps must be positive"),
        ("calibrate", ["--gamma-eval", "-1"], "gamma_eval must be a finite nonnegative real"),
        ("calibrate", ["--gamma-solve", "inf"], "gamma_solve must be a finite nonnegative real"),
        ("calibrate", ["--lr-decay", "2"], "lr_decay must lie in (0, 1]"),
        ("calibrate", ["--seed", "-1"], "seed must be nonnegative, got -1"),
    ])
    def test_bad_setting_exits_one_before_loading(self, tmp_path, capsys, subcommand, flags,
                                                   message):
        out = tmp_path / "out"
        assert run(subcommand, "--corpus", tmp_path / "missing.jsonl",
                   "--stats", tmp_path / "missing.json", "--out", out, *flags) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    # a file's mode takes exactly the flag's values, and an error quotes it as written
    @pytest.mark.parametrize("mode", ["newton", "full_batch", "Full-Batch"])
    def test_bad_setting_in_config_file_exits_one_before_loading(self, tmp_path, capsys, mode):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"mode": mode}) + "\n")
        out = tmp_path / "out"
        assert run("calibrate", "--corpus", tmp_path / "missing.jsonl",
                   "--stats", tmp_path / "missing.json", "--out", out,
                   "--config", config_path) == 1
        assert f"unknown mode {mode!r}" in capsys.readouterr().err
        assert not out.exists()


class TestConfigPrecedence:
    def test_flags_beat_config_file_beat_defaults(self, tmp_path):
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=3, instances_per_activity=30, boost=1.0, seed=19
        )
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"gamma_eval": 0.2, "epochs": 3}))
        out = tmp_path / "rep"
        assert run("report", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", out, "--config", config_path) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["gamma_eval"] == 0.2

        out2 = tmp_path / "rep2"
        assert run("report", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", out2, "--config", config_path, "--gamma-eval", 0.3) == 0
        payload = json.loads((out2 / "report.json").read_text())
        assert payload["gamma_eval"] == 0.3

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]\n", "config file must be a JSON object"),
        ('{"lr":\n}\n', "invalid config JSON at line 2: Expecting value"),
    ])
    def test_config_file_must_be_a_json_object(self, tmp_path, capsys, text, message):
        config_path = tmp_path / "run.json"
        config_path.write_text(text)
        assert run("report", "--corpus", tmp_path / "missing.jsonl",
                   "--stats", tmp_path / "missing.json", "--config", config_path) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_repeated_config_key_fails(self, tmp_path, capsys):
        # json.load keeps the last value, so this would run at 0.5
        corpus_path, stats_path = synth_files(tmp_path, n_activities=2,
                                              instances_per_activity=5, seed=20)
        config_path = tmp_path / "run.json"
        config_path.write_text('{"gamma_eval": 0.05, "gamma_eval": 0.5}\n')
        out = tmp_path / "rep"
        assert run("report", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", out, "--config", config_path) == 1
        assert capsys.readouterr().err == "error: config file repeats key 'gamma_eval'\n"
        assert not out.exists()

    def test_one_config_file_serves_every_command(self, tmp_path, capsys):
        # every key is accepted, and type-checked, by every command
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=1, instances_per_activity=5, candidates_per_instance=3,
            boost=1.0, seed=17
        )
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"gamma_eval": 0.2, "lr": 0.2, "mode": "full-batch"}))
        for command in ("report", "calibrate"):
            assert run(command, "--corpus", corpus_path, "--stats", stats_path,
                       "--out", tmp_path / command, "--config", config_path) == 0
        config_path.write_text(json.dumps({"lr": "0.2"}))
        assert run("report", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", tmp_path / "bad", "--config", config_path) == 1
        # `resolution` is no setting, so a file that sets it is refused
        config_path.write_text(json.dumps({"resolution": 5}))
        capsys.readouterr()
        assert run("calibrate", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", tmp_path / "resolution", "--config", config_path) == 1
        assert capsys.readouterr().err == "error: unknown config key 'resolution'\n"

    def test_a_setting_is_checked_only_by_the_commands_that_read_it(self, tmp_path, capsys):
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=2, instances_per_activity=4, boost=1.0, seed=1
        )
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"epochs": 0}))
        assert run("report", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", tmp_path / "report", "--config", config_path) == 0
        capsys.readouterr()
        assert run("calibrate", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", tmp_path / "calibrate", "--config", config_path) == 1
        assert capsys.readouterr().err == (
            "error: batch_size, epochs and max_steps must be positive\n")
        assert not (tmp_path / "calibrate").exists()

    def test_unknown_config_key_fails(self, tmp_path):
        corpus_path, stats_path = synth_files(tmp_path, n_activities=2,
                                              instances_per_activity=5, seed=20)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"not_a_key": 1}))
        assert run("report", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", tmp_path / "rep", "--config", config_path) == 1

    @pytest.mark.parametrize("values", [
        {"epochs": "10"}, {"gamma_eval": None}, {"max_steps": True}, {"seed": 1.5},
        {"corpus": 3}, {"mode": None},
    ])
    def test_mistyped_config_value_fails(self, tmp_path, capsys, values):
        corpus_path, stats_path = synth_files(tmp_path, n_activities=2,
                                              instances_per_activity=5, seed=20)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(values))
        assert run("calibrate", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", tmp_path / "cal", "--config", config_path) == 1
        [key] = values
        assert capsys.readouterr().err.startswith(f"error: config key {key!r} must be of type")

    @pytest.mark.parametrize("key, value, message", [
        pytest.param("lr", 10**400, "config key 'lr' must be a real number, got an integer "
                     "beyond the float range", id="lr"),
        pytest.param("seed", 2**64, "config key 'seed' must be an integer, got an integer "
                     "beyond the 64-bit range", id="seed"),
    ])
    def test_huge_config_integer_is_one_error_line(self, tmp_path, capsys, key, value, message):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({key: value}))
        out = tmp_path / "cal"
        assert run("calibrate", "--corpus", tmp_path / "missing.jsonl",
                   "--stats", tmp_path / "missing.json", "--out", out,
                   "--config", config_path) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_every_config_field_type_is_checked(self):
        assert {f.type for f in dataclasses.fields(cli.RunConfig)} <= set(cli._CONFIG_TYPES)

    def test_integer_accepted_for_float_key(self, tmp_path):
        corpus_path, stats_path = synth_files(tmp_path, n_activities=2,
                                              instances_per_activity=5, seed=20)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"lr": 1, "gamma_eval": 0}))
        out = tmp_path / "cal"
        assert run("calibrate", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", out, "--config", config_path) == 0
        assert json.loads((out / "report_before.json").read_text())["gamma_eval"] == 0

    def test_a_setting_by_flag_or_by_config_file_writes_the_same_bytes(self, tmp_path):
        # an integer in the file is read as the float the flag parses
        corpus_path, stats_path = synth_files(tmp_path, n_activities=3,
                                              instances_per_activity=20, boost=1.0, seed=1)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"gamma_eval": 0, "gamma_solve": 0, "lr": 1}))
        flags = {"report": ["--gamma-eval", 0],
                 "calibrate": ["--gamma-eval", 0, "--gamma-solve", 0, "--lr", 1]}
        for command, given in flags.items():
            by_flag, by_file = tmp_path / f"{command}-flags", tmp_path / f"{command}-file"
            inputs = ("--corpus", corpus_path, "--stats", stats_path)
            assert run(command, *inputs, "--out", by_flag, *given) == 0
            assert run(command, *inputs, "--out", by_file, "--config", config_path) == 0
            assert read_bytes_map(by_flag) == read_bytes_map(by_file)


class TestAtomicOutputs:
    def test_every_output_replaces_its_target(self, tmp_path, monkeypatch):
        replaced = []
        real_replace = os.replace

        def recording_replace(source, target):
            replaced.append(Path(target))
            real_replace(source, target)

        monkeypatch.setattr(os, "replace", recording_replace)
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=3, instances_per_activity=10, boost=1.0, seed=21
        )
        for subcommand in ("report", "calibrate"):
            assert run(subcommand, "--corpus", corpus_path, "--stats", stats_path,
                       "--out", tmp_path / subcommand) == 0
        written = [p for d in ("data", "report", "calibrate") for p in (tmp_path / d).iterdir()]
        assert sorted(replaced) == sorted(written)
        assert len(written) == 10

    def test_failed_write_keeps_previous_outputs(self, tmp_path, monkeypatch, capsys):
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=3, instances_per_activity=10, boost=1.0, seed=21
        )
        out = tmp_path / "cal"
        assert run("calibrate", "--corpus", corpus_path, "--stats", stats_path, "--out", out) == 0
        previous = read_bytes_map(out)

        def failing_replace(source, target):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", failing_replace)
        capsys.readouterr()
        assert run("calibrate", "--corpus", corpus_path, "--stats", stats_path, "--out", out,
                   "--mode", "full-batch") == 1
        assert capsys.readouterr().err == "error: no space left on device\n"
        assert read_bytes_map(out) == previous


def child_run(args, env=None, **kwargs):
    """``python *args`` in a fresh interpreter that imports this biascal.

    ``env`` replaces the environment (default: this process's).
    """
    env = dict(os.environ if env is None else env)
    src = str(Path(bc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)], env=env, text=True, timeout=60,
                          **kwargs)


def child_output(code, *argv, env=None):
    """Last line that ``code`` prints in a fresh interpreter that imports this biascal.

    A command prints before the last line.
    """
    result = child_run(["-c", code, *argv], env=env, capture_output=True, check=True)
    return result.stdout.splitlines()[-1]


def child_modules(code, *argv):
    """Sorted names in sys.modules after ``code`` runs in a fresh interpreter."""
    return child_output(code + "\nimport sys; print(' '.join(sorted(sys.modules)))", *argv).split()


# what `report` never runs: the constraint set, the solver, the generator,
# and the hash modules behind `secrets`
NOT_FOR_REPORT = ("biascal.constraints", "biascal.solver", "biascal.synth", "secrets", "hashlib")
# test dependencies: every command runs on numpy alone
TEST_ONLY = {"scipy", "hypothesis"}


class TestProcess:
    def test_import_leaves_scipy_unloaded(self):
        loaded = child_modules("import biascal.cli")
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == []

    def test_import_and_report_load_only_what_report_runs(self, tmp_path):
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=2, instances_per_activity=4, boost=1.0, seed=21
        )
        run_cli = "import sys, biascal.cli\nassert biascal.cli.main(sys.argv[1:]) == 0"
        argv = ("--corpus", corpus_path, "--stats", stats_path)
        loaded = child_modules("import biascal.cli")
        assert [m for m in NOT_FOR_REPORT if m in loaded] == []
        loaded = child_modules(run_cli, "report", *argv, "--out", tmp_path / "rep")
        assert [m for m in NOT_FOR_REPORT if m in loaded] == []
        assert (tmp_path / "rep" / "report.json").is_file()
        runs = [loaded]
        # the same probe sees the solver once a command runs it, and each
        # command loads only its own modules
        for mode in ("stochastic", "full-batch"):
            loaded = set(child_modules(run_cli, "calibrate", *argv, "--out", tmp_path / mode,
                                       "--mode", mode))
            assert {"biascal.constraints", "biascal.solver"} <= loaded
            assert "biascal.synth" not in loaded
            runs.append(loaded)
        loaded = set(child_modules(run_cli, "synth", "--out", tmp_path / "syn"))
        assert not loaded & {"biascal.constraints", "biascal.solver"}
        runs.append(loaded)
        for loaded in runs:
            assert not {m.split(".")[0] for m in loaded} & TEST_ONLY

    def test_deferred_names_are_the_submodules_objects(self):
        from biascal import constraints, solver, synth

        for name, module in [("ConstraintSet", constraints), ("SolverConfig", solver),
                             ("calibrate", solver),
                             ("save_checkpoint", solver), ("solve", solver),
                             ("SynthConfig", synth), ("generate", synth)]:
            assert getattr(cli, name) is getattr(module, name)
        with pytest.raises(AttributeError, match="no attribute 'dual_gradient'"):
            cli.dual_gradient

    def test_benchmark_traced_names_are_called(self, tmp_path):
        # the benchmark's traced run wraps these names in biascal.cli and
        # fails when a subcommand stops calling one of them
        spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_TRACING)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=3, instances_per_activity=10, boost=1.0, seed=21
        )
        for subcommand in ("report", "calibrate"):
            tracer = tracing.Tracer()
            with tracing.installed(cli, tracer):
                assert cli.main([subcommand, "--corpus", str(corpus_path), "--stats",
                                 str(stats_path), "--out", str(tmp_path / subcommand)]) == 0
            tracer.check_called(subcommand)

    def test_synth_report_and_calibrate_build_no_instance_objects(self, tmp_path, monkeypatch):
        # the CLI runs on the corpus rows and never builds the per-instance view
        def forbidden(self):
            raise AssertionError("Corpus.instances built")

        monkeypatch.setattr(bc.Corpus, "instances", property(forbidden))
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=3, instances_per_activity=10, boost=1.0, seed=21
        )
        for subcommand in ("report", "calibrate"):
            assert cli.main([subcommand, "--corpus", str(corpus_path), "--stats",
                             str(stats_path), "--out", str(tmp_path / subcommand)]) == 0


# the variables biascal.__main__ sets, spelled out so that a name lost there fails here
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# ``python -m biascal ...``, run as runpy runs it, with the final os._exit
# raising SystemExit instead; then the process's thread count and the
# environment it ends with
RUN_MAIN_MODULE = """
import json, os, runpy, sys
sys.argv = ["biascal", *sys.argv[1:]]
def exit_by_raising(code):
    raise SystemExit(code)
os._exit = exit_by_raising
try:
    runpy.run_module("biascal", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
task = "/proc/self/task"
threads = len(os.listdir(task)) if os.path.isdir(task) else None
print(json.dumps({"threads": threads, "environ": dict(os.environ)}))
"""


class TestEntryPoint:
    # the thread variables only take effect if they are set before numpy
    # loads; biascal.__main__ is imported in child processes only, since
    # importing it binds the package attribute ``__main__``

    def test_main_module_loads_no_numpy_and_sets_nothing(self):
        loaded = child_modules(
            "import os\nbefore = dict(os.environ)\nimport biascal.__main__\n"
            "assert dict(os.environ) == before"
        )
        assert "biascal.__main__" in loaded
        assert [m for m in loaded if m.split(".")[0] == "numpy"] == []

    def test_installed_script_runs_the_main_module(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["biascal"]
        module, _, attribute = target.partition(":")
        resolves = child_output(
            "import importlib, sys, biascal.__main__\n"
            "print(getattr(importlib.import_module(sys.argv[1]), sys.argv[2])"
            " is biascal.__main__.main)",
            module, attribute,
        )
        assert resolves == "True"

    @pytest.mark.parametrize("preset", [None, "2"])
    def test_process_runs_blas_on_one_thread_unless_told_otherwise(self, tmp_path, preset):
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=3, instances_per_activity=10, boost=1.0, seed=21
        )
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        found = json.loads(child_output(
            RUN_MAIN_MODULE, "report", "--corpus", corpus_path, "--stats", stats_path,
            "--out", tmp_path / "rep", env=env,
        ))
        assert (tmp_path / "rep" / "report.json").is_file()
        expected = {name: "1" for name in THREAD_VARIABLES}
        if preset is not None:
            expected["OPENBLAS_NUM_THREADS"] = preset
        elif found["threads"] is not None:
            assert found["threads"] == 1
        assert {name: found["environ"].get(name) for name in THREAD_VARIABLES} == expected

    def test_in_process_run_leaves_the_environment_alone(self, tmp_path):
        before = dict(os.environ)
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=3, instances_per_activity=10, boost=1.0, seed=21
        )
        assert run("report", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", tmp_path / "rep") == 0
        assert dict(os.environ) == before


class TestMainModuleProcess:
    # ``python -m biascal`` ends with a flush and os._exit; what a run prints,
    # writes and exits with must be what an in-process cli.main gives

    @pytest.mark.parametrize("synth, argv, code", [
        (dict(n_activities=3, instances_per_activity=10, boost=1.0, seed=21),
         ["calibrate", "--mode", "full-batch"], 0),
        (None, ["report", "--no-such-flag"], 1),
        (dict(n_activities=2, instances_per_activity=20, boost=1.0, seed=1),
         ["calibrate", "--lr", "1e308", "--lr-decay", "1"], 2),
        (None, ["--help"], 0),
    ], ids=["full-batch", "unknown-flag", "overflow", "help"])
    def test_exit_code_stdout_stderr_and_outputs_match_in_process(
        self, tmp_path, monkeypatch, capsys, synth, argv, code
    ):
        monkeypatch.setenv("COLUMNS", "80")  # one help layout in both processes
        if synth is not None:
            corpus_path, stats_path = synth_files(tmp_path, **synth)
            argv = [*argv, "--corpus", corpus_path, "--stats", stats_path]
        capsys.readouterr()
        assert run(*argv, "--out", tmp_path / "in-process") == code
        expected = capsys.readouterr()
        child = child_run(["-m", "biascal", *argv, "--out", tmp_path / "child"],
                          capture_output=True)
        assert (child.returncode, child.stdout, child.stderr) == (
            code, expected.out, expected.err)
        if synth is not None and code == 0:
            assert child.stdout.startswith("A_dist ")
            outputs = read_bytes_map(tmp_path / "child")
            assert len(outputs) == 6
            assert outputs == read_bytes_map(tmp_path / "in-process")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_stdout_write_exits_one(self, tmp_path):
        # with block-buffered stdout the summary line reaches /dev/full only
        # when stdout is flushed, which cli.main does before it returns
        corpus_path, stats_path = synth_files(tmp_path, n_activities=3, instances_per_activity=10)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        with open("/dev/full", "w") as full:
            child = child_run(["-m", "biascal", "report", "--corpus", corpus_path, "--stats",
                               stats_path, "--out", tmp_path / "rep"],
                              env=env, stdout=full, stderr=subprocess.PIPE)
        assert child.returncode == 1
        assert child.stderr == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["report", "--help"]], ids=["top", "report"])
    def test_failed_help_write_exits_one(self, argv, unbuffered):
        # argparse drops an OSError from its own --help write, and a
        # block-buffered stdout fails only when flushed: both must fail the run
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            child = child_run(["-m", "biascal", *argv], env=env, stdout=full,
                              stderr=subprocess.PIPE)
        assert child.returncode == 1
        assert child.stderr == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"

    def test_closed_stdout_is_no_error(self, tmp_path):
        # a process started with stdout closed has sys.stdout None; the
        # summary line is dropped and the run succeeds, as print does
        corpus_path, stats_path = synth_files(tmp_path, n_activities=3, instances_per_activity=10)
        child = child_run(["-m", "biascal", "report", "--corpus", corpus_path, "--stats",
                           stats_path, "--out", tmp_path / "rep"],
                          stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
        assert (child.returncode, child.stderr) == (0, "")
        assert (tmp_path / "rep" / "report.json").is_file()
