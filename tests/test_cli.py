"""Command line behavior: outputs, exit codes, determinism, config precedence."""

import dataclasses
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
        ("float range", "error: line 2: instance 'b': score must be finite, got inf\n"),
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
        # male-only "cook" against a 3/7 training ratio: the dual is unbounded
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
        posteriors = []
        with open(out / "calibrated.jsonl", "r", encoding="utf-8") as handle:
            for inst, line in zip(corpus.instances, handle):
                record = json.loads(line)
                assert record["id"] == inst.id
                probs = np.array([c["prob"] for c in record["candidates"]])
                posteriors.append(bc.InstancePosterior(inst.id, probs / probs.sum()))
        predictions = [bc.map_predict(p) for p in posteriors]
        report = bc.build_report(corpus, stats, posteriors, predictions, gamma_eval=0.05)
        emitted = json.loads((out / "report_after.json").read_text())
        assert report.n_violations_dist == emitted["n_violations_dist"]
        assert abs(report.mean_amp_dist - emitted["mean_amp_dist"]) < 1e-12

    def test_stochastic_mode_runs(self, tmp_path):
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=4, instances_per_activity=50, boost=1.0, seed=16
        )
        out = tmp_path / "cal"
        assert run("calibrate", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", out, "--mode", "stochastic", "--epochs", 10) == 0
        after = json.loads((out / "report_after.json").read_text())
        before = json.loads((out / "report_before.json").read_text())
        assert abs(after["mean_amp_dist"]) < abs(before["mean_amp_dist"])


class TestOracleCommand:
    def test_feasible_toy_tv_zero(self, tmp_path):
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(
            '{"id":"a","candidates":['
            '{"activity":"x","gender":"M","score":0.0},'
            '{"activity":"x","gender":"W","score":0.0}]}\n'
        )
        stats_path = tmp_path / "stats.json"
        stats_path.write_text('{"x": {"male": 5, "female": 5}}\n')
        out = tmp_path / "cmp"
        assert run("oracle", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", out) == 0
        payload = json.loads((out / "comparison.json").read_text())
        assert payload["max_tv"] == 0.0
        assert payload["lambda_solver"] == [0.0, 0.0]
        assert payload["lambda_oracle"] == [0.0, 0.0]

    def test_single_activity_agreement(self, tmp_path, capsys):
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=1, instances_per_activity=5,
            candidates_per_instance=3, boost=1.0, seed=17
        )
        out = tmp_path / "cmp"
        assert run("oracle", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", out) == 0
        payload = json.loads((out / "comparison.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["max_tv"] <= 1e-4
        assert payload["kl_solver"] <= payload["kl_oracle"] + 1e-4

    def test_three_activities_refused(self, tmp_path):
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=3, instances_per_activity=4, seed=18
        )
        assert run("oracle", "--corpus", corpus_path, "--stats", stats_path,
                   "--out", tmp_path / "cmp") == 3


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


class TestProcess:
    def test_import_leaves_scipy_unloaded(self):
        src = str(Path(bc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, biascal.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True, timeout=60)
        assert result.stdout.strip() == "[]"

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
        # the CLI runs on the corpus rows; Instance objects are only built on request
        def forbidden(self):
            raise AssertionError(f"{type(self).__name__} constructed")

        monkeypatch.setattr(bc.Instance, "__post_init__", forbidden)
        monkeypatch.setattr(bc.CandidateStructure, "__post_init__", forbidden)
        corpus_path, stats_path = synth_files(
            tmp_path, n_activities=3, instances_per_activity=10, boost=1.0, seed=21
        )
        for subcommand in ("report", "calibrate"):
            assert cli.main([subcommand, "--corpus", str(corpus_path), "--stats",
                             str(stats_path), "--out", str(tmp_path / subcommand)]) == 0
