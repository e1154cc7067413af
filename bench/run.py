#!/usr/bin/env python3
"""Benchmark of the biascal command line, end to end and per layer.

    python3 bench/run.py --workload paper-stochastic --seed 93 --seconds 40 --trace 0

Set-up generates the workload's corpus and training stats from ``--seed``
with ``biascal.synth`` and writes them to disk; it is repeated between runs
and timed as ``setup_s``. With ``--trace 0`` the benchmark runs the real
CLI, ``python -m biascal ...``, in a child process, one run after another
(a closed loop with one client) for ``--seconds``. A fixed reference job,
``reference.py``, runs before the first run and after every run. The mean
wall time, CPU time and set-up time of the window are each divided by the
reference's mean over the same window, which takes out the host's changing
speed, and reported in seconds of a host on which the reference takes
``REFERENCE_S``; peak RSS is the median over the runs. With ``--trace 1``
the benchmark instead calls ``biascal.cli.main`` in-process, alternating
plain calls with calls whose package functions are wrapped in timing
spans, and reports the per-layer numbers. Every run's outputs are checked;
a run that fails a check counts as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A fuller result file with
provenance and every raw sample goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
# Times are reported in seconds of a host on which reference.py takes this
# long. It only sets the scale; see "Measuring on a shared host" in README.md.
REFERENCE_S = 0.9
MIN_RUNS = 2  # byte-identity needs a repeat
CHILD_TIMEOUT_S = 120.0  # a hung run still ends the benchmark within 180 s
MIB = float(1 << 20)
BOOST = 1.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    shape: dict
    smoke_shape: dict
    outputs: tuple[str, ...]


# Ten activities with training ratios drawn from a narrow band: with so few
# activities the default 0.1-0.9 band makes the quality numbers swing by a
# fifth from seed to seed, more than any bound the benchmark could hold.
NARROW = dict(n_activities=10, instances_per_activity=1500, candidates_per_instance=4,
              bias_range=(0.25, 0.35))
NARROW_SMOKE = dict(n_activities=4, instances_per_activity=60, candidates_per_instance=4,
                    bias_range=(0.25, 0.35))
CALIBRATE_OUTPUTS = ("report_before.json", "report_after.json", "scatter_before.csv",
                     "scatter_after.csv", "calibrated.jsonl", "checkpoint.json")

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-stochastic", ("calibrate", "--mode", "stochastic"), NARROW, NARROW_SMOKE,
            CALIBRATE_OUTPUTS,
        ),
        Workload(
            "fullbatch-wide", ("calibrate", "--mode", "full-batch"),
            dict(n_activities=200, instances_per_activity=15, candidates_per_instance=8),
            dict(n_activities=20, instances_per_activity=10, candidates_per_instance=8),
            CALIBRATE_OUTPUTS,
        ),
        Workload(
            "report-narrow", ("report",), NARROW, NARROW_SMOKE, ("report.json", "scatter.csv"),
        ),
    )
}


@dataclass
class Run:
    """One attempted run of the CLI and what its checks found."""

    wall_s: float
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    exit_code: int = 0
    problem: str | None = None
    digests: dict = field(default_factory=dict)


def median(values) -> float:
    return float(statistics.median(values))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], log: Path) -> Run:
    """Run a Python child to completion; wall time from spawn to exit, rusage from wait4."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=sink, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                finished = select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]
            finally:
                os.close(pidfd)
            if not finished:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    run = Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)
    if not finished:
        run.problem = f"timed out after {CHILD_TIMEOUT_S:.0f} s"
    elif run.exit_code != 0:
        run.problem = f"exit status {run.exit_code}: {log.read_text(errors='replace')[-400:]}"
    return run


def reference(work: Path) -> Run:
    """One run of the fixed reference job, which gauges the host's current speed."""
    run = spawn([str(BENCH / "reference.py"), str(work / "reference.jsonl")],
                work / "reference.log")
    if run.problem:
        raise RuntimeError(f"reference job failed: {run.problem}")
    return run


def synth_config(workload: Workload, seed: int, smoke: bool):
    from biascal.synth import SynthConfig

    return SynthConfig(amplification_boost=BOOST, seed=seed,
                       **(workload.smoke_shape if smoke else workload.shape))


class Inputs:
    """The workload's corpus and stats, regenerated between runs to time set-up.

    Set-up repeats are spread over the measuring window rather than done
    back to back, so that ``setup_s`` sees the same host conditions as the
    runs. Every repeat must write byte-identical files.
    """

    def __init__(self, workload: Workload, seed: int, smoke: bool, work: Path) -> None:
        self.config = synth_config(workload, seed, smoke)
        self.dir = work / "input"
        self.scratch = work / "input-again"
        self.samples: list[dict] = []
        self.problem: str | None = None
        self.digest = self._make(self.dir)

    def _make(self, target: Path) -> tuple[str, ...]:
        from biascal.corpus import dump_corpus, dump_training_stats
        from biascal.synth import generate

        target.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        corpus, stats = generate(self.config)
        generated = time.perf_counter()
        dump_corpus(corpus, target / "corpus.jsonl")
        dump_training_stats(stats, target / "stats.json")
        done = time.perf_counter()
        self.samples.append({"generate_s": generated - start, "dump_s": done - generated,
                             "setup_s": done - start})
        return tuple(hashlib.sha256((target / name).read_bytes()).hexdigest()
                     for name in ("corpus.jsonl", "stats.json"))

    def again(self) -> None:
        if self._make(self.scratch) != self.digest:
            self.problem = "synth output differs between set-up repeats"

    def finish(self) -> None:
        while len(self.samples) < SETUP_REPEATS:
            self.again()

    def fastest(self, key: str) -> float:
        return min(s[key] for s in self.samples)


def cli_argv(workload: Workload, inputs: Path, out: Path) -> list[str]:
    return [*workload.argv, "--corpus", str(inputs / "corpus.jsonl"),
            "--stats", str(inputs / "stats.json"), "--out", str(out)]


class Verifier:
    """Checks each run's outputs against the first readable ones, which are checked in full."""

    def __init__(self, workload: Workload, inputs: Path) -> None:
        self.workload = workload
        self.inputs = inputs
        self.reference: dict | None = None
        self.quality: dict[str, float] | None = None
        self.problem: str | None = None

    def verify(self, run: Run, out: Path) -> None:
        if run.problem:
            return
        try:
            run.digests = checks.digests(out, self.workload.outputs)
            if self.reference is None:
                self.quality, self.problem = checks.assess(self.workload.argv, self.inputs, out)
                self.reference = run.digests
            if self.problem:
                raise checks.CheckFailed(self.problem)
            if run.digests != self.reference:
                changed = sorted(k for k in run.digests if run.digests[k] != self.reference.get(k))
                raise checks.CheckFailed(f"outputs differ from the first run: {', '.join(changed)}")
        except checks.CheckFailed as exc:
            run.problem = str(exc)


def another_fits(start: float, seconds: float, durations: list[float]) -> bool:
    """Keep the loop inside its window: start a run only if a typical one still fits."""
    if len(durations) < MIN_RUNS:
        return True
    return time.perf_counter() - start + median(durations) <= seconds


def measure(workload: Workload, inputs: Inputs, work: Path,
            seconds: float) -> tuple[list[Run], list[Run], Verifier]:
    """Closed loop for ``seconds``: each round runs the CLI, repeats set-up, runs the reference.

    Reference runs also come before the first round, so that every run and
    every set-up repeat in the loop has one on either side.
    """
    verifier = Verifier(workload, inputs.dir)
    spawn(["-c", "import biascal.cli"], work / "warm.log")  # byte-compile outside the timing
    runs: list[Run] = []
    references = [reference(work)]
    rounds: list[float] = []
    start = time.perf_counter()
    while another_fits(start, seconds, rounds):
        began = time.perf_counter()
        out = work / f"run-{len(runs)}"
        run = spawn(["-m", "biascal", *cli_argv(workload, inputs.dir, out)], work / "run.log")
        verifier.verify(run, out)
        runs.append(run)
        if len(runs) > 1:
            shutil.rmtree(out, ignore_errors=True)
        if run.problem and run.problem.startswith("timed out"):
            break
        inputs.again()
        references.append(reference(work))
        rounds.append(time.perf_counter() - began)
    inputs.finish()
    return runs, references, verifier


def host_scaled(times: list[float], references: list[float]) -> float:
    """Mean time over the mean reference time of the same window, in seconds.

    On a shared host the CPU speed moves between levels about 1.6x apart,
    for seconds to minutes at a time, so raw times follow the host's load.
    The reference runs, interleaved with the timed ones, meet the same
    share of slow periods, and the ratio of the means does not. Means,
    not medians: a short reference run sees one speed level, so the median
    of the reference runs jumps between levels while their mean follows
    the share of time spent at each.
    """
    return statistics.fmean(times) / statistics.fmean(references) * REFERENCE_S


def end_to_end(runs: list[Run], references: list[Run], inputs: Inputs,
               quality: dict[str, float]) -> dict:
    # Set-up repeat 0 comes before the first reference run, outside the
    # window the reference runs cover.
    setups = [sample["setup_s"] for sample in inputs.samples[1:]]
    ref_wall = [r.wall_s for r in references]
    return {
        "wall_s": (host_scaled([r.wall_s for r in runs], ref_wall), "s"),
        "cpu_s": (host_scaled([r.cpu_s for r in runs], [r.cpu_s for r in references]), "s"),
        "peak_rss_mb": (median(r.peak_rss_mb for r in runs), "MB"),
        "setup_s": (host_scaled(setups, ref_wall), "s"),
        "max_ratio_dev": (quality["max_ratio_dev"], "ratio"),
        "kl_per_instance": (quality["kl_per_instance"], "nats"),
        "amp_top_after": (quality["amp_top_after"], "ratio"),
        "accuracy_after": (quality["accuracy_after"], "ratio"),
    }


def projected_gradient_norm(tracer: tracing.Tracer) -> float:
    """Max-norm of the final dual gradient with pinned coordinates projected out."""
    from biascal.solver import dual_gradient

    (corpus, posteriors, cs, config, *_), state = tracer.last["solve"]
    gradient = dual_gradient(state.lam, corpus, posteriors, cs)
    pinned = state.lam <= config.convergence_tol
    projected = np.where(pinned, np.maximum(gradient, 0.0), np.abs(gradient))
    return float(projected.max()) if projected.size else 0.0


def run_facts(tracer: tracing.Tracer) -> dict:
    """Counts and solver results of one traced call, computed outside its spans."""
    corpus = tracer.last["load_corpus"][1]
    facts = {"candidates": sum(len(inst.candidates) for inst in corpus.instances),
             "dim": 0, "steps": 0, "rows": 0, "pgrad_norm": 0.0}
    if "solve" in tracer.last:
        (_, _, _, config, *_), state = tracer.last["solve"]
        # One pass over the corpus per epoch; in full-batch mode one per
        # gradient, and a converged solve evaluates one more than it steps.
        passes = config.epochs if config.mode == "stochastic" else (
            state.step + (1 if state.step < config.max_steps else 0))
        facts.update(dim=tracer.last["ConstraintSet.from_stats"][1].dimension, steps=state.step,
                     rows=passes * facts["candidates"],
                     pgrad_norm=projected_gradient_norm(tracer))
    return facts


def traced_runs(workload: Workload, inputs: Inputs, work: Path,
                seconds: float) -> tuple[list[Run], dict, dict]:
    """Alternate plain and traced in-process ``main`` calls for ``seconds``.

    Each round also times one child ``import biascal.cli`` and one set-up
    repeat, so that those samples spread over the window too.
    """
    import biascal.cli as cli

    tracing.check_names(cli)
    verifier = Verifier(workload, inputs.dir)
    spawn(["-c", "import biascal.cli"], work / "warm.log")
    imports: list[Run] = []
    runs: list[Run] = []
    plain_s, spans, ratios = [], [], []
    facts = None
    rounds: list[float] = []
    start = time.perf_counter()
    while another_fits(start, seconds, rounds):
        began = time.perf_counter()
        timed = {}
        for traced in (False, True) if len(rounds) % 2 == 0 else (True, False):
            out = work / f"run-{len(runs)}"
            sink = io.StringIO()
            if traced:
                tracer = tracing.Tracer()
                scope = tracing.installed(cli, tracer)
            else:
                scope = contextlib.nullcontext()
            gc.collect()  # both kinds of call start from the same heap
            with scope, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                begin = time.perf_counter()
                code = cli.main(cli_argv(workload, inputs.dir, out))
                elapsed = time.perf_counter() - begin
            run = Run(elapsed, exit_code=code)
            if code != 0:
                run.problem = f"exit status {code}: {sink.getvalue()[-400:]}"
            verifier.verify(run, out)
            runs.append(run)
            if len(runs) > 1:
                shutil.rmtree(out, ignore_errors=True)
            if code != 0:
                continue
            timed[traced] = elapsed
            if not traced:
                plain_s.append(elapsed)
                continue
            tracer.check_called(workload.argv[0])
            spans.append({"main_s": elapsed, **{n: list(v) for n, v in tracer.totals.items()}})
            facts = facts or run_facts(tracer)
            # Holding the last call's corpus would slow the next call's
            # garbage collection and bias the overhead.
            tracer.last.clear()
        # Neighbouring calls meet the same host conditions, so the overhead
        # is taken per round rather than across the window.
        if len(timed) == 2:
            ratios.append(timed[True] / timed[False])
        imports.append(spawn(["-c", "import biascal.cli"], work / "import.log"))
        inputs.again()
        rounds.append(time.perf_counter() - began)
    if not spans:
        raise RuntimeError(f"no traced run succeeded: {runs[-1].problem}")
    output_mb = sum(p.stat().st_size for p in (work / "run-0").iterdir()) / MIB
    inputs.finish()
    layers = per_layer(inputs, facts, spans, ratios, imports, output_mb)
    return runs, layers, {"plain_main_s": plain_s, "traced": spans, "overhead_ratios": ratios,
                          "import_s": [r.wall_s for r in imports]}


def per_layer(inputs, facts, spans, ratios, imports, output_mb) -> dict:
    def span_s(*names):
        return median(sum(s[n][0] for n in names) for s in spans)

    def calls(*names):
        return sum(spans[-1][n][1] for n in names)

    main_s = median(s["main_s"] for s in spans)
    children = [sum(s[n][0] for n in tracing.WRAPPED) for s in spans]
    solve_s = span_s("solve")
    steps = facts["steps"]
    input_mb = sum((inputs.dir / n).stat().st_size for n in ("corpus.jsonl", "stats.json")) / MIB
    return {
        "corpus.load_s": (span_s("load_corpus", "load_training_stats"), "s"),
        "corpus.exclusions_s": (span_s("excluded_activities"), "s"),
        "corpus.candidates": (facts["candidates"], "count"),
        "corpus.input_mb": (input_mb, "MB"),
        "distribution.posterior_s": (span_s("instance_posterior"), "s"),
        "distribution.map_s": (span_s("map_predict"), "s"),
        "distribution.calls": (calls("instance_posterior", "map_predict"), "count"),
        "metrics.report_s": (span_s("build_report"), "s"),
        "metrics.report_calls": (calls("build_report"), "count"),
        "constraints.build_s": (span_s("ConstraintSet.from_stats"), "s"),
        "constraints.dim": (facts["dim"], "count"),
        "solver.solve_s": (solve_s, "s"),
        "solver.steps": (steps, "count"),
        "solver.us_per_step": (solve_s / steps * 1e6 if steps else 0.0, "us"),
        "solver.rows_per_s": (facts["rows"] / solve_s if steps else 0.0, "1/s"),
        "solver.pgrad_norm": (facts["pgrad_norm"], "1"),
        "solver.calibrate_s": (span_s("calibrate"), "s"),
        "solver.checkpoint_s": (span_s("save_checkpoint"), "s"),
        "cli.main_s": (main_s, "s"),
        "cli.self_s": (median(s["main_s"] - c for s, c in zip(spans, children)), "s"),
        "cli.output_mb": (output_mb, "MB"),
        "process.import_s": (median(r.wall_s for r in imports), "s"),
        "trace.overhead_pct": ((median(ratios) - 1.0) * 100.0, "%"),
        "trace.coverage": (median(c / s["main_s"] for s, c in zip(spans, children)), "ratio"),
        "synth.generate_s": (inputs.fastest("generate_s"), "s"),
        "synth.dump_s": (inputs.fastest("dump_s"), "s"),
    }


def git_revision() -> dict | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  check=True).stdout.strip()
        return {"revision": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError):
        return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(workload: Workload, seed: int, smoke: bool) -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "git": git_revision(),
        "workload_seed": seed,
        "synth": asdict(synth_config(workload, seed, smoke)),
        "cli_argv": list(workload.argv),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=93, help="workload seed (default 93)")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer numbers from an in-process traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="few-hundred-instance corpora, for a quick self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "biascal" / "cli.py").is_file():
        print(f"error: no biascal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = Inputs(workload, args.seed, args.smoke, work)
        if args.trace:
            runs, metrics, detail = traced_runs(workload, inputs, work, args.seconds)
        else:
            runs, references, verifier = measure(workload, inputs, work, args.seconds)
            if verifier.quality is None:
                for run in runs:
                    print(f"error: {run.problem}", file=sys.stderr)
                return 1
            metrics = end_to_end(runs, references, inputs, verifier.quality)
            detail = {"reference_s": REFERENCE_S,
                      "references": [asdict(run) for run in references]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(run.problem is not None for run in runs)
    result = {
        "correct": failed == 0 and inputs.problem is None,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {
        **result,
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "error_rate": failed / len(runs),
        "setup_problem": inputs.problem,
        "provenance": provenance(workload, args.seed, args.smoke),
        "samples": {"setup": inputs.samples, "runs": [asdict(run) for run in runs], **detail},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
