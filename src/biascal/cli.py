"""Command line front end: report, calibrate, synth, and oracle subcommands.

Wires the pipeline load -> report -> solve -> calibrate -> re-report and
writes machine-readable outputs (all JSON documents carry
``"schema_version": 1``). Exit codes: 0 success, 1 validation or usage
error, 2 solver failure, 3 brute-force size refusal. Outputs are
byte-identical across runs for identical inputs and configuration.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import (
    dump_corpus,
    dump_json,
    dump_training_stats,
    excluded_activities,
    load_corpus,
    load_json,
    load_training_stats,
)
from .distribution import (dump_posteriors, instance_posterior, kl_divergence, map_predict,
                           segment_sum)
from .errors import BiasCalError, OracleSizeError, SolverDivergenceError, ValidationError
from .metrics import build_report, check_margin

__all__ = ["RunConfig", "main"]

# Public names imported on first use, through the package, so that `report`
# loads neither the constraint set, the solver nor the generator. The
# commands read them as attributes of this module (`_module.solve`), so a
# name rebound here, as bench/tracing.py does, is the one called.
_DEFERRED = ("ConstraintSet", "SolverConfig", "brute_force_project", "calibrate",
             "save_checkpoint", "solve", "SynthConfig", "generate")
_module = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value
    return value


EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_SIZE = 3


@dataclass
class RunConfig:
    """Effective pipeline settings: CLI flags over config file over defaults.

    The solver defaults restate `SolverConfig`'s, because `report` must not
    import the solver; a test pins ``RunConfig().solver_config() == SolverConfig()``.
    """

    corpus: str | None = None
    stats: str | None = None
    out: str = "."
    gamma_eval: float = 0.05
    gamma_solve: float = 0.001
    batch_size: int = 39
    epochs: int = 10
    lr: float = 0.1
    lr_decay: float = 0.998
    seed: int = 0
    mode: str = "stochastic"
    convergence_tol: float = 1e-8
    max_steps: int = 20000
    resolution: int = 11

    def solver_config(self) -> SolverConfig:
        return _module.SolverConfig(
            batch_size=self.batch_size,
            epochs=self.epochs,
            initial_lr=self.lr,
            lr_decay=self.lr_decay,
            seed=self.seed,
            mode=self.mode.replace("-", "_"),
            convergence_tol=self.convergence_tol,
            max_steps=self.max_steps,
        )


# JSON value types accepted for each annotation in `RunConfig`; an integer
# is accepted where a float is expected, a boolean nowhere. A flag parses
# its value as the last type.
_CONFIG_TYPES = {
    "str | None": (type(None), str), "str": (str,), "float": (int, float), "int": (int,)
}

# The `RunConfig` settings each pipeline command reads, each with a flag;
# a config file may set any setting, so one file serves every command.
_COMMAND_SETTINGS = {
    "report": ("corpus", "stats", "out", "gamma_eval"),
    "calibrate": tuple(f.name for f in fields(RunConfig) if f.name != "resolution"),
    "oracle": ("corpus", "stats", "out", "gamma_solve", "convergence_tol", "max_steps",
               "resolution"),
}
_FLAG_CHOICES = {"mode": ("stochastic", "full-batch")}


def _merge_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            file_values = load_json(handle, ValidationError, "config")
        if not isinstance(file_values, dict):
            raise ValidationError("config file must be a JSON object")
        known = {f.name: f.type for f in fields(RunConfig)}
        for key, value in file_values.items():
            if key not in known:
                raise ValidationError(f"unknown config key {key!r}")
            if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[known[key]]):
                raise ValidationError(
                    f"config key {key!r} must be of type {known[key]}, got {value!r}"
                )
            setattr(config, key, value)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(config, f.name, value)
    return config


def _start(config: RunConfig):
    """Load the inputs, note the exclusions and compute the posteriors."""
    if not config.corpus or not config.stats:
        raise ValidationError("--corpus and --stats are required")
    corpus = load_corpus(config.corpus)
    stats = load_training_stats(config.stats)
    excluded = excluded_activities(stats, corpus)
    if excluded:
        shown = ", ".join(excluded[:5]) + (", ..." if len(excluded) > 5 else "")
        print(
            f"note: {len(excluded)} activities excluded from the constraint set "
            f"(no gendered training labels or no gendered candidates): {shown}",
            file=sys.stderr,
        )
    return corpus, stats, instance_posterior(corpus)


def _out_dir(out: str) -> Path:
    """``out``, created on the first write, so that a command failing before it leaves none."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_report_files(out_dir: Path, tag: str, report) -> None:
    report.write_json(out_dir / f"report{tag}.json")
    report.write_scatter_csv(out_dir / f"scatter{tag}.csv")


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def cmd_report(config: RunConfig) -> int:
    check_margin("gamma_eval", config.gamma_eval)
    corpus, stats, posteriors = _start(config)
    predictions = map_predict(posteriors)
    report = build_report(corpus, stats, posteriors, predictions, config.gamma_eval)
    _write_report_files(_out_dir(config.out), "", report)
    print(
        f"A_dist {report.mean_amp_dist:.4f} | A_top {_fmt(report.mean_amp_top)} | "
        f"violations(dist) {report.n_violations_dist}/{len(report.entries)} | "
        f"violations(top) {report.n_violations_top} | accuracy {_fmt(report.accuracy)}"
    )
    return EXIT_OK


def cmd_calibrate(config: RunConfig) -> int:
    check_margin("gamma_eval", config.gamma_eval)
    check_margin("gamma_solve", config.gamma_solve)
    solver_config = config.solver_config()
    corpus, stats, posteriors = _start(config)
    predictions = map_predict(posteriors)
    before = build_report(corpus, stats, posteriors, predictions, config.gamma_eval)

    cs = _module.ConstraintSet.from_stats(corpus, stats, config.gamma_solve)
    state = _module.solve(corpus, posteriors, cs, solver_config)
    calibrated = _module.calibrate(corpus, posteriors, cs, state.lam)
    predictions_after = map_predict(calibrated)
    after = build_report(corpus, stats, calibrated, predictions_after, config.gamma_eval)

    out_dir = _out_dir(config.out)
    _write_report_files(out_dir, "_before", before)
    _write_report_files(out_dir, "_after", after)
    dump_posteriors(calibrated, out_dir / "calibrated.jsonl")
    _module.save_checkpoint(out_dir / "checkpoint.json", state, solver_config, cs)
    print(
        f"A_dist {before.mean_amp_dist:.4f} -> {after.mean_amp_dist:.4f} | "
        f"A_top {_fmt(before.mean_amp_top)} -> {_fmt(after.mean_amp_top)} | "
        f"violations(dist) {before.n_violations_dist} -> {after.n_violations_dist} | "
        f"violations(top) {before.n_violations_top} -> {after.n_violations_top} | "
        f"accuracy {_fmt(before.accuracy)} -> {_fmt(after.accuracy)}"
    )
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    given = {f.name: getattr(args, f.name) for f in fields(_module.SynthConfig)}
    given = {k: tuple(v) if k == "bias_range" else v for k, v in given.items() if v is not None}
    synth_config = _module.SynthConfig(**given)
    corpus, stats = _module.generate(synth_config)
    out_dir = _out_dir(args.out or ".")
    dump_corpus(corpus, out_dir / "corpus.jsonl")
    dump_training_stats(stats, out_dir / "stats.json")
    print(f"wrote {len(corpus)} instances over {corpus.n_activities} activities to {out_dir}")
    return EXIT_OK


def cmd_oracle(config: RunConfig) -> int:
    check_margin("gamma_solve", config.gamma_solve)
    if config.resolution < 3:
        raise ValidationError(f"resolution must be at least 3, got {config.resolution}")
    solver_config = _module.SolverConfig(mode="full_batch", max_steps=config.max_steps,
                                         convergence_tol=config.convergence_tol)
    corpus, stats, posteriors = _start(config)
    cs = _module.ConstraintSet.from_stats(corpus, stats, config.gamma_solve)
    oracle_q, oracle_lam = _module.brute_force_project(
        corpus, posteriors, cs, resolution=config.resolution
    )
    state = _module.solve(corpus, posteriors, cs, solver_config)
    solver_q = _module.calibrate(corpus, posteriors, cs, state.lam)

    tv = 0.5 * segment_sum(np.abs(solver_q.probs - oracle_q.probs), corpus.offsets)
    max_tv = float(tv.max(initial=0.0))
    payload = {
        "schema_version": 1,
        "kl_solver": kl_divergence(solver_q, posteriors),
        "kl_oracle": kl_divergence(oracle_q, posteriors),
        "max_tv": max_tv,
        "lambda_solver": [float(x) for x in state.lam],
        "lambda_oracle": [float(x) for x in oracle_lam],
    }
    dump_json(payload, _out_dir(config.out) / "comparison.json")
    print(
        f"KL solver {payload['kl_solver']:.6f} | KL oracle {payload['kl_oracle']:.6f} | "
        f"max TV {max_tv:.2e}"
    )
    return EXIT_OK


def _add_pipeline_command(sub, name: str, summary: str, command) -> None:
    """A subcommand with --config and one flag per `RunConfig` setting it reads."""
    parser = sub.add_parser(name, help=summary)
    parser.add_argument("--config", help="JSON config file (flags take precedence)")
    for f in fields(RunConfig):
        if f.name in _COMMAND_SETTINGS[name]:
            parser.add_argument("--" + f.name.replace("_", "-"), type=_CONFIG_TYPES[f.type][-1],
                                choices=_FLAG_CHOICES.get(f.name),
                                help=None if f.default is None else f"default: {f.default}")
    parser.set_defaults(func=lambda args: command(_merge_config(args)))


class _Parser(argparse.ArgumentParser):
    """argparse drops an OSError from writing --help; this parser raises it to `main`."""

    def print_help(self, file=None):
        file = file or sys.stdout
        if file is not None:  # a stream closed at start is None
            file.write(self.format_help())
            file.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="biascal",
        description="Measure and remove gender-bias amplification in scored corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_pipeline_command(sub, "report", "bias report for a corpus as-is", cmd_report)
    _add_pipeline_command(
        sub, "calibrate", "solve, calibrate, and report before/after", cmd_calibrate
    )

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus and stats")
    p_synth.add_argument("--out", help="output directory")
    p_synth.add_argument("--n-activities", type=int)
    p_synth.add_argument("--instances-per-activity", type=int)
    p_synth.add_argument("--candidates-per-instance", type=int)
    p_synth.add_argument("--bias-range", type=float, nargs=2, metavar=("LO", "HI"))
    p_synth.add_argument("--boost", dest="amplification_boost", type=float,
                         help="amplification boost (log-odds)")
    p_synth.add_argument("--gold-noise", type=float)
    p_synth.add_argument("--seed", type=int)
    p_synth.set_defaults(func=cmd_synth)

    _add_pipeline_command(sub, "oracle", "compare the solver against brute force", cmd_oracle)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        if sys.stdout is not None:  # so that a failed write is an error, not ignored at exit
            sys.stdout.flush()
        return code
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    except (BiasCalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, OracleSizeError):
            return EXIT_SIZE
        return EXIT_SOLVER if isinstance(exc, SolverDivergenceError) else EXIT_VALIDATION
