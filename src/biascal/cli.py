"""Command line front end: report, calibrate, synth, and oracle subcommands.

Wires the pipeline load -> report -> solve -> calibrate -> re-report and
writes machine-readable outputs (all JSON documents carry
``"schema_version": 1``). Exit codes: 0 success, 1 validation error,
2 solver failure, 3 brute-force size refusal. Outputs are byte-identical
across runs for identical inputs and configuration.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import (
    Corpus,
    dump_corpus,
    dump_json,
    dump_posteriors,
    dump_training_stats,
    excluded_activities,
    load_corpus,
    load_training_stats,
)
from .distribution import instance_posterior, kl_divergence, map_predict, segment_sum
from .errors import BiasCalError, OracleSizeError, SolverDivergenceError, ValidationError
from .metrics import build_report, check_margin

__all__ = ["RunConfig", "main", "entrypoint"]

# Names imported on first use, by their submodule, so that `report` loads
# neither the constraint set, the solver nor the generator. The commands
# read them as attributes of this module (`_module.solve`), so a name
# rebound here, as bench/tracing.py does, is the one called.
_DEFERRED = {
    "ConstraintSet": "constraints",
    "SolverConfig": "solver",
    "brute_force_project": "solver",
    "calibrate": "solver",
    "save_checkpoint": "solver",
    "solve": "solver",
    "SynthConfig": "synth",
    "generate": "synth",
}
_module = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__package__}.{_DEFERRED[name]}"), name)
    globals()[name] = value
    return value


EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_SIZE = 3


@dataclass
class RunConfig:
    """Effective pipeline settings: CLI flags over config file over defaults."""

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
# is accepted where a float is expected, a boolean nowhere.
_CONFIG_TYPES = {
    "str | None": (str, type(None)), "str": (str,), "float": (int, float), "int": (int,)
}


def _merge_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as handle:
            file_values = json.load(handle)
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


def _load_inputs(config: RunConfig):
    if not config.corpus or not config.stats:
        raise ValidationError("--corpus and --stats are required")
    corpus = load_corpus(config.corpus)
    stats = load_training_stats(config.stats)
    return corpus, stats


def _write_report_files(out_dir: Path, tag: str, report) -> None:
    report.write_json(out_dir / f"report{tag}.json")
    report.write_scatter_csv(out_dir / f"scatter{tag}.csv")


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def _note_exclusions(corpus: Corpus, stats) -> None:
    excluded = excluded_activities(stats, corpus)
    if excluded:
        shown = ", ".join(excluded[:5]) + (", ..." if len(excluded) > 5 else "")
        print(
            f"note: {len(excluded)} activities excluded from the constraint set "
            f"(no gendered training labels or no gendered candidates): {shown}",
            file=sys.stderr,
        )


def cmd_report(config: RunConfig) -> int:
    check_margin("gamma_eval", config.gamma_eval)
    corpus, stats = _load_inputs(config)
    _note_exclusions(corpus, stats)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    posteriors = instance_posterior(corpus)
    predictions = map_predict(posteriors)
    report = build_report(corpus, stats, posteriors, predictions, config.gamma_eval)
    _write_report_files(out_dir, "", report)
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
    corpus, stats = _load_inputs(config)
    _note_exclusions(corpus, stats)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    posteriors = instance_posterior(corpus)
    predictions = map_predict(posteriors)
    before = build_report(corpus, stats, posteriors, predictions, config.gamma_eval)

    cs = _module.ConstraintSet.from_stats(corpus, stats, config.gamma_solve)
    state = _module.solve(corpus, posteriors, cs, solver_config)
    calibrated = _module.calibrate(corpus, posteriors, cs, state.lam)
    predictions_after = map_predict(calibrated)
    after = build_report(corpus, stats, calibrated, predictions_after, config.gamma_eval)

    _write_report_files(out_dir, "_before", before)
    _write_report_files(out_dir, "_after", after)
    dump_posteriors(corpus, calibrated.probs, out_dir / "calibrated.jsonl")
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
    synth_config = _module.SynthConfig(
        n_activities=args.n_activities,
        instances_per_activity=args.instances_per_activity,
        candidates_per_instance=args.candidates_per_instance,
        bias_range=tuple(args.bias_range),
        amplification_boost=args.boost,
        gold_noise=args.gold_noise,
        seed=args.seed if args.seed is not None else 0,
    )
    corpus, stats = _module.generate(synth_config)
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    dump_corpus(corpus, out_dir / "corpus.jsonl")
    dump_training_stats(stats, out_dir / "stats.json")
    print(f"wrote {len(corpus)} instances over {corpus.n_activities} activities to {out_dir}")
    return EXIT_OK


def cmd_oracle(config: RunConfig) -> int:
    check_margin("gamma_solve", config.gamma_solve)
    if config.resolution < 3:
        raise ValidationError(f"resolution must be at least 3, got {config.resolution}")
    solver_config = config.solver_config()
    solver_config.mode = "full_batch"
    corpus, stats = _load_inputs(config)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    posteriors = instance_posterior(corpus)
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
    dump_json(payload, out_dir / "comparison.json")
    print(
        f"KL solver {payload['kl_solver']:.6f} | KL oracle {payload['kl_oracle']:.6f} | "
        f"max TV {max_tv:.2e}"
    )
    return EXIT_OK


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", help="corpus JSONL path")
    parser.add_argument("--stats", help="training stats JSON path")
    parser.add_argument("--out", help="output directory (default: current)")
    parser.add_argument("--config", help="JSON config file (flags take precedence)")
    parser.add_argument("--gamma-eval", dest="gamma_eval", type=float, help="evaluation margin")
    parser.add_argument("--gamma-solve", dest="gamma_solve", type=float, help="solver margin")
    parser.add_argument("--batch-size", dest="batch_size", type=int)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--lr", type=float, help="initial learning rate")
    parser.add_argument("--lr-decay", dest="lr_decay", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--mode", choices=["stochastic", "full-batch"])
    parser.add_argument("--convergence-tol", dest="convergence_tol", type=float)
    parser.add_argument("--max-steps", dest="max_steps", type=int)
    parser.add_argument("--resolution", type=int, help="oracle grid points per axis")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biascal",
        description="Measure and remove gender-bias amplification in scored corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="bias report for a corpus as-is")
    _add_pipeline_flags(p_report)
    p_report.set_defaults(func=lambda args: cmd_report(_merge_config(args)))

    p_cal = sub.add_parser("calibrate", help="solve, calibrate, and report before/after")
    _add_pipeline_flags(p_cal)
    p_cal.set_defaults(func=lambda args: cmd_calibrate(_merge_config(args)))

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus and stats")
    p_synth.add_argument("--out", help="output directory")
    p_synth.add_argument("--n-activities", dest="n_activities", type=int, default=50)
    p_synth.add_argument(
        "--instances-per-activity", dest="instances_per_activity", type=int, default=200
    )
    p_synth.add_argument(
        "--candidates-per-instance", dest="candidates_per_instance", type=int, default=4
    )
    p_synth.add_argument(
        "--bias-range", dest="bias_range", type=float, nargs=2, default=[0.1, 0.9],
        metavar=("LO", "HI"),
    )
    p_synth.add_argument("--boost", type=float, default=0.0, help="amplification boost (log-odds)")
    p_synth.add_argument("--gold-noise", dest="gold_noise", type=float, default=0.05)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=cmd_synth)

    p_oracle = sub.add_parser("oracle", help="compare the solver against brute force")
    _add_pipeline_flags(p_oracle)
    p_oracle.set_defaults(func=lambda args: cmd_oracle(_merge_config(args)))

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BiasCalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, OracleSizeError):
            return EXIT_SIZE
        return EXIT_SOLVER if isinstance(exc, SolverDivergenceError) else EXIT_VALIDATION


def entrypoint() -> None:
    raise SystemExit(main())
