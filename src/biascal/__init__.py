"""Bias-amplification measurement and posterior calibration for scored corpora.

The package measures how far a model's posterior gender ratios drift from
the training-set ratios, activity by activity, and removes the drift by
projecting the posteriors onto the constraint-feasible set (a KL projection
solved in the dual). See README.md for the file formats and the command
line front end.

Every public name, and every submodule, is imported on first use (PEP 562),
so ``import biascal`` loads no submodule and a program that measures bias
never loads the solver.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the submodule that defines it; each `__all__` is built from this.
_EXPORTS = {
    "constraints": (
        "ConstraintSet",
        "EquivalenceCheck",
        "check_equivalence",
        "corpus_expectation",
    ),
    "corpus": (
        "CandidateStructure",
        "Corpus",
        "GenderCount",
        "GenderTag",
        "Instance",
        "TrainingStats",
        "constrained_activities",
        "dump_corpus",
        "dump_training_stats",
        "excluded_activities",
        "load_corpus",
        "load_training_stats",
    ),
    "distribution": (
        "InstancePosterior",
        "PosteriorTable",
        "instance_posterior",
        "kl_divergence",
        "map_predict",
    ),
    "errors": (
        "BiasCalError",
        "CorpusFormatError",
        "DegenerateDistributionError",
        "OracleSizeError",
        "SolverDivergenceError",
        "UndefinedBiasError",
        "ValidationError",
    ),
    "metrics": (
        "ActivityBias",
        "BiasReport",
        "amplification",
        "bias_in_distribution",
        "bias_in_top_predictions",
        "build_report",
        "dataset_bias",
        "mean_amplification",
    ),
    "solver": (
        "DualState",
        "SolverConfig",
        "brute_force_project",
        "calibrate",
        "dual_gradient",
        "dual_objective",
        "load_checkpoint",
        "save_checkpoint",
        "solve",
    ),
    "synth": ("SynthConfig", "generate"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
