"""Bias-amplification measurement and posterior calibration for scored corpora.

The package measures how far a model's posterior gender ratios drift from
the training-set ratios, activity by activity, and removes the drift by
projecting the posteriors onto the constraint-feasible set (a KL projection
solved in the dual). See README.md for the file formats and the command
line front end.
"""

from .constraints import (
    ConstraintSet,
    EquivalenceCheck,
    check_equivalence,
    corpus_expectation,
    feature_vector,
    instance_expectation,
)
from .corpus import (
    CandidateStructure,
    Corpus,
    GenderCount,
    GenderTag,
    Instance,
    TrainingStats,
    constrained_activities,
    dump_corpus,
    dump_training_stats,
    excluded_activities,
    load_corpus,
    load_training_stats,
)
from .distribution import (
    InstancePosterior,
    PosteriorTable,
    instance_posterior,
    kl_divergence,
    map_predict,
    reweighted_posterior,
)
from .errors import (
    BiasCalError,
    CorpusFormatError,
    DegenerateDistributionError,
    OracleSizeError,
    SolverDivergenceError,
    UndefinedBiasError,
    ValidationError,
)
from .metrics import (
    ActivityBias,
    BiasReport,
    amplification,
    bias_in_distribution,
    bias_in_top_predictions,
    build_report,
    dataset_bias,
    mean_amplification,
)
from .solver import (
    DualState,
    SolverConfig,
    brute_force_project,
    calibrate,
    dual_gradient,
    dual_objective,
    load_checkpoint,
    save_checkpoint,
    solve,
)
from .synth import SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "ActivityBias",
    "BiasCalError",
    "BiasReport",
    "CandidateStructure",
    "ConstraintSet",
    "Corpus",
    "CorpusFormatError",
    "DegenerateDistributionError",
    "DualState",
    "EquivalenceCheck",
    "GenderCount",
    "GenderTag",
    "Instance",
    "InstancePosterior",
    "OracleSizeError",
    "PosteriorTable",
    "SolverConfig",
    "SolverDivergenceError",
    "SynthConfig",
    "TrainingStats",
    "UndefinedBiasError",
    "ValidationError",
    "amplification",
    "bias_in_distribution",
    "bias_in_top_predictions",
    "brute_force_project",
    "build_report",
    "calibrate",
    "check_equivalence",
    "constrained_activities",
    "corpus_expectation",
    "dataset_bias",
    "dual_gradient",
    "dual_objective",
    "dump_corpus",
    "dump_training_stats",
    "excluded_activities",
    "feature_vector",
    "generate",
    "instance_expectation",
    "instance_posterior",
    "kl_divergence",
    "load_checkpoint",
    "load_corpus",
    "load_training_stats",
    "map_predict",
    "mean_amplification",
    "reweighted_posterior",
    "save_checkpoint",
    "solve",
]
