"""Synthetic corpora with planted training bias and controllable amplification.

Each activity draws a training male ratio from ``bias_range`` (snapped to an
exact count pair, so the planted ratio is recoverable) and emits instances
whose posterior mass over the male/female pair targets

    sigmoid(logit(ratio) + boost * sign(ratio - 0.5)),

i.e. the training log-odds pushed further toward the majority gender. The
per-instance male share is drawn from a Beta with that mean, so the
corpus-level distributional bias matches the target in expectation while
top predictions overshoot it, mimicking an overconfident model. Candidate
scores are simply the log probabilities, and any remaining candidates are
ungendered fillers on random activities.

The random numbers are drawn as whole arrays, one kind at a time over every
activity and instance, and the rows are filled from them without a
per-instance loop. An earlier generator drew instance by instance, in
another order, so a seed's corpus is not the one that generator gave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .corpus import FEMALE_CODE, MALE_CODE, UNGENDERED_CODE, Corpus, GenderCount, TrainingStats
from .errors import ValidationError

__all__ = list(_EXPORTS["synth"])

# Concentration of the per-instance male-share Beta; higher values mean less
# instance-to-instance spread and fewer MAP flips near the 0.5 threshold.
BETA_CONCENTRATION = 300.0

# Posterior mass reserved for the gendered pair when fillers are present.
GENDERED_MASS = 0.8

_LOGIT_CLIP = 1e-9


@dataclass(frozen=True)
class SynthConfig:
    """Shape and bias parameters of a generated corpus."""

    n_activities: int = 50
    instances_per_activity: int = 200
    candidates_per_instance: int = 4
    bias_range: tuple[float, float] = (0.1, 0.9)
    amplification_boost: float = 0.0
    gold_noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.n_activities < 1 or self.instances_per_activity < 1:
            raise ValidationError("n_activities and instances_per_activity must be positive")
        if self.candidates_per_instance < 2:
            raise ValidationError("candidates_per_instance must be at least 2")
        lo, hi = self.bias_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValidationError(f"bias_range must be ordered within [0, 1], got {self.bias_range}")
        if not (self.amplification_boost >= 0.0 and math.isfinite(self.amplification_boost)):
            raise ValidationError("amplification_boost must be a finite nonnegative real")
        if not (0.0 <= self.gold_noise <= 1.0):
            raise ValidationError(f"gold_noise must lie in [0, 1], got {self.gold_noise}")


def _logit(p: float) -> float:
    p = min(max(p, _LOGIT_CLIP), 1.0 - _LOGIT_CLIP)
    return math.log(p / (1.0 - p))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def _target_share(b_star: float, boost: float) -> float:
    """Mean male share of an activity at training ratio ``b_star``."""
    target = _sigmoid(_logit(b_star) + boost * float(np.sign(b_star - 0.5)))
    return min(max(target, _LOGIT_CLIP), 1.0 - _LOGIT_CLIP)


def _draw(config: SynthConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every random number of the corpus, drawn as whole arrays.

    Returns each activity's male count (A,), each instance's clipped male
    share (A, m), its filler activities (A, m, candidates - 2) and whether
    its gold is the male candidate (A, m), in that order from one stream.
    """
    rng = np.random.default_rng(config.seed)
    n, m = config.n_activities, config.instances_per_activity
    male_counts = np.rint(rng.uniform(*config.bias_range, size=n) * m).astype(np.int64)
    b_star = male_counts / m
    target = np.array([_target_share(b, config.amplification_boost) for b in b_star.tolist()])
    shares = rng.beta(BETA_CONCENTRATION * target[:, None],
                      BETA_CONCENTRATION * (1.0 - target[:, None]), size=(n, m))
    np.clip(shares, _LOGIT_CLIP, 1.0 - _LOGIT_CLIP, out=shares)
    fillers = rng.integers(n, size=(n, m, config.candidates_per_instance - 2))
    gold_male = (rng.random((n, m)) < b_star[:, None]) ^ (rng.random((n, m)) < config.gold_noise)
    return male_counts, shares, fillers, gold_male


def _assemble(male_counts: np.ndarray, shares: np.ndarray, fillers: np.ndarray,
              gold_male: np.ndarray) -> tuple[Corpus, TrainingStats]:
    """The corpus and stats of `_draw`'s arrays: per instance a male and a
    female candidate of its activity, then the fillers; gold 0 is male."""
    n, m, n_fillers = fillers.shape
    k = n_fillers + 2
    names = [f"activity_{a:03d}" for a in range(n)]
    gendered_mass = GENDERED_MASS if n_fillers > 0 else 1.0
    activity = np.empty((n, m, k), dtype=np.int64)
    activity[:, :, :2] = np.arange(n)[:, None, None]
    activity[:, :, 2:] = fillers
    gender = np.full((n, m, k), UNGENDERED_CODE, dtype=np.int8)
    gender[:, :, 0] = MALE_CODE
    gender[:, :, 1] = FEMALE_CODE
    score = np.empty((n, m, k))
    score[:, :, 0] = np.log(gendered_mass * shares)
    score[:, :, 1] = np.log(gendered_mass * (1.0 - shares))
    if n_fillers > 0:
        score[:, :, 2:] = math.log((1.0 - gendered_mass) / n_fillers)
    suffixes = [f"_{i:04d}" for i in range(m)]
    ids = tuple(name + suffix for name in names for suffix in suffixes)
    corpus = Corpus._from_rows({name: a for a, name in enumerate(names)}, ids,
                               np.full(n * m, k), np.where(gold_male, 0, 1).ravel(),
                               activity.ravel(), gender.ravel(), score.ravel())
    counts = {name: GenderCount(male, m - male)
              for name, male in zip(names, male_counts)}
    return corpus, TrainingStats(counts)


def generate(config: SynthConfig) -> tuple[Corpus, TrainingStats]:
    """Deterministically generate a (corpus, training stats) pair from config."""
    return _assemble(*_draw(config))
