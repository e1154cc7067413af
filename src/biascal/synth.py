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


def generate(config: SynthConfig) -> tuple[Corpus, TrainingStats]:
    """Deterministically generate a (corpus, training stats) pair from config."""
    rng = np.random.default_rng(config.seed)
    names = [f"activity_{a:03d}" for a in range(config.n_activities)]
    vocab = {name: a for a, name in enumerate(names)}
    n_fillers = config.candidates_per_instance - 2
    gendered_mass = GENDERED_MASS if n_fillers > 0 else 1.0
    filler_prob = (1.0 - gendered_mass) / n_fillers if n_fillers > 0 else 0.0

    counts: dict[str, GenderCount] = {}
    ids: list[str] = []
    gold: list[int] = []
    activity: list[int] = []
    gender: list[int] = []
    score: list[float] = []
    m = config.instances_per_activity
    for a, name in enumerate(names):
        drawn = rng.uniform(config.bias_range[0], config.bias_range[1])
        male_count = int(round(drawn * m))
        counts[name] = GenderCount(male_count, m - male_count)
        b_star = male_count / m
        direction = float(np.sign(b_star - 0.5))
        target = _sigmoid(_logit(b_star) + config.amplification_boost * direction)
        target = min(max(target, _LOGIT_CLIP), 1.0 - _LOGIT_CLIP)

        for i in range(m):
            share = float(
                rng.beta(BETA_CONCENTRATION * target, BETA_CONCENTRATION * (1.0 - target))
            )
            share = min(max(share, _LOGIT_CLIP), 1.0 - _LOGIT_CLIP)
            activity += (a, a)
            gender += (MALE_CODE, FEMALE_CODE)
            score += (math.log(gendered_mass * share), math.log(gendered_mass * (1.0 - share)))
            for _ in range(n_fillers):
                activity.append(int(rng.integers(config.n_activities)))
                gender.append(UNGENDERED_CODE)
                score.append(math.log(filler_prob))
            gold_is_male = bool(rng.random() < b_star)
            if rng.random() < config.gold_noise:
                gold_is_male = not gold_is_male
            ids.append(f"{name}_{i:04d}")
            gold.append(0 if gold_is_male else 1)

    sizes = np.full(len(ids), config.candidates_per_instance)
    corpus = Corpus._from_rows(vocab, tuple(ids), sizes, gold, activity, gender, score)
    return corpus, TrainingStats(counts)
