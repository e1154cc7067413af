"""Corpus-level gender-ratio constraints as expectation features.

Each constrained activity contributes a pair of coordinates to a 2n-
dimensional feature vector, one per inequality side. For an activity with
training male ratio ``r`` and margin ``g``, a gendered candidate of that
activity takes

    ==========  ================  ================
    coordinate  male candidate    female candidate
    ==========  ================  ================
    2j (upper)  1 - r - g         -r - g
    2j+1 (lower) -1 + r - g       r - g
    ==========  ================  ================

and every other candidate is zero there. Summed over the corpus, a
posterior q then satisfies E_q[feature] <= 0 on the pair exactly when the
corpus-level male ratio of the activity under q lies within [r - g, r + g];
`check_equivalence` verifies that identity numerically. Feature values
depend only on the candidate and the constraint set, never on q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _EXPORTS
from .corpus import (FEMALE_CODE, UNGENDERED_CODE, Corpus, TrainingStats, constrained_activities,
                     integer_indices)
from .distribution import PosteriorTable, as_table
from .errors import UndefinedBiasError, ValidationError
from .metrics import activity_mass, check_margin, training_ratios

__all__ = list(_EXPORTS["constraints"])

# How far `check_equivalence` lets an expectation stray from its residual times the mass.
EQUIVALENCE_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """The 2n-dimensional constraint family over an ordered activity list.

    ``activity_ids`` must be strictly increasing integers; activity j in
    that order owns coordinates 2j (upper ratio bound) and 2j+1 (lower).
    The threshold vector is fixed at zero, so the margin is baked into the
    feature values. Sets with equal ids, b* and gamma are equal.
    """

    activity_ids: tuple[int, ...]
    b_star: np.ndarray
    gamma: float

    def __post_init__(self):
        ids = integer_indices("activity_ids", self.activity_ids)
        b_star = np.array(self.b_star, dtype=np.float64)  # a copy: the caller's array stays theirs
        if ids.ndim != 1 or np.any(ids[1:] <= ids[:-1]) or np.any(ids < 0):
            raise ValidationError(
                "activity_ids must be a strictly increasing sequence of nonnegative ids")
        if b_star.shape != (len(ids),):
            raise ValidationError(f"b_star has shape {b_star.shape}, expected ({len(ids)},)")
        if not np.all((b_star >= 0.0) & (b_star <= 1.0)):  # NaN fails too
            raise ValidationError("b_star entries must lie in [0, 1]")
        check_margin("gamma", self.gamma)
        b_star.flags.writeable = False
        self.__dict__.update(activity_ids=tuple(ids.tolist()), b_star=b_star)

    def __reduce__(self):  # a copied or unpickled set is built, so checked and read-only, again
        return ConstraintSet, (self.activity_ids, self.b_star, self.gamma)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConstraintSet):
            return NotImplemented
        return (self.activity_ids == other.activity_ids and self.gamma == other.gamma
                and np.array_equal(self.b_star, other.b_star))

    @classmethod
    def from_stats(cls, corpus: Corpus, stats: TrainingStats, gamma: float) -> "ConstraintSet":
        """Build constraints for every activity eligible under the given corpus."""
        ids = constrained_activities(stats, corpus)
        return cls(tuple(ids), training_ratios(stats, corpus, ids), gamma)

    @property
    def dimension(self) -> int:
        return 2 * len(self.activity_ids)


def feature_types(activity: np.ndarray, gender: np.ndarray, cs: ConstraintSet) -> np.ndarray:
    """Feature type of candidate rows given their activity ids and gender codes.

    A gendered row of the activity in constraint slot j has type 2j if male
    and 2j+1 if female; every other row has type ``cs.dimension`` and no
    features. Features depend on nothing but the type: see `type_features`.
    """
    size = max(int(activity.max(initial=-1)), max(cs.activity_ids, default=-1)) + 1
    lookup = np.full(size, -1, dtype=np.int64)
    lookup[list(cs.activity_ids)] = np.arange(len(cs.activity_ids))
    slot = np.where(gender != UNGENDERED_CODE, lookup[activity], -1)
    return np.where(slot >= 0, 2 * slot + (gender == FEMALE_CODE), cs.dimension)


def type_features(cs: ConstraintSet) -> tuple[np.ndarray, np.ndarray]:
    """Feature values of every type and the coordinates they sit at.

    Returns ``(values, coords)``, both of shape (dimension + 1, 2): type t
    has ``values[t]`` at ``coords[t]``, which are 2j and 2j+1 of its slot
    j = t // 2. The last row, of the featureless type, is zero values at
    coordinate 0.
    """
    r = np.repeat(cs.b_star, 2)
    g = cs.gamma
    male = np.arange(cs.dimension) % 2 == 0
    values = np.zeros((cs.dimension + 1, 2))
    values[:-1, 0] = np.where(male, 1.0 - r - g, -r - g)
    values[:-1, 1] = np.where(male, -1.0 + r - g, r - g)
    coords = np.zeros((cs.dimension + 1, 2), dtype=np.int64)
    coords[:-1] = np.arange(cs.dimension)[:, None] // 2 * 2 + np.arange(2)
    return values, coords


def corpus_expectation(
    corpus: Corpus, posteriors: PosteriorTable, cs: ConstraintSet
) -> np.ndarray:
    """Sum over instances, in instance order, of each instance's expected features.

    Each instance's expectation is summed on its own first, candidate by
    candidate, and the per-instance vectors are then added in instance
    order; the solver's gradient instead folds the mass of each feature type.
    """
    probs = as_table(posteriors, corpus).probs
    types = feature_types(corpus.activity, corpus.gender, cs)
    rows = np.flatnonzero(types < cs.dimension)
    values, coords = (table[types[rows]] for table in type_features(cs))
    out = np.zeros(cs.dimension)
    for side in (0, 1):
        key = corpus.segment_ids[rows] * cs.dimension + coords[:, side]
        keys, per_key = np.unique(key, return_inverse=True)
        partial = np.bincount(per_key, weights=probs[rows] * values[:, side])
        out += np.bincount(keys % cs.dimension, weights=partial, minlength=cs.dimension)
    return out


class EquivalenceCheck(NamedTuple):
    """Agreement between expectation-side and ratio-side constraint tests, as
    one entry per constrained activity in ``cs.activity_ids`` order.

    ``residual_minus`` is ratio - (b_star + gamma); positive means the upper
    bound is violated. ``residual_plus`` is (b_star - gamma) - ratio;
    positive means the lower bound is violated. The ok flags report whether
    each expectation coordinate matches its residual after clearing the
    (positive) gendered-mass denominator, to `EQUIVALENCE_SLACK`.
    """

    minus_ok: np.ndarray
    plus_ok: np.ndarray
    residual_minus: np.ndarray
    residual_plus: np.ndarray


def check_equivalence(corpus: Corpus, posteriors: PosteriorTable,
                      cs: ConstraintSet) -> EquivalenceCheck:
    """Verify that the two feature expectations of every constrained activity
    encode its ratio bounds.

    For the activity in slot j the identity is

        E[feature_2j]   = (ratio - (b* + gamma)) * gendered_mass
        E[feature_2j+1] = ((b* - gamma) - ratio) * gendered_mass

    so each expectation is <= 0 exactly when the corresponding ratio bound
    holds. Every constrained activity must be in the corpus vocabulary and
    have positive gendered mass; the first, in ``cs`` order, that has not is named.
    """
    table = as_table(posteriors, corpus)
    outside = [aid for aid in cs.activity_ids if aid >= corpus.n_activities]
    if outside:
        raise ValidationError(f"constrained activity id {outside[0]} is not in the corpus "
                              f"vocabulary of {corpus.n_activities} activities")
    ids = np.array(cs.activity_ids, dtype=np.int64)
    male, gendered = (mass[ids] for mass in activity_mass(corpus, table))
    empty = np.flatnonzero(gendered <= 0.0)
    if empty.size:
        name = corpus.activity_names[cs.activity_ids[empty[0]]]
        raise UndefinedBiasError(f"activity {name!r} has no gendered mass")
    ratio = male / gendered
    expectation = corpus_expectation(corpus, table, cs)
    residual_minus = ratio - (cs.b_star + cs.gamma)
    residual_plus = (cs.b_star - cs.gamma) - ratio
    minus_ok = np.abs(expectation[0::2] - residual_minus * gendered) <= EQUIVALENCE_SLACK
    plus_ok = np.abs(expectation[1::2] - residual_plus * gendered) <= EQUIVALENCE_SLACK
    return EquivalenceCheck(minus_ok, plus_ok, residual_minus, residual_plus)
