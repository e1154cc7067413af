"""Bias ratios, amplification scores, and the corpus-level bias report.

The bias of an activity is the male share of its gendered probability mass
(or of its gendered top predictions). Amplification orients the deviation
from the training ratio toward the training-majority gender, so positive
values always mean "further toward the already dominant gender".
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from . import _EXPORTS
from .corpus import Corpus, TrainingStats, _open_for_write, constrained_activities, dump_json
from .distribution import PosteriorTable, as_table, check_indices
from .errors import UndefinedBiasError, ValidationError

__all__ = list(_EXPORTS["metrics"])

SCATTER_COLUMNS = ("activity", "b_star", "bias_dist", "bias_top", "violated_dist", "violated_top")


def check_margin(name: str, value: float) -> None:
    """Refuse a ratio margin (gamma) that is not a finite nonnegative real."""
    if not (np.isfinite(value) and value >= 0.0):
        raise ValidationError(f"{name} must be a finite nonnegative real, got {value}")


def dataset_bias(stats: TrainingStats, corpus: Corpus, activity_id: int) -> float:
    """Male share of the gendered training labels for one activity."""
    name = corpus.activity_name(activity_id)
    count = stats.counts.get(name)
    if count is None or count.total == 0:
        raise UndefinedBiasError(f"activity {name!r} has no gendered training labels")
    return count.male / count.total


def activity_mass(corpus: Corpus, table: PosteriorTable) -> tuple[np.ndarray, np.ndarray]:
    """Male and gendered posterior mass of every activity, indexed by activity id.

    ``np.bincount`` adds the rows in corpus order, so each entry is the
    same float as a candidate-by-candidate running sum.
    """
    def mass(rows: np.ndarray) -> np.ndarray:
        return np.bincount(corpus.activity[rows], weights=table.probs[rows],
                           minlength=corpus.n_activities)

    return mass(corpus.male), mass(corpus.gendered)


def _check_predictions(corpus: Corpus, predictions: Sequence[int]) -> np.ndarray:
    if len(predictions) != corpus.n_instances:
        raise ValidationError(
            f"{len(predictions)} predictions for {corpus.n_instances} instances"
        )
    return check_indices("predictions", predictions, corpus.sizes, allow_empty=True)


def top_counts(corpus: Corpus, predictions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Male and gendered MAP-prediction counts of every activity, indexed by activity id."""
    rows = corpus.offsets[:-1] + predictions

    def count(chosen: np.ndarray) -> np.ndarray:
        return np.bincount(corpus.activity[rows[chosen[rows]]], minlength=corpus.n_activities)

    return count(corpus.male), count(corpus.gendered)


def _distribution_ratio(corpus: Corpus, male: np.ndarray, gendered: np.ndarray, aid: int) -> float:
    if gendered[aid] <= 0.0:
        raise UndefinedBiasError(
            f"activity {corpus.activity_name(aid)!r} has no gendered posterior mass"
        )
    return float(male[aid] / gendered[aid])


def _top_ratio(male: np.ndarray, gendered: np.ndarray, aid: int) -> float | None:
    if gendered[aid] == 0:
        return None
    return int(male[aid]) / int(gendered[aid])


def bias_in_distribution(
    posteriors: PosteriorTable, corpus: Corpus, activity_id: int
) -> float:
    """Male share of the activity's gendered posterior mass across the corpus.

    Ungendered candidates contribute to neither numerator nor denominator.
    """
    male, gendered = activity_mass(corpus, as_table(posteriors, corpus))
    return _distribution_ratio(corpus, male, gendered, activity_id)


def bias_in_top_predictions(
    predictions: Sequence[int], corpus: Corpus, activity_id: int
) -> float | None:
    """Male share among gendered MAP predictions of the activity.

    Returns None when no instance has a gendered MAP prediction of this
    activity (the ratio is then not evaluable, as opposed to an error).
    """
    male, gendered = top_counts(corpus, _check_predictions(corpus, predictions))
    return _top_ratio(male, gendered, activity_id)


def amplification(bias: float, b_star: float) -> float:
    """Deviation of bias from b_star, signed toward the training majority.

    sgn(b_star - 0.5) * (bias - b_star), with sgn(0) = 0 so activities whose
    training ratio is exactly balanced contribute nothing.
    """
    return float(np.sign(b_star - 0.5) * (bias - b_star))


def mean_amplification(amplifications: Iterable[float]) -> float:
    """Arithmetic mean over the constrained activity set; errors when empty."""
    values = list(amplifications)
    if not values:
        raise UndefinedBiasError("mean amplification over an empty activity set")
    return float(np.mean(values))


@dataclass(frozen=True)
class ActivityBias:
    """Per-activity row of a bias report; top fields are None when not evaluable."""

    activity: str
    activity_id: int
    b_star: float
    bias_dist: float
    bias_top: float | None
    amp_dist: float
    amp_top: float | None
    violated_dist: bool
    violated_top: bool


@dataclass(frozen=True)
class BiasReport:
    """Corpus-level bias summary over the constrained activities."""

    entries: tuple[ActivityBias, ...]
    gamma_eval: float
    mean_amp_dist: float
    mean_amp_top: float | None
    n_violations_dist: int
    n_violations_top: int
    n_not_evaluable_top: int
    n_bstar_at_half: int
    accuracy: float | None

    def to_json_dict(self) -> dict:
        """``gamma_eval``, the entries as "activities", then the fields after those two."""
        # an entry's __dict__ holds its fields in order; `asdict` deep-copies
        # each value and is 30 times slower on a 200-activity report
        head = {"schema_version": 1, "gamma_eval": self.gamma_eval,
                "activities": [dict(vars(e)) for e in self.entries]}
        return head | {f.name: getattr(self, f.name) for f in fields(self)[2:]}

    def write_json(self, sink) -> None:
        """The report as a JSON document, to a path (atomically) or a stream."""
        dump_json(self.to_json_dict(), sink)

    def write_scatter_csv(self, sink) -> None:
        """Per-activity (training, predicted) bias pairs for scatter plots, to a path or stream."""
        with _open_for_write(sink) as stream:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(SCATTER_COLUMNS)
            for e in self.entries:
                writer.writerow(
                    [
                        e.activity,
                        repr(e.b_star),
                        repr(e.bias_dist),
                        "" if e.bias_top is None else repr(e.bias_top),
                        "true" if e.violated_dist else "false",
                        "true" if e.violated_top else "false",
                    ]
                )


def build_report(
    corpus: Corpus,
    stats: TrainingStats,
    posteriors: PosteriorTable,
    predictions: Sequence[int],
    gamma_eval: float,
) -> BiasReport:
    """Assemble the full bias report at evaluation margin gamma_eval.

    ``gamma_eval`` must be a finite nonnegative real, as a constraint
    margin must. Activities without a gendered MAP prediction are excluded
    from the top mean and violation count; their number is reported.
    Accuracy is the gold-match rate of the MAP predictions, present only
    when every instance carries a gold label.
    """
    check_margin("gamma_eval", gamma_eval)
    table = as_table(posteriors, corpus)
    predictions = _check_predictions(corpus, predictions)
    activity_ids = constrained_activities(stats, corpus)
    if not activity_ids:
        raise UndefinedBiasError("no constrained activities")

    male, gendered = activity_mass(corpus, table)
    top_male, top_gendered = top_counts(corpus, predictions)
    entries = []
    for aid in activity_ids:
        b_star = dataset_bias(stats, corpus, aid)
        bias_dist = _distribution_ratio(corpus, male, gendered, aid)
        bias_top = _top_ratio(top_male, top_gendered, aid)
        amp_dist = amplification(bias_dist, b_star)
        amp_top = None if bias_top is None else amplification(bias_top, b_star)
        entries.append(
            ActivityBias(
                activity_id=aid,
                activity=corpus.activity_name(aid),
                b_star=b_star,
                bias_dist=bias_dist,
                bias_top=bias_top,
                amp_dist=amp_dist,
                amp_top=amp_top,
                violated_dist=bool(abs(amp_dist) > gamma_eval),
                violated_top=bool(amp_top is not None and abs(amp_top) > gamma_eval),
            )
        )

    top_amps = [e.amp_top for e in entries if e.amp_top is not None]
    accuracy = None
    gold = corpus.gold
    if np.all(gold >= 0):
        accuracy = int(np.count_nonzero(predictions == gold)) / gold.size

    return BiasReport(
        entries=tuple(entries),
        gamma_eval=gamma_eval,
        mean_amp_dist=mean_amplification(e.amp_dist for e in entries),
        mean_amp_top=mean_amplification(top_amps) if top_amps else None,
        n_violations_dist=sum(e.violated_dist for e in entries),
        n_violations_top=sum(e.violated_top for e in entries),
        n_not_evaluable_top=sum(e.bias_top is None for e in entries),
        n_bstar_at_half=sum(e.b_star == 0.5 for e in entries),
        accuracy=accuracy,
    )
