"""Bias ratios, amplification scores, and the corpus-level bias report.

The bias of an activity is the male share of its gendered probability mass
(or of its gendered top predictions). Amplification orients the deviation
from the training ratio toward the training-majority gender, so positive
values always mean "further toward the already dominant gender".
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import _EXPORTS
from .corpus import (Corpus, TrainingStats, _open_for_write, as_number, constrained_activities,
                     dump_json)
from .distribution import PosteriorTable, as_table, check_indices
from .errors import UndefinedBiasError, ValidationError

__all__ = list(_EXPORTS["metrics"])

SCATTER_COLUMNS = ("activity", "b_star", "bias_dist", "bias_top", "violated_dist", "violated_top")


def check_margin(name: str, value: float) -> float:
    """A ratio margin (gamma) as a Python float; one that is not a finite nonnegative
    real, a bool included, is refused."""
    value = as_number(name, value, float)
    if not (np.isfinite(value) and value >= 0.0):
        raise ValidationError(f"{name} must be a finite nonnegative real, got {value}")
    return value


def training_ratios(stats: TrainingStats, corpus: Corpus) -> tuple[list[int], np.ndarray]:
    """The constrained activity ids, and b*: each one's male share of gendered training labels."""
    ids = constrained_activities(stats, corpus)
    counts = [stats.counts[corpus.activities[aid]] for aid in ids]
    return ids, np.array([count.male / count.total for count in counts], dtype=np.float64)


def activity_mass(corpus: Corpus, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Male and gendered sums of per-row weights of every activity, indexed by activity id.

    The weights are a table's probabilities (posterior mass) or 1 at each
    MAP row (top-prediction counts, exact as floats). ``np.bincount`` adds
    the rows in corpus order, so each entry is the same float as a
    candidate-by-candidate running sum.
    """
    return tuple(np.bincount(corpus.activity[rows], weights[rows], corpus.n_activities)
                 for rows in (corpus.male, corpus.gendered))


def activity_ratios(table: PosteriorTable,
                    activity_ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Male share and gendered posterior mass of each listed activity, in list order; the
    first listed activity without gendered mass, whose share is undefined, is refused."""
    male, gendered = (mass[list(activity_ids)]
                      for mass in activity_mass(table.corpus, table.probs))
    empty = np.flatnonzero(gendered <= 0.0)
    if empty.size:
        name = table.corpus.activities[activity_ids[empty[0]]]
        raise UndefinedBiasError(f"activity {name!r} has no gendered posterior mass")
    return male / gendered, gendered


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
    if len(predictions) != corpus.n_instances:
        raise ValidationError(f"{len(predictions)} predictions for {corpus.n_instances} instances")
    predictions = check_indices("predictions", predictions, corpus.sizes)
    activity_ids, b_star = training_ratios(stats, corpus)
    if not activity_ids:
        raise UndefinedBiasError("no constrained activities")

    bias_dist, _ = activity_ratios(table, activity_ids)
    top = np.bincount(corpus.offsets[:-1] + predictions, minlength=corpus.n_rows)  # 1 at MAP rows
    top_male, top_gendered = (count[activity_ids] for count in activity_mass(corpus, top))
    evaluable = top_gendered > 0
    with np.errstate(invalid="ignore"):
        bias_top = top_male / top_gendered  # NaN where no prediction is gendered
    toward_majority = np.sign(b_star - 0.5)
    amp_dist = toward_majority * (bias_dist - b_star)
    amp_top = toward_majority * (bias_top - b_star)
    violated_dist = np.abs(amp_dist) > gamma_eval
    violated_top = evaluable & (np.abs(amp_top) > gamma_eval)

    def or_none(values: np.ndarray) -> list[float | None]:
        return [v if ok else None for v, ok in zip(values.tolist(), evaluable.tolist())]

    entries = tuple(
        ActivityBias(corpus.activities[aid], aid, *values) for aid, *values in zip(
            activity_ids, b_star.tolist(), bias_dist.tolist(), or_none(bias_top),
            amp_dist.tolist(), or_none(amp_top), violated_dist.tolist(), violated_top.tolist())
    )
    accuracy = None
    gold = corpus.gold
    if np.all(gold >= 0):
        accuracy = int(np.count_nonzero(predictions == gold)) / gold.size

    return BiasReport(
        entries=entries,
        gamma_eval=gamma_eval,
        mean_amp_dist=float(np.mean(amp_dist)),
        mean_amp_top=float(np.mean(amp_top[evaluable])) if evaluable.any() else None,
        n_violations_dist=int(np.count_nonzero(violated_dist)),
        n_violations_top=int(np.count_nonzero(violated_top)),
        n_not_evaluable_top=int(np.count_nonzero(~evaluable)),
        n_bstar_at_half=int(np.count_nonzero(b_star == 0.5)),
        accuracy=accuracy,
    )
