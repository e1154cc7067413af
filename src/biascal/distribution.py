"""Per-instance posteriors, exponential reweighting, MAP prediction, KL.

All probability arithmetic runs in log space with max subtraction, so the
operations are stable for any finite score magnitudes. Probabilities are
materialized as float64 arrays summing to one. Instances are mutually
independent: the joint distribution over a corpus is the product of the
per-instance posteriors, and corpus-level reductions here always accumulate
in instance order so repeated runs are bitwise identical.

Every kernel works on flat rows split into segments by an ``offsets``
array (see `Corpus`). A `PosteriorTable` holds the posteriors of a
whole corpus that way; the functions taking one `Instance` or
`InstancePosterior` run the same kernels on a single segment.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Instance
from .errors import DegenerateDistributionError, ValidationError

__all__ = [
    "InstancePosterior",
    "PosteriorTable",
    "instance_posterior",
    "reweighted_posterior",
    "map_predict",
    "kl_divergence",
]

SUM_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class InstancePosterior:
    """A probability vector aligned with one instance's candidate list."""

    instance_id: str
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValidationError(
                f"posterior for {self.instance_id!r} must be a nonempty 1-D vector"
            )
        _check_probs((self.instance_id,), np.array([0, probs.size]), probs)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, InstancePosterior):
            return NotImplemented
        return self.instance_id == other.instance_id and np.array_equal(self.probs, other.probs)

    def __len__(self) -> int:
        return self.probs.size


def segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum of each segment, bit-identical to the segment's own ``.sum()``.

    ``np.add.reduceat`` adds left to right, whereas ``.sum()`` sums
    pairwise, so the two differ in the last bit on many segments. Summing
    the rows of a (segments, length) matrix per distinct length goes
    through the same routine as ``.sum()``.
    """
    sizes = offsets[1:] - offsets[:-1]
    if sizes.size and sizes.min() == sizes.max():
        return values.reshape(sizes.size, -1).sum(axis=1)
    out = np.empty(sizes.size)
    for size in np.unique(sizes):
        which = np.flatnonzero(sizes == size)
        out[which] = values[offsets[which, None] + np.arange(size)].sum(axis=1)
    return out


def _segment_of(offsets: np.ndarray, row: int) -> int:
    return int(np.searchsorted(offsets, row, side="right")) - 1


def _check_probs(ids: Sequence[str], offsets: np.ndarray, probs: np.ndarray) -> None:
    """Each segment must be a probability vector; a failing one is named."""
    with np.errstate(invalid="ignore"):
        for bad, what in (
            (~np.isfinite(probs), "has non-finite entries"),
            ((probs < 0.0) | (probs > 1.0 + SUM_TOLERANCE), "has entries outside [0, 1]"),
        ):
            if bad.any():
                first = _segment_of(offsets, int(np.argmax(bad)))
                raise ValidationError(f"posterior for {ids[first]!r} {what}")
    sums = segment_sum(probs, offsets)
    bad = np.flatnonzero(np.abs(sums - 1.0) > SUM_TOLERANCE)
    if bad.size:
        raise ValidationError(
            f"posterior for {ids[bad[0]]!r} sums to {sums[bad[0]]!r}, expected 1"
        )


class PosteriorTable(Sequence):
    """Posteriors of every instance of a corpus as one flat probability array.

    Instance i owns ``probs[offsets[i]:offsets[i + 1]]``, in the row order of
    its `Corpus`. Every segment is checked on construction as
    `InstancePosterior` checks one vector, and ``probs`` is read-only.
    Indexing yields the `InstancePosterior` of one instance.
    """

    __slots__ = ("ids", "offsets", "probs")

    def __init__(self, ids: Sequence[str], offsets: np.ndarray, probs: np.ndarray):
        probs = np.asarray(probs, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.shape != (len(ids) + 1,) or probs.shape != (offsets[-1],):
            raise ValidationError("posterior table offsets do not match its ids and rows")
        _check_probs(ids, offsets, probs)
        probs.flags.writeable = False
        self.ids = tuple(ids)
        self.offsets = offsets
        self.probs = probs

    @classmethod
    def from_posteriors(cls, posteriors: Sequence[InstancePosterior]) -> "PosteriorTable":
        if isinstance(posteriors, PosteriorTable):
            return posteriors
        offsets = np.zeros(len(posteriors) + 1, dtype=np.int64)
        np.cumsum([len(p) for p in posteriors], out=offsets[1:])
        probs = np.concatenate([p.probs for p in posteriors]) if posteriors else np.zeros(0)
        return cls([p.instance_id for p in posteriors], offsets, probs)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index: int) -> InstancePosterior:
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("posterior table index out of range")
        return InstancePosterior(self.ids[i], self.probs[self.offsets[i] : self.offsets[i + 1]])


def as_table(corpus: Corpus, posteriors: Sequence[InstancePosterior]) -> PosteriorTable:
    """The posteriors as a table, after checking once that they align with the corpus."""
    table = PosteriorTable.from_posteriors(posteriors)
    _check_aligned(table, corpus)
    return table


def _one_segment(size: int) -> np.ndarray:
    return np.array([0, size], dtype=np.int64)


def _softmax(scores: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment softmax, by the steps of ``scipy.special.log_softmax``.

    Max-shift, exp, sum, log and subtract give the log probabilities; their
    exp is then renormalized by its own sum.
    """
    sizes = offsets[1:] - offsets[:-1]
    shifted = scores - np.repeat(np.maximum.reduceat(scores, offsets[:-1]), sizes)
    log_norm = np.log(segment_sum(np.exp(shifted), offsets))
    probs = np.exp(shifted - np.repeat(log_norm, sizes))
    probs /= np.repeat(segment_sum(probs, offsets), sizes)
    return probs


def instance_posterior(source: Instance | Corpus) -> InstancePosterior | PosteriorTable:
    """Softmax of the candidate scores: probs[k] = exp(score_k - logsumexp(scores)).

    Given one `Instance`, returns its `InstancePosterior`; given a `Corpus`,
    returns the `PosteriorTable` of all its instances.
    """
    if isinstance(source, Corpus):
        return PosteriorTable(source.ids, source.offsets, _softmax(source.score, source.offsets))
    scores = np.array([c.score for c in source.candidates], dtype=np.float64)
    return InstancePosterior(source.id, _softmax(scores, _one_segment(scores.size)))


def reweight(
    probs: np.ndarray, penalty: np.ndarray, offsets: np.ndarray, ids: Sequence[str]
) -> np.ndarray:
    """Rows reweighted by exp(-penalty) and renormalized within each segment.

    Computed in log space; zero-mass rows stay at zero for any finite
    penalty. Raises for the first segment with a non-finite penalty or
    with no mass left.
    """
    nonfinite = ~np.isfinite(penalty)
    if nonfinite.any():
        first = _segment_of(offsets, int(np.argmax(nonfinite)))
        raise ValidationError(f"instance {ids[first]!r}: penalty entries must be finite")
    with np.errstate(divide="ignore"):
        log_q = np.log(probs) - penalty
    shift = np.maximum.reduceat(log_q, offsets[:-1])
    degenerate = np.flatnonzero(~np.isfinite(shift))
    if degenerate.size:
        raise DegenerateDistributionError(
            f"instance {ids[degenerate[0]]!r}: reweighting left no mass on the support"
        )
    sizes = offsets[1:] - offsets[:-1]
    weights = np.exp(log_q - np.repeat(shift, sizes))
    return weights / np.repeat(segment_sum(weights, offsets), sizes)


def reweighted_posterior(
    instance: Instance, base: InstancePosterior, penalty: Sequence[float]
) -> InstancePosterior:
    """Reweight a posterior by exp(-penalty) per candidate and renormalize.

    ``penalty[k]`` is the precomputed inner product of the dual vector with
    candidate k's constraint features. Computed in log space; zero-mass
    candidates stay at zero for any finite penalty.
    """
    penalty = np.asarray(penalty, dtype=np.float64)
    if penalty.shape != base.probs.shape:
        raise ValidationError(
            f"instance {instance.id!r}: penalty length {penalty.size} does not match "
            f"{base.probs.size} candidates"
        )
    probs = reweight(base.probs, penalty, _one_segment(penalty.size), (instance.id,))
    return InstancePosterior(instance.id, probs)


def segment_argmax(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Index within each segment of its first maximum, as ``np.argmax`` breaks ties."""
    starts = offsets[:-1]
    sizes = offsets[1:] - offsets[:-1]
    peak = np.repeat(np.maximum.reduceat(values, starts), sizes)
    within = np.arange(values.size) - np.repeat(starts, sizes)
    return np.minimum.reduceat(np.where(values == peak, within, values.size), starts)


def map_predict(posterior: InstancePosterior | PosteriorTable) -> int | np.ndarray:
    """Index of the most probable candidate; ties break toward the lowest index.

    Given a `PosteriorTable`, returns the index array over its instances.
    """
    if isinstance(posterior, PosteriorTable):
        return segment_argmax(posterior.probs, posterior.offsets)
    return int(segment_argmax(posterior.probs, _one_segment(posterior.probs.size))[0])


def _check_aligned(q: PosteriorTable, p: PosteriorTable | Corpus) -> None:
    """``q`` must list the instances of ``p`` (a table or a corpus) with their candidate counts.

    The first instance out of line is named.
    """
    if len(q) != len(p):
        raise ValidationError(f"{len(q)} posteriors for {len(p)} instances")
    if q.ids == p.ids and np.array_equal(q.offsets, p.offsets):
        return
    for q_id, p_id, q_size, p_size in zip(
        q.ids, p.ids, np.diff(q.offsets).tolist(), np.diff(p.offsets).tolist()
    ):
        if q_id != p_id:
            raise ValidationError(f"posterior {q_id!r} does not match instance {p_id!r}")
        if q_size != p_size:
            raise ValidationError(f"instance {p_id!r}: {q_size} probabilities for {p_size} candidates")


def _rel_entr(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise x log(x / y) by the branches of ``scipy.special.rel_entr``.

    0 where x = 0 and y >= 0, inf where x > 0 and y = 0; log1p when x and y
    are close, and a difference of logs when x / y would under- or overflow.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        ratio = x / y
        value = np.where(
            (ratio > 0.5) & (ratio < 2.0),
            x * np.log1p((x - y) / y),
            np.where(
                (ratio > np.finfo(np.float64).tiny) & (ratio < np.inf),
                x * np.log(ratio),
                x * (np.log(x) - np.log(y)),
            ),
        )
    return np.where((x > 0.0) & (y > 0.0), value,
                    np.where((x == 0.0) & (y >= 0.0), 0.0, np.inf))


def kl_divergence(q: Sequence[InstancePosterior], p: Sequence[InstancePosterior]) -> float:
    """KL(q || p) summed over instances, with the 0 log 0 = 0 convention.

    Returns inf when q puts mass where p has none (q not absolutely
    continuous w.r.t. p on the candidate support). Accepts lists of
    `InstancePosterior` or `PosteriorTable` objects.
    """
    q_table = PosteriorTable.from_posteriors(q)
    p_table = PosteriorTable.from_posteriors(p)
    _check_aligned(q_table, p_table)
    if len(q_table) == 0:
        return 0.0
    per_instance = segment_sum(_rel_entr(q_table.probs, p_table.probs), q_table.offsets)
    # accumulate is a left-to-right running sum, the order of adding instance by instance
    return float(np.add.accumulate(per_instance)[-1])
