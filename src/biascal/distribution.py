"""Per-instance posteriors, exponential reweighting, MAP prediction, KL.

All probability arithmetic runs in log space with max subtraction, so the
operations are stable for any finite score magnitudes. Probabilities are
materialized as float64 arrays summing to one. Instances are mutually
independent: the joint distribution over a corpus is the product of the
per-instance posteriors, and corpus-level reductions here always accumulate
in instance order so repeated runs are bitwise identical.

The kernels read the instance layout (see `Corpus`) from the corpus they are
given; only `segment_sum` takes raw ``offsets``. A `PosteriorTable`, the one
form in which the public functions take posteriors, is a corpus and one
probability per row of it, checked when built and never changed after;
instance i's posterior is ``probs[corpus.offsets[i]:corpus.offsets[i + 1]]``.
A table is refused by the functions that take another corpus, even one with
the same ids and candidate counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .corpus import Corpus, _write_records, integer_indices
from .errors import ValidationError

__all__ = [*_EXPORTS["distribution"], "dump_posteriors"]

SUM_TOLERANCE = 1e-12


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


def check_indices(name: str, values, bound) -> np.ndarray:
    """``values`` as int64 indices in [0, bound), ``bound`` one for all or one each.

    Raises ValidationError, naming ``name``, for a non-integer dtype (bool
    included), another shape than one dimension, or an index out of range.
    """
    indices = integer_indices(name, np.asarray(values)).astype(np.int64, copy=False)
    if indices.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {indices.shape}")
    outside = np.flatnonzero((indices < 0) | (indices >= bound))
    if outside.size:
        raise ValidationError(f"{name}[{outside[0]}] = {indices[outside[0]]} is out of range")
    return indices


@dataclass(frozen=True, eq=False, init=False)
class PosteriorTable:
    """Posteriors of every instance of a corpus as one flat probability array.

    ``corpus`` is the `Corpus` the table belongs to, and ``probs`` holds one
    probability per row of it: instance i owns
    ``probs[corpus.offsets[i]:corpus.offsets[i + 1]]``. On construction each
    segment must be finite, within [0, 1] and sum to 1, and a failing one is
    named; ``probs`` is a read-only copy, and neither field can be reassigned.
    """

    corpus: Corpus
    probs: np.ndarray

    def __init__(self, corpus: Corpus, probs: np.ndarray):
        if not isinstance(corpus, Corpus):
            raise TypeError(f"a PosteriorTable belongs to a Corpus, got {type(corpus).__name__}")
        probs = np.array(probs, dtype=np.float64)  # a copy: no caller's array is shared
        if probs.shape != (corpus.n_rows,):
            raise ValidationError(f"{probs.shape} probabilities for {corpus.n_rows} candidates")
        with np.errstate(invalid="ignore"):
            for bad, what in (
                (~np.isfinite(probs), "has non-finite entries"),
                ((probs < 0.0) | (probs > 1.0 + SUM_TOLERANCE), "has entries outside [0, 1]"),
            ):
                if bad.any():
                    first = corpus.segment_ids[int(np.argmax(bad))]
                    raise ValidationError(f"posterior for {corpus.ids[first]!r} {what}")
        sums = segment_sum(probs, corpus.offsets)
        bad = np.flatnonzero(np.abs(sums - 1.0) > SUM_TOLERANCE)
        if bad.size:
            raise ValidationError(f"posterior for {corpus.ids[bad[0]]!r} sums to "
                                  f"{float(sums[bad[0]])!r}, expected 1")
        probs.flags.writeable = False
        self.__dict__.update(corpus=corpus, probs=probs)

    def __reduce__(self):  # a copied or unpickled table is built, so checked and frozen, again
        return PosteriorTable, (self.corpus, self.probs)


def as_table(posteriors: PosteriorTable, corpus: Corpus | None = None) -> PosteriorTable:
    """``posteriors``, which must be a `PosteriorTable`, after checking that it
    belongs to ``corpus``, if given: that corpus or one equal to it.
    """
    if not isinstance(posteriors, PosteriorTable):
        raise TypeError(f"posteriors must be a PosteriorTable, got {type(posteriors).__name__}")
    if corpus is not None and posteriors.corpus is not corpus and posteriors.corpus != corpus:
        raise ValidationError("posteriors belong to another corpus")
    return posteriors


def _softmax(corpus: Corpus) -> np.ndarray:
    """Each instance's softmax of its scores, by the steps of ``scipy.special.log_softmax``.

    Max-shift, exp, sum, log and subtract give the log probabilities; their
    exp is then renormalized by its own sum.
    """
    offsets, sizes = corpus.offsets, corpus.sizes
    shifted = corpus.score - np.repeat(np.maximum.reduceat(corpus.score, offsets[:-1]), sizes)
    log_norm = np.log(segment_sum(np.exp(shifted), offsets))
    probs = np.exp(shifted - np.repeat(log_norm, sizes))
    probs /= np.repeat(segment_sum(probs, offsets), sizes)
    return probs


def instance_posterior(corpus: Corpus) -> PosteriorTable:
    """The `PosteriorTable` of a corpus: each instance's softmax of its
    candidate scores, probs[k] = exp(score_k - logsumexp(scores))."""
    if not isinstance(corpus, Corpus):
        raise TypeError(f"instance_posterior takes a Corpus, got {type(corpus).__name__}")
    return PosteriorTable(corpus, _softmax(corpus))


def reweight(table: PosteriorTable, penalty: np.ndarray) -> np.ndarray:
    """A table's rows reweighted by exp(-penalty) and renormalized within each instance.

    Computed in log space. For a finite penalty, zero-mass rows stay at zero
    and a row with p > 0 keeps a finite log weight, so no instance loses all
    its mass. Raises for the first instance with a non-finite penalty.
    """
    corpus = table.corpus
    nonfinite = ~np.isfinite(penalty)
    if nonfinite.any():
        first = corpus.segment_ids[int(np.argmax(nonfinite))]
        raise ValidationError(f"instance {corpus.ids[first]!r}: penalty entries must be finite")
    with np.errstate(divide="ignore"):
        log_q = np.log(table.probs) - penalty
    shift = np.maximum.reduceat(log_q, corpus.offsets[:-1])
    weights = np.exp(log_q - np.repeat(shift, corpus.sizes))
    return weights / np.repeat(segment_sum(weights, corpus.offsets), corpus.sizes)


def map_predict(posteriors: PosteriorTable) -> np.ndarray:
    """Index of each instance's most probable candidate; ties break toward the lowest index."""
    table = as_table(posteriors)
    probs, starts, sizes = table.probs, table.corpus.offsets[:-1], table.corpus.sizes
    peak = np.repeat(np.maximum.reduceat(probs, starts), sizes)
    within = np.arange(probs.size) - np.repeat(starts, sizes)
    return np.minimum.reduceat(np.where(probs == peak, within, probs.size), starts)


def dump_posteriors(posteriors: PosteriorTable, sink) -> None:
    """A table's probabilities in the corpus JSONL schema, "prob" in place of
    "score", to a path (atomically) or to a stream (left open)."""
    table = as_table(posteriors)
    _write_records(table.corpus, "prob", table.probs, sink)


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


def kl_divergence(q: PosteriorTable, p: PosteriorTable) -> float:
    """KL(q || p) summed over instances, with the 0 log 0 = 0 convention.

    Both are `PosteriorTable` objects, and q must belong to p's corpus.
    Returns inf when q puts mass where p has none (q not absolutely
    continuous w.r.t. p on the candidate support).
    """
    p_table = as_table(p)
    q_table = as_table(q, p_table.corpus)
    if q_table.probs.size == 0:
        return 0.0
    per_instance = segment_sum(_rel_entr(q_table.probs, p_table.probs), p_table.corpus.offsets)
    # accumulate is a left-to-right running sum, the order of adding instance by instance
    return float(np.add.accumulate(per_instance)[-1])
