"""Per-instance posteriors, exponential reweighting, MAP prediction, KL.

All probability arithmetic runs in log space with max subtraction, so the
operations are stable for any finite score magnitudes. Probabilities are
materialized as float64 arrays summing to one. Instances are mutually
independent: the joint distribution over a corpus is the product of the
per-instance posteriors, and corpus-level reductions here always accumulate
in instance order so repeated runs are bitwise identical.

Every kernel works on flat rows split into segments by an ``offsets``
array (see `Corpus`). A `PosteriorTable` holds the posteriors of a whole
corpus that way and is the one form in which the public functions take
posteriors; `InstancePosterior` is the view of one instance that indexing
a table yields, and no public function takes one.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .corpus import Corpus
from .errors import DegenerateDistributionError, ValidationError

__all__ = list(_EXPORTS["distribution"])

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


def check_indices(name: str, values, bound, allow_empty: bool = False) -> np.ndarray:
    """``values`` as int64 indices in [0, bound), ``bound`` one for all or one each.

    Raises ValidationError, naming ``name``, for a non-integer dtype (bool
    included), an index out of range, or no index unless ``allow_empty``.
    """
    indices = np.asarray(values)
    if indices.size == 0 and not allow_empty:
        raise ValidationError(f"{name} must hold at least one index")
    if indices.size and (indices.dtype == bool or not np.issubdtype(indices.dtype, np.integer)):
        raise ValidationError(f"{name} must be integer indices, got dtype {indices.dtype}")
    indices = indices.astype(np.int64, copy=False)
    outside = np.flatnonzero((indices < 0) | (indices >= bound))
    if outside.size:
        raise ValidationError(f"{name}[{outside[0]}] = {indices[outside[0]]} is out of range")
    return indices


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
            f"posterior for {ids[bad[0]]!r} sums to {float(sums[bad[0]])!r}, expected 1"
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
        if (offsets.shape != (len(ids) + 1,) or offsets[0] != 0
                or np.any(offsets[1:] < offsets[:-1]) or probs.shape != (offsets[-1],)):
            raise ValidationError("posterior table offsets do not match its ids and rows")
        _check_probs(ids, offsets, probs)
        probs.flags.writeable = False
        self.ids = tuple(ids)
        self.offsets = offsets
        self.probs = probs

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index: int) -> InstancePosterior:
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("posterior table index out of range")
        return InstancePosterior(self.ids[i], self.probs[self.offsets[i] : self.offsets[i + 1]])


def as_table(posteriors: PosteriorTable, like: Corpus | PosteriorTable | None = None
             ) -> PosteriorTable:
    """``posteriors``, which must be a `PosteriorTable`, after checking that it
    lists the instances of ``like`` (a corpus or a table), if given, with their
    candidate counts. The first instance out of line is named.
    """
    if not isinstance(posteriors, PosteriorTable):
        raise TypeError(f"posteriors must be a PosteriorTable, got {type(posteriors).__name__}")
    if like is not None and not (posteriors.ids == like.ids
                                 and np.array_equal(posteriors.offsets, like.offsets)):
        if len(posteriors) != len(like):
            raise ValidationError(f"{len(posteriors)} posteriors for {len(like)} instances")
        for q_id, p_id, q_size, p_size in zip(posteriors.ids, like.ids, np.diff(
                posteriors.offsets).tolist(), np.diff(like.offsets).tolist()):
            if q_id != p_id:
                raise ValidationError(f"posterior {q_id!r} does not match instance {p_id!r}")
            if q_size != p_size:
                raise ValidationError(
                    f"instance {p_id!r}: {q_size} probabilities for {p_size} candidates")
    return posteriors


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


def instance_posterior(corpus: Corpus) -> PosteriorTable:
    """The `PosteriorTable` of a corpus: each instance's softmax of its
    candidate scores, probs[k] = exp(score_k - logsumexp(scores))."""
    if not isinstance(corpus, Corpus):
        raise TypeError(f"instance_posterior takes a Corpus, got {type(corpus).__name__}")
    return PosteriorTable(corpus.ids, corpus.offsets, _softmax(corpus.score, corpus.offsets))


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


def segment_argmax(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Index within each segment of its first maximum, as ``np.argmax`` breaks ties."""
    starts = offsets[:-1]
    sizes = offsets[1:] - offsets[:-1]
    peak = np.repeat(np.maximum.reduceat(values, starts), sizes)
    within = np.arange(values.size) - np.repeat(starts, sizes)
    return np.minimum.reduceat(np.where(values == peak, within, values.size), starts)


def map_predict(posteriors: PosteriorTable) -> np.ndarray:
    """Index of each instance's most probable candidate; ties break toward the lowest index."""
    table = as_table(posteriors)
    return segment_argmax(table.probs, table.offsets)


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

    Both are `PosteriorTable` objects over the same instances. Returns inf
    when q puts mass where p has none (q not absolutely continuous w.r.t.
    p on the candidate support).
    """
    p_table = as_table(p)
    q_table = as_table(q, p_table)
    if len(q_table) == 0:
        return 0.0
    per_instance = segment_sum(_rel_entr(q_table.probs, p_table.probs), q_table.offsets)
    # accumulate is a left-to-right running sum, the order of adding instance by instance
    return float(np.add.accumulate(per_instance)[-1])
