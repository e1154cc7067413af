"""KL projection of per-instance posteriors onto ratio constraints, via the dual.

The feasible set is linear in the expectation features of `constraints`, so
the projection  arg min_{q feasible} KL(q || p)  has the closed form

    q(k | i)  proportional to  p(k | i) * exp(-lam . phi_ik),    lam >= 0,

where lam maximizes the concave dual objective

    J(lam) = -sum_i log sum_k p_ik exp(-lam . phi_ik).

The partition function factorizes over instances because instances are
independent and the features add across instances, which is what makes the
per-instance reweighting above exact. A candidate's features depend only on
its type, (activity, gender), so every path runs on a compressed corpus
(`FeaturizedCorpus`): each instance's featured candidates and one plain row
holding the total probability of the rest. Penalties are computed once per
type and looked up per row; expectations are per-type masses folded through
the type's feature values.

`solve` has two modes. Stochastic mode is the paper's protocol: projected
Adam ascent that shuffles instances each epoch and scales each mini-batch
gradient by corpus_size / batch_size so it estimates the full gradient.
Full-batch mode is the verification-grade path: projected Newton ascent
to a per-coordinate stationarity tolerance on one signed multiplier per
activity, scaled by the diagonal of -Hessian(J), which is summed over the
whole corpus in a few segment sums.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import asdict, dataclass
from itertools import pairwise
from pathlib import Path
from typing import Literal

import numpy as np

from . import _EXPORTS
from .constraints import ConstraintSet, feature_types, type_features
from .corpus import Corpus, as_array, as_number, dump_json, load_json, read_numbers
from .distribution import PosteriorTable, as_table, reweight
from .errors import DegenerateDistributionError, SolverDivergenceError, ValidationError

__all__ = [*_EXPORTS["solver"], "FeaturizedCorpus", "featurize"]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Projected Newton (full-batch mode).
ARMIJO_FRACTION = 1e-4  # share of the first-order gain a step must reach
BACKTRACK = 0.5
MAX_BACKTRACKS = 60
# A line search starts from a step that moves no candidate's log weight by
# more than this: its exponentials stay finite, and nearly flat coordinates,
# whose Newton steps are huge, start from a step of sensible size.
MAX_LOG_WEIGHT_STEP = 30.0
# A curvature below this share of its second moment is rounding noise and is
# raised to it, so a flat (unbounded) coordinate takes a long but finite step.
CURVATURE_FLOOR = 1e-12
# Full-batch stops when every activity's gradient over its gendered mass, a
# ratio residual, is within this share of ``convergence_tol``.
RATIO_TOL_FACTOR = 1e-2


@dataclass(frozen=True)
class SolverConfig:
    """Dual-ascent hyperparameters.

    The stochastic defaults are batch 39, 10 epochs, initial rate 0.1 with
    multiplicative decay 0.998 applied after every mini-batch. Full-batch
    mode takes projected Newton steps over the whole corpus on one signed
    multiplier per activity, ignores the batch, epoch, rate and seed
    settings, and stops once every coordinate satisfies the stationarity
    test (or at ``max_steps``). That test is in ratio units, so that it does
    not tighten as an activity gains instances: each gradient coordinate,
    a sum over instances, is divided by its activity's gendered mass and
    must be within ``RATIO_TOL_FACTOR * convergence_tol``. The tolerance
    must be finite and positive.
    """

    batch_size: int = 39
    epochs: int = 10
    initial_lr: float = 0.1
    lr_decay: float = 0.998
    seed: int = 0
    mode: Literal["stochastic", "full_batch"] = "stochastic"
    convergence_tol: float = 1e-8
    max_steps: int = 20000

    def __post_init__(self):
        read_numbers(self)  # numpy numbers are not JSON serializable; equal configs hash equal
        if self.batch_size < 1 or self.epochs < 1 or self.max_steps < 1:
            raise ValidationError("batch_size, epochs and max_steps must be positive")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        if not (self.initial_lr > 0.0 and np.isfinite(self.initial_lr)):
            raise ValidationError(f"initial_lr must be positive, got {self.initial_lr}")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ValidationError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")
        if self.mode not in ("stochastic", "full_batch"):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if not (self.convergence_tol > 0.0 and np.isfinite(self.convergence_tol)):
            raise ValidationError(
                f"convergence_tol must be finite and positive, got {self.convergence_tol}"
            )


@dataclass(eq=False)
class DualState:
    """Nonnegative dual vector plus Adam moments, each a finite real column (`as_array`), and
    the step and rate (`as_number`); one solver owns it. Compared by identity."""

    lam: np.ndarray
    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0
    learning_rate: float = 0.1

    def __post_init__(self):
        for name in ("lam", "first_moment", "second_moment"):
            vector = as_array(name, getattr(self, name), float)
            setattr(self, name, vector.astype(np.float64, copy=False))
        if not (self.first_moment.shape == self.second_moment.shape == self.lam.shape):
            raise ValidationError(f"Adam moments must match the shape {self.lam.shape} of lam")
        if np.any(self.lam < 0.0):
            raise ValidationError("dual vector must be nonnegative")
        if not all(np.isfinite(v).all() for v in (self.lam, self.first_moment, self.second_moment)):
            raise ValidationError("dual state must be finite")
        read_numbers(self)
        if self.step < 0:
            raise ValidationError(f"step must be a nonnegative integer, got {self.step!r}")
        # 0 stays allowed: lr_decay can underflow a long run's rate to it
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValidationError(
                f"learning_rate must be finite and nonnegative, got {self.learning_rate!r}")

    @classmethod
    def zeros(cls, dimension: int, learning_rate: float) -> "DualState":
        return cls(np.zeros(dimension), np.zeros(dimension), np.zeros(dimension), 0, learning_rate)


@dataclass(frozen=True)
class FeaturizedCorpus:
    """Compressed, type-indexed view of (corpus, posteriors, constraints).

    Each instance keeps its featured rows, the gendered candidates of its
    constrained activities, in corpus order, and ends in one plain row that
    merges all its other candidates: the plain row's ``log_p`` is the log of
    their total probability (-inf when it is 0) and it has no features, so
    no segment is empty. ``types[r]`` is row r's `feature_types` type, and
    plain rows have type ``dim``. Rows of one type share their features,
    ``values[t]`` at coordinates ``coords[t]``, as `type_features` gives them.
    """

    offsets: np.ndarray
    seg_ids: np.ndarray
    log_p: np.ndarray
    types: np.ndarray
    values: np.ndarray
    coords: np.ndarray
    dim: int
    n_instances: int


def featurize(
    corpus: Corpus, posteriors: PosteriorTable, cs: ConstraintSet
) -> FeaturizedCorpus:
    """Compress the corpus to its featured rows and one plain row per instance."""
    probs = as_table(posteriors, corpus).probs
    n, dim = corpus.n_instances, cs.dimension
    row_types = feature_types(corpus, cs)
    featured = np.flatnonzero(row_types < dim)
    seg = corpus.segment_ids[featured]
    offsets = np.concatenate([[0], np.cumsum(np.bincount(seg, minlength=n) + 1)])
    plain = np.bincount(
        corpus.segment_ids, weights=np.where(row_types < dim, 0.0, probs), minlength=n
    )
    # featured row k of instance i lands after the plain rows of instances < i
    at = np.arange(featured.size) + seg
    log_p = np.empty(offsets[-1])
    types = np.full(offsets[-1], dim)
    with np.errstate(divide="ignore"):
        log_p[at] = np.log(probs[featured])
        log_p[offsets[1:] - 1] = np.log(plain)
    types[at] = row_types[featured]
    seg_ids = np.repeat(np.arange(n), np.diff(offsets))
    return FeaturizedCorpus(offsets, seg_ids, log_p, types, *type_features(cs), dim, n)


def _type_penalties(values: np.ndarray, coords: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """lam . phi of every type, the plain type last."""
    if lam.size == 0:
        return np.zeros(1)
    return np.add.reduce(values * lam[coords], axis=1)


def _partition(weights: np.ndarray, seg_ids: np.ndarray, starts: np.ndarray) -> tuple:
    """Per-instance max shifts, shifted exponentials of per-row log weights,
    and their per-instance sums."""
    if starts.size == 0:
        return weights[:0], weights, weights[:0]
    shift = np.maximum.reduceat(weights, starts)
    exps = np.exp(weights - shift.take(seg_ids))
    return shift, exps, np.add.reduceat(exps, starts)


def _check_shift(shift: np.ndarray) -> None:
    finite = np.isfinite(shift)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise DegenerateDistributionError(
            f"instance index {bad}: no probability mass left on the support"
        )


def _checked_lam(lam, cs: ConstraintSet, name: str = "lam") -> np.ndarray:
    """``lam`` as a float vector of the constraint dimension with finite entries."""
    lam = as_array(name, lam, float).astype(np.float64, copy=False)
    if lam.shape != (cs.dimension,):
        raise ValidationError(f"{name} has shape {lam.shape}, expected ({cs.dimension},)")
    bad = np.flatnonzero(~np.isfinite(lam))
    if bad.size:
        raise ValidationError(f"{name}[{bad[0]}] = {float(lam[bad[0]])!r} is not finite")
    return lam


def _log_partition(fc: FeaturizedCorpus, lam: np.ndarray) -> tuple:
    """Row penalties lam . phi, log Z_i and reweighted rows."""
    penalty = _type_penalties(fc.values, fc.coords, lam).take(fc.types)
    shift, exps, sums = _partition(fc.log_p - penalty, fc.seg_ids, fc.offsets[:-1])
    _check_shift(shift)
    return penalty, shift + np.log(sums), exps / sums.take(fc.seg_ids)


def _type_mass(types: np.ndarray, probs: np.ndarray, dim: int) -> np.ndarray:
    """Probability mass of every type, the plain type last."""
    return np.bincount(types, weights=probs, minlength=dim + 1)


def _expectation(fc: FeaturizedCorpus, mass: np.ndarray) -> np.ndarray:
    """Feature expectation folded from the `_type_mass` of every type."""
    weighted = mass[:-1, None] * fc.values[:-1]
    return np.bincount(fc.coords[:-1].ravel(), weights=weighted.ravel(), minlength=fc.dim)


def dual_objective(
    lam: np.ndarray,
    corpus: Corpus,
    posteriors: PosteriorTable,
    cs: ConstraintSet,
) -> float:
    """J(lam) = -sum_i log Z_i(lam); zero at lam = 0 by normalization."""
    _, log_z, _ = _log_partition(featurize(corpus, posteriors, cs), _checked_lam(lam, cs))
    return float(-log_z.sum())


def dual_gradient(
    lam: np.ndarray,
    corpus: Corpus,
    posteriors: PosteriorTable,
    cs: ConstraintSet,
) -> np.ndarray:
    """Ascent gradient of J: the reweighted expectation of the features.

    Equals the derivative of `dual_objective`, i.e. the summed expectation
    of the constraint features under the lam-reweighted posteriors. The
    stochastic solve's scaled mini-batch gradient is `_batch_step`'s.
    """
    fc = featurize(corpus, posteriors, cs)
    _, _, probs = _log_partition(fc, _checked_lam(lam, cs))
    return _expectation(fc, _type_mass(fc.types, probs, fc.dim))


def _adam_step(state: DualState, gradient: np.ndarray, lr_decay: float) -> None:
    """One projected Adam step of the stochastic protocol."""
    state.step += 1
    state.first_moment = ADAM_BETA1 * state.first_moment + (1.0 - ADAM_BETA1) * gradient
    state.second_moment = ADAM_BETA2 * state.second_moment + (1.0 - ADAM_BETA2) * gradient**2
    m_hat = state.first_moment / (1.0 - ADAM_BETA1**state.step)
    v_hat = state.second_moment / (1.0 - ADAM_BETA2**state.step)
    state.lam = np.maximum(
        0.0, state.lam + state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    )
    state.learning_rate *= lr_decay


def _batch_step(state: DualState, fc: FeaturizedCorpus, log_p: np.ndarray, types: np.ndarray,
                seg_ids: np.ndarray, starts: np.ndarray, scale: float, lr_decay: float) -> None:
    """One stochastic step on a mini-batch given as flat rows of ``fc``'s kind.

    ``seg_ids`` numbers the batch's instances from 0 and ``starts`` holds
    their first rows. The gradient is the batch expectation times ``scale``.
    One test per step, after the update, covers the gradient and the new
    lam (0 * inf is nan, so the dot product is non-finite when either has a
    non-finite entry); only when it fails are the shifts and the two
    vectors examined. An inf that lam already held usually makes the shifts
    non-finite, which is reported first; an inf that the update made is
    reported as divergence. The caller ignores numpy's invalid-value and
    overflow warnings, which that test makes redundant.
    """
    penalty = _type_penalties(fc.values, fc.coords, state.lam).take(types)
    shift, exps, sums = _partition(log_p - penalty, seg_ids, starts)
    gradient = scale * _expectation(fc, _type_mass(types, exps / sums.take(seg_ids), fc.dim))
    _adam_step(state, gradient, lr_decay)
    if not math.isfinite(gradient @ state.lam):
        _check_shift(shift)
        _check_finite(state, gradient)


def _check_finite(state: DualState, gradient: np.ndarray) -> None:
    for name, vec in (("gradient", gradient), ("dual vector", state.lam)):
        finite = np.isfinite(vec)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            raise SolverDivergenceError(
                f"non-finite {name} at coordinate {bad} (step {state.step})", coordinate=bad
            )


def _projected_gradient_norm(lam: np.ndarray, gradient: np.ndarray, tol: float) -> float:
    """Max-norm of the gradient with boundary coordinates projected out.

    At a constrained maximum either a coordinate is pinned at zero with a
    nonpositive gradient, or it is interior with a vanishing gradient; the
    returned norm is zero-ish exactly when that holds.
    """
    projected = np.where(lam <= tol, np.maximum(gradient, 0.0), np.abs(gradient))
    return float(projected.max()) if projected.size else 0.0


def _pair_groups(fc: FeaturizedCorpus) -> tuple[np.ndarray, np.ndarray]:
    """Each row's (constraint pair, instance) group, and each group's pair.

    Plain rows fall in groups of the extra pair ``dim // 2``.
    """
    keys, group = np.unique(fc.types // 2 * fc.n_instances + fc.seg_ids, return_inverse=True)
    return group, keys // fc.n_instances


def _hessian_diagonal(fc: FeaturizedCorpus, probs: np.ndarray, mass: np.ndarray,
                      group: np.ndarray, group_pair: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal of -Hessian(J), and the second moments of every coordinate.

    -Hessian(J) is the summed per-instance feature covariance. Coordinate
    a of pair j has a feature only on the rows of pair j's two types, so
    its variance is sum_r q_r v_a^2 over them, a sum over the two types of
    their ``mass`` (the second moment), minus sum_i mu_ia^2 over the
    per-(instance, pair) means mu. The second moment is also the scale
    below which a curvature is rounding noise.
    """
    second = (mass[:-1, None] * fc.values[:-1] ** 2).reshape(-1, 2, 2).sum(axis=1).ravel()
    weighted = probs[:, None] * fc.values[fc.types]
    mean = np.stack([np.bincount(group, weights=weighted[:, a]) for a in (0, 1)], axis=1)
    coordinate = 2 * group_pair[:, None] + np.arange(2)
    squares = np.bincount(coordinate.ravel(), weights=(mean * mean).ravel(), minlength=fc.dim + 2)
    return second - squares[: fc.dim], second


def _objective_gain(fc: FeaturizedCorpus, probs: np.ndarray, delta: np.ndarray) -> float:
    """J(lam + delta) - J(lam), given the probabilities reweighted at lam.

    With w = -delta . phi per row and c_i the mean of w under q_i,
    log Z_i(lam + delta) - log Z_i(lam) = c_i + log1p(sum_k q_ik expm1(w_ik - c_i)),
    and the log1p term is nonnegative and second order in delta. The gain
    is therefore accurate to its own size, far below the rounding level of
    J itself, which the line search needs near convergence.
    """
    w = -_type_penalties(fc.values, fc.coords, delta).take(fc.types)
    mean = np.bincount(fc.seg_ids, weights=probs * w, minlength=fc.n_instances)
    spread = np.bincount(
        fc.seg_ids, weights=probs * np.expm1(w - mean[fc.seg_ids]), minlength=fc.n_instances
    )
    return float(-mean.sum() - np.log1p(spread).sum())


def _newton_ascent(fc: FeaturizedCorpus, state: DualState, config: SolverConfig) -> None:
    """Projected Newton ascent on J from ``state.lam``, on one signed
    multiplier mu_j = lam_2j - lam_2j+1 per activity.

    An activity's two coordinates bound its ratio from both sides, so its
    dual is mu_j with a kink at 0 (Ganchev et al. 2010; the orthant
    handling is OWL-QN's, Andrew & Gao 2007). Lowering both coordinates of
    a pair raises J for gamma > 0 and leaves it unchanged at gamma = 0, so
    lam is first written back as (max(mu, 0), max(-mu, 0)). Each step moves
    only each pair's live coordinate, the positive one or, at mu_j = 0, the
    one with the larger gradient, by its gradient over its diagonal
    curvature, projected at 0 so that mu_j cannot cross the kink. A live
    coordinate at 0 whose gradient is not positive gets no direction: the
    projection would hold it at 0 anyway, and its gradient over a near-zero
    curvature could be huge and shrink the others' step bound. Such a step
    is an ascent; it is backtracked until it gains an Armijo fraction of
    g . (trial - lam). Stops at the stationarity tolerance, in ratio units
    (`SolverConfig`), after ``config.max_steps`` steps, or when no step gains
    anything at working precision. Each step adds one to ``state.step``.
    """
    signed = state.lam[0::2] - state.lam[1::2]
    state.lam = np.column_stack([np.maximum(signed, 0.0), np.maximum(-signed, 0.0)]).ravel()
    group, group_pair = _pair_groups(fc)
    for _ in range(config.max_steps):
        _, _, probs = _log_partition(fc, state.lam)
        mass = _type_mass(fc.types, probs, fc.dim)
        gradient = _expectation(fc, mass)
        _check_finite(state, gradient)
        gendered = np.repeat(mass[:-1].reshape(-1, 2).sum(axis=1), 2)
        ratio = np.divide(gradient, gendered, out=np.zeros(fc.dim), where=gendered > 0.0)
        if _projected_gradient_norm(state.lam, ratio, config.convergence_tol) <= (
            RATIO_TOL_FACTOR * config.convergence_tol
        ):
            return
        upper = (state.lam[0::2] > 0.0) | (
            (state.lam[1::2] == 0.0) & (gradient[0::2] >= gradient[1::2])
        )
        live = np.column_stack([upper, ~upper]).ravel()
        curvature, second = _hessian_diagonal(fc, probs, mass, group, group_pair)
        curvature = np.maximum(curvature, CURVATURE_FLOOR * second)
        direction = np.divide(gradient, curvature, out=np.zeros(fc.dim),
                              where=live & (curvature > 0.0)
                              & ((state.lam > 0.0) | (gradient > 0.0)))
        # bound every candidate's log-weight change along the whole arc, so
        # the exponentials of the gain stay finite
        reach = _type_penalties(np.abs(fc.values), fc.coords, np.abs(direction))
        largest = float(reach.take(fc.types).max())
        alpha = min(1.0, MAX_LOG_WEIGHT_STEP / largest) if largest > 0.0 else 1.0
        for _ in range(MAX_BACKTRACKS):
            trial = np.maximum(0.0, state.lam + alpha * direction)
            step = trial - state.lam
            predicted = float(gradient @ step)
            gain = _objective_gain(fc, probs, step)
            if predicted > 0.0 and gain >= ARMIJO_FRACTION * predicted:
                break
            alpha *= BACKTRACK
        else:
            return
        state.lam = trial
        state.step += 1


def solve(
    corpus: Corpus,
    posteriors: PosteriorTable,
    cs: ConstraintSet,
    config: SolverConfig,
    initial_state: DualState | None = None,
) -> DualState:
    """Maximize the dual by projected ascent from lam = 0.

    ``initial_state`` resumes from a saved state; ascent runs on a copy, so
    the state passed in is left as it was. Deterministic given (inputs,
    config). Stochastic mode takes projected Adam steps (`_adam_step`),
    reshuffles the instance order each epoch from ``config.seed``, decays
    the rate by ``lr_decay`` after every mini-batch, and runs exactly
    epochs * ceil(n / batch_size) steps.
    Full-batch mode takes projected Newton steps (`_newton_ascent`); its
    ``step`` counts Newton iterations, and it leaves the moments and the
    learning rate as they were. It stops at the stationarity tolerance, at
    ``config.max_steps``, or when the line search can no longer gain
    anything at working precision. The dual has no maximum if the constraint
    system is infeasible or feasible only on its boundary (an all-male
    activity with b* + gamma < 1 meets its bound only with no mass on it);
    full-batch mode then returns the last iterate, finite but possibly large.
    """
    fc = featurize(corpus, posteriors, cs)
    if initial_state is None:
        state = DualState.zeros(cs.dimension, config.initial_lr)
    else:
        state = copy.deepcopy(initial_state)
        _checked_lam(state.lam, cs)
    if cs.dimension == 0 or fc.n_instances == 0:
        return state

    if config.mode == "full_batch":
        _newton_ascent(fc, state, config)
        return state

    rng = np.random.default_rng(config.seed)
    n, size = fc.n_instances, config.batch_size
    edges = list(range(0, n, size)) + [n]
    # a nan from a non-finite lam, or an inf from an overflowing update, is
    # diagnosed by _batch_step's own test, so numpy's invalid-value and
    # overflow warnings would only come before its error
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(config.epochs):
            # lay the rows out in the epoch's instance order once; each
            # mini-batch is then a contiguous run of them, whose instances and
            # first rows are numbered from the batch's own start
            order = rng.permutation(n)
            lens = np.diff(fc.offsets)[order]
            offsets = np.concatenate([[0], np.cumsum(lens)])
            rows = np.repeat(fc.offsets[order] - offsets[:-1], lens) + np.arange(offsets[-1])
            log_p, types = fc.log_p[rows], fc.types[rows]
            seg_ids = np.repeat(np.arange(n) % size, lens)
            starts = offsets[:-1] - np.repeat(offsets[edges[:-1]], size)[:n]
            bounds = offsets[edges].tolist()
            for (first, last), (lo, hi) in zip(pairwise(edges), pairwise(bounds)):
                _batch_step(state, fc, log_p[lo:hi], types[lo:hi], seg_ids[lo:hi],
                            starts[first:last], n / (last - first), config.lr_decay)
    return state


def calibrate(
    corpus: Corpus,
    posteriors: PosteriorTable,
    cs: ConstraintSet,
    lam: np.ndarray,
) -> PosteriorTable:
    """Closed-form calibrated posteriors q(. | i) for a fixed dual vector, as a table.

    Instances without a nonzero penalty keep their posterior bit for bit.
    """
    table = as_table(posteriors, corpus)
    lam = _checked_lam(lam, cs)
    types = feature_types(corpus, cs)
    penalty = _type_penalties(*type_features(cs), lam).take(types)
    reweighted = reweight(table, penalty)
    is_touched = np.zeros(corpus.n_instances, dtype=bool)
    is_touched[corpus.segment_ids[penalty != 0.0]] = True
    probs = np.where(np.repeat(is_touched, corpus.sizes), reweighted, table.probs)
    return PosteriorTable(corpus, probs)


def _config_hash(config: SolverConfig, cs: ConstraintSet) -> str:
    payload = {
        **asdict(config),
        "activities": list(cs.activity_ids),
        "b_star": [repr(float(b)) for b in cs.b_star],
        "gamma": repr(cs.gamma),
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()[:16]


def save_checkpoint(
    path: str | Path, state: DualState, config: SolverConfig, cs: ConstraintSet
) -> None:
    """Persist the dual vector and optimizer state for later resumption."""
    dump_json({
        "schema_version": 1,
        "lambda": [float(x) for x in state.lam],
        "first_moment": [float(x) for x in state.first_moment],
        "second_moment": [float(x) for x in state.second_moment],
        "step": int(state.step),
        "learning_rate": state.learning_rate,
        "config_hash": _config_hash(config, cs),
    }, path)


def load_checkpoint(path: str | Path, config: SolverConfig, cs: ConstraintSet) -> DualState:
    """Load a checkpoint saved under ``config`` and ``cs``, always verifying the config hash;
    each of its three vectors must hold ``cs.dimension`` finite entries, read by `as_number`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = load_json(handle, ValidationError, "checkpoint")
    version = payload.get("schema_version") if isinstance(payload, dict) else None
    if isinstance(version, bool) or version != 1:
        raise ValidationError(f"unsupported checkpoint schema_version {version!r}, expected 1")
    if payload.get("config_hash") != _config_hash(config, cs):
        raise ValidationError(
            "checkpoint config hash mismatch: refusing to resume with different settings"
        )
    for key, kind in (("lambda", list), ("first_moment", list), ("second_moment", list),
                      ("step", int), ("learning_rate", (int, float))):
        if key not in payload:
            raise ValidationError(f"checkpoint is missing {key!r}")
        if isinstance(payload[key], bool) or not isinstance(payload[key], kind):
            raise ValidationError(f"checkpoint {key!r} has the wrong type: {payload[key]!r}")
    lam, first_moment, second_moment = (
        _checked_lam([as_number(f"checkpoint {key!r}", x, float) for x in payload[key]], cs,
                     f"checkpoint {key!r}") for key in ("lambda", "first_moment", "second_moment"))
    return DualState(lam, first_moment, second_moment, payload["step"], payload["learning_rate"])
