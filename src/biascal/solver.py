"""KL projection of per-instance posteriors onto ratio constraints, via the dual.

The feasible set is linear in the expectation features of `constraints`, so
the projection  arg min_{q feasible} KL(q || p)  has the closed form

    q(k | i)  proportional to  p(k | i) * exp(-lam . phi_ik),    lam >= 0,

where lam maximizes the concave dual objective

    J(lam) = -sum_i log sum_k p_ik exp(-lam . phi_ik).

The partition function factorizes over instances because instances are
independent and the features add across instances, which is what makes the
per-instance reweighting above exact.

`solve` has two modes. Stochastic mode is the paper's protocol: projected
Adam ascent that shuffles instances each epoch and scales each mini-batch
gradient by corpus_size / batch_size so it estimates the full gradient.
Full-batch mode is the verification-grade path: projected Newton ascent
(Bertsekas 1982) to a per-coordinate stationarity tolerance. Its curvature
is the 2x2 block of -Hessian(J) of each activity's coordinate pair, summed
over the whole corpus in a few segment sums.
`brute_force_project` searches the lam grid directly and serves as an
independent oracle on problems small enough to afford it.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Literal, Sequence

import numpy as np

from .constraints import ConstraintSet, row_features
from .corpus import Corpus, atomic_write
from .distribution import InstancePosterior, PosteriorTable, as_table, reweight
from .errors import (
    DegenerateDistributionError,
    OracleSizeError,
    SolverDivergenceError,
    ValidationError,
)

__all__ = [
    "SolverConfig",
    "DualState",
    "FeaturizedCorpus",
    "featurize",
    "dual_objective",
    "dual_gradient",
    "solve",
    "calibrate",
    "brute_force_project",
    "save_checkpoint",
    "load_checkpoint",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Projected Newton (full-batch mode).
ACTIVE_EPS = 1e-3  # largest eps of the active set
ARMIJO_FRACTION = 1e-4  # share of the first-order gain a step must reach
BACKTRACK = 0.5
MAX_BACKTRACKS = 60
# A line search starts from a step that moves no candidate's log weight by
# more than this: its exponentials stay finite, and nearly flat coordinates,
# whose Newton steps are huge, start from a step of sensible size.
MAX_LOG_WEIGHT_STEP = 30.0
# A curvature below this share of its second moment is rounding noise; the
# second moments also scale the determinant a 2x2 block must exceed.
CURVATURE_FLOOR = 1e-12
PAIR_DET_MIN = 1e-10


@dataclass
class SolverConfig:
    """Dual-ascent hyperparameters.

    The stochastic defaults are batch 39, 10 epochs, initial rate 0.1 with
    multiplicative decay 0.998 applied after every mini-batch. Full-batch
    mode takes projected Newton steps over the whole corpus, ignores the
    batch, epoch, rate and seed settings, and stops once every coordinate
    satisfies the stationarity test at ``convergence_tol`` (or at
    ``max_steps``).
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
        if self.batch_size < 1 or self.epochs < 1 or self.max_steps < 1:
            raise ValidationError("batch_size, epochs and max_steps must be positive")
        if not (self.initial_lr > 0.0 and np.isfinite(self.initial_lr)):
            raise ValidationError(f"initial_lr must be positive, got {self.initial_lr}")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ValidationError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")
        if self.mode not in ("stochastic", "full_batch"):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if not (self.convergence_tol > 0.0):
            raise ValidationError("convergence_tol must be positive")


@dataclass
class DualState:
    """Nonnegative dual vector plus Adam moments; one solver owns it at a time."""

    lam: np.ndarray
    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0
    learning_rate: float = 0.1

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=np.float64)
        self.first_moment = np.asarray(self.first_moment, dtype=np.float64)
        self.second_moment = np.asarray(self.second_moment, dtype=np.float64)
        if not (self.first_moment.shape == self.second_moment.shape == self.lam.shape):
            raise ValidationError(f"Adam moments must match the shape {self.lam.shape} of lam")
        if np.any(self.lam < 0.0):
            raise ValidationError("dual vector must be nonnegative")
        if not (
            np.all(np.isfinite(self.lam))
            and np.all(np.isfinite(self.first_moment))
            and np.all(np.isfinite(self.second_moment))
        ):
            raise ValidationError("dual state must be finite")

    @classmethod
    def zeros(cls, dimension: int, learning_rate: float) -> "DualState":
        return cls(
            lam=np.zeros(dimension),
            first_moment=np.zeros(dimension),
            second_moment=np.zeros(dimension),
            step=0,
            learning_rate=learning_rate,
        )


@dataclass(frozen=True)
class FeaturizedCorpus:
    """Flat per-candidate view of (corpus, posteriors, constraints).

    ``cols``/``vals`` hold each candidate's two feature coordinates; rows
    with no features point at coordinate 0 with value 0 so scatter-adds are
    harmless.
    """

    offsets: np.ndarray
    seg_ids: np.ndarray
    log_p: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    dim: int
    n_instances: int

    @property
    def n_rows(self) -> int:
        return self.log_p.size


def featurize(
    corpus: Corpus, posteriors: Sequence[InstancePosterior], cs: ConstraintSet
) -> FeaturizedCorpus:
    """Precompute features and log base probabilities once per solve."""
    table = as_table(corpus, posteriors)
    slot, vals = row_features(corpus.activity, corpus.gender, cs)
    cols = np.where(slot[:, None] >= 0, 2 * slot[:, None] + np.arange(2), 0)
    with np.errstate(divide="ignore"):
        log_p = np.log(table.probs)
    return FeaturizedCorpus(
        offsets=corpus.offsets,
        seg_ids=corpus.segment_ids,
        log_p=log_p,
        cols=cols,
        vals=vals,
        dim=cs.dimension,
        n_instances=corpus.n_instances,
    )


def _gather(fc: FeaturizedCorpus, indices: np.ndarray) -> FeaturizedCorpus:
    """The instances at ``indices``, in that order, as a new flat corpus."""
    lens = np.diff(fc.offsets)[indices]
    new_offsets = np.concatenate([[0], np.cumsum(lens)])
    total = int(new_offsets[-1])
    within = np.arange(total) - np.repeat(new_offsets[:-1], lens)
    rows = np.repeat(fc.offsets[indices], lens) + within
    return FeaturizedCorpus(
        offsets=new_offsets,
        seg_ids=np.repeat(np.arange(len(indices)), lens),
        log_p=fc.log_p[rows],
        cols=fc.cols[rows],
        vals=fc.vals[rows],
        dim=fc.dim,
        n_instances=len(indices),
    )


def _slice(fc: FeaturizedCorpus, start: int, stop: int) -> FeaturizedCorpus:
    """Instances ``start:stop`` as a flat corpus of views into ``fc``."""
    lo, hi = fc.offsets[start], fc.offsets[stop]
    return FeaturizedCorpus(
        offsets=fc.offsets[start : stop + 1] - lo,
        seg_ids=fc.seg_ids[lo:hi] - start,
        log_p=fc.log_p[lo:hi],
        cols=fc.cols[lo:hi],
        vals=fc.vals[lo:hi],
        dim=fc.dim,
        n_instances=stop - start,
    )


def _penalties(fc: FeaturizedCorpus, lam: np.ndarray) -> np.ndarray:
    """Per-candidate lam . phi; a leading axis of ``lam`` (a grid) is kept."""
    if fc.dim == 0:
        return np.zeros(lam.shape[:-1] + (fc.n_rows,))
    cols, vals = fc.cols, fc.vals
    return vals[:, 0] * lam.take(cols[:, 0], axis=-1) + vals[:, 1] * lam.take(cols[:, 1], axis=-1)


def _log_z(fc: FeaturizedCorpus, weights: np.ndarray) -> np.ndarray:
    """Per-instance log partition values of per-candidate log weights (last axis)."""
    if fc.n_instances == 0:
        return np.zeros(weights.shape[:-1] + (0,))
    starts = fc.offsets[:-1]
    shift = np.maximum.reduceat(weights, starts, axis=-1)
    if not np.all(np.isfinite(shift)):
        bad = int(np.argwhere(~np.isfinite(shift))[0, -1])
        raise DegenerateDistributionError(
            f"instance index {bad}: no probability mass left on the support"
        )
    sums = np.add.reduceat(np.exp(weights - shift.take(fc.seg_ids, axis=-1)), starts, axis=-1)
    return shift + np.log(sums)


def _reweighted(fc: FeaturizedCorpus, lam: np.ndarray) -> np.ndarray:
    """Per-candidate probabilities reweighted by exp(-lam . phi)."""
    weights = fc.log_p - _penalties(fc, lam)
    return np.exp(weights - _log_z(fc, weights)[fc.seg_ids])


def _expectation(fc: FeaturizedCorpus, probs: np.ndarray) -> np.ndarray:
    out = np.zeros(fc.dim)
    for s in (0, 1):
        out += np.bincount(fc.cols[:, s], weights=probs * fc.vals[:, s], minlength=fc.dim)
    return out


def dual_objective(
    lam: np.ndarray,
    corpus: Corpus,
    posteriors: Sequence[InstancePosterior],
    cs: ConstraintSet,
) -> float:
    """J(lam) = -sum_i log Z_i(lam); zero at lam = 0 by normalization."""
    fc = featurize(corpus, posteriors, cs)
    lam = np.asarray(lam, dtype=np.float64)
    weights = fc.log_p - _penalties(fc, lam)
    return float(-_log_z(fc, weights).sum())


def dual_gradient(
    lam: np.ndarray,
    corpus: Corpus,
    posteriors: Sequence[InstancePosterior],
    cs: ConstraintSet,
    batch: Sequence[int] | None = None,
) -> np.ndarray:
    """Ascent gradient of J: the reweighted expectation of the features.

    Equals the derivative of `dual_objective`, i.e. the summed expectation
    of the constraint features under the lam-reweighted posteriors. With a
    ``batch`` of instance indices the batch sum is scaled by
    corpus_size / batch_size, making it an unbiased full-gradient estimate.
    """
    fc = featurize(corpus, posteriors, cs)
    lam = np.asarray(lam, dtype=np.float64)
    if batch is None:
        return _expectation(fc, _reweighted(fc, lam))
    indices = np.asarray(batch, dtype=np.int64)
    sub = _gather(fc, indices)
    return (fc.n_instances / len(indices)) * _expectation(sub, _reweighted(sub, lam))


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


def _featured_rows(fc: FeaturizedCorpus) -> tuple[np.ndarray, FeaturizedCorpus]:
    """The rows carrying a nonzero feature, and those rows as a corpus.

    Featureless rows enter the Newton step only through each instance's
    total probability on them. The returned corpus keeps every instance,
    so some of its segments may be empty; it serves `_penalties`,
    `_hessian_blocks` and `_objective_gain`, which sum by instance id, not
    by segment.
    """
    rows = np.flatnonzero(np.any(fc.vals != 0.0, axis=1))
    seg_ids = fc.seg_ids[rows]
    return rows, FeaturizedCorpus(
        offsets=np.searchsorted(seg_ids, np.arange(fc.n_instances + 1)),
        seg_ids=seg_ids,
        log_p=fc.log_p[rows],
        cols=fc.cols[rows],
        vals=fc.vals[rows],
        dim=fc.dim,
        n_instances=fc.n_instances,
    )


def _pair_groups(fc: FeaturizedCorpus) -> tuple[np.ndarray, np.ndarray]:
    """Each row's (instance, constraint pair) group, and each group's pair."""
    n_pairs = fc.dim // 2
    keys, group = np.unique(fc.seg_ids * n_pairs + fc.cols[:, 0] // 2, return_inverse=True)
    return group, keys % n_pairs


def _hessian_blocks(
    fc: FeaturizedCorpus, probs: np.ndarray, group: np.ndarray, group_pair: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each pair's 2x2 block of -Hessian(J), and the diagonal second moments.

    -Hessian(J) is the summed per-instance feature covariance. A row's
    features sit on its own activity's pair, so the block of pair j is
    sum_r q_r v_a v_b over its rows minus sum_i mu_ia mu_ib over the
    per-(instance, pair) means mu. Covariances across pairs, which arise
    only in instances with gendered candidates of several activities, are
    left out. Returns (h00, h01, h11, second) with ``second`` the sum_r
    q_r v_a^2 of every coordinate, the scale below which a curvature is
    rounding noise.
    """
    n_pairs = fc.dim // 2
    pair = fc.cols[:, 0] // 2
    weighted = probs[:, None] * fc.vals
    mean = [np.bincount(group, weights=weighted[:, a]) for a in (0, 1)]
    second = np.empty(fc.dim)
    blocks = []
    for a, b in ((0, 0), (0, 1), (1, 1)):
        moment = np.bincount(pair, weights=weighted[:, a] * fc.vals[:, b], minlength=n_pairs)
        blocks.append(
            moment - np.bincount(group_pair, weights=mean[a] * mean[b], minlength=n_pairs)
        )
        if a == b:
            second[a::2] = moment
    return blocks[0], blocks[1], blocks[2], second


def _newton_direction(
    gradient: np.ndarray,
    free: np.ndarray,
    h00: np.ndarray,
    h01: np.ndarray,
    h11: np.ndarray,
    second: np.ndarray,
) -> np.ndarray:
    """Ascent direction: the 2x2 block Newton step on pairs whose two
    coordinates are free, a diagonally scaled step everywhere else.

    The two features of a pair sum to -2 gamma on every gendered row, so a
    block is near singular along (1, 1) for small gamma and singular at
    gamma = 0; the block step is taken only while its determinant is
    safely positive. Curvatures below the rounding level of their second
    moment are raised to it, so a flat (unbounded) coordinate takes a long
    but finite step.
    """
    diag = np.empty(gradient.size)
    diag[0::2], diag[1::2] = h00, h11
    diag = np.maximum(diag, CURVATURE_FLOOR * second)
    direction = np.divide(gradient, diag, out=np.zeros(gradient.size), where=diag > 0.0)
    d00, d11 = diag[0::2], diag[1::2]
    det = d00 * d11 - h01 * h01
    safe = det > PAIR_DET_MIN * second[0::2] * second[1::2]
    pairs = np.flatnonzero(free[0::2] & free[1::2] & safe)
    g0, g1 = gradient[2 * pairs], gradient[2 * pairs + 1]
    direction[2 * pairs] = (d11[pairs] * g0 - h01[pairs] * g1) / det[pairs]
    direction[2 * pairs + 1] = (d00[pairs] * g1 - h01[pairs] * g0) / det[pairs]
    return direction


def _objective_gain(
    fc: FeaturizedCorpus, probs: np.ndarray, plain: np.ndarray, delta: np.ndarray
) -> float:
    """J(lam + delta) - J(lam), given the probabilities reweighted at lam.

    ``fc`` and ``probs`` are the featured rows and their probabilities,
    ``plain`` each instance's probability on its featureless rows. With
    w = -delta . phi per row and c_i the mean of w under q_i,
    log Z_i(lam + delta) - log Z_i(lam) = c_i + log1p(sum_k q_ik expm1(w_ik - c_i)),
    and the log1p term is nonnegative and second order in delta. The gain
    is therefore accurate to its own size, far below the rounding level of
    J itself, which the line search needs near convergence.
    """
    w = -_penalties(fc, delta)
    mean = np.bincount(fc.seg_ids, weights=probs * w, minlength=fc.n_instances)
    spread = plain * np.expm1(-mean) + np.bincount(
        fc.seg_ids, weights=probs * np.expm1(w - mean[fc.seg_ids]), minlength=fc.n_instances
    )
    return float(-mean.sum() - np.log1p(spread).sum())


def _newton_ascent(fc: FeaturizedCorpus, state: DualState, config: SolverConfig) -> None:
    """Projected Newton ascent on J (Bertsekas 1982) from ``state.lam``.

    Coordinates within eps of zero whose gradient points below zero form the
    active set and take a diagonally scaled step; the rest take the block
    Newton step of `_newton_direction`. The step is backtracked along the
    projection arc P(lam + alpha d) until it gains an Armijo fraction of
    its first-order prediction. Stops at the stationarity tolerance, after
    ``config.max_steps`` steps, or when no step gains anything at working
    precision. Each step adds one to ``state.step``.
    """
    rows, featured = _featured_rows(fc)
    is_plain = np.ones(fc.n_rows)
    is_plain[rows] = 0.0
    group, group_pair = _pair_groups(featured)
    for _ in range(config.max_steps):
        probs = _reweighted(fc, state.lam)
        gradient = _expectation(fc, probs)
        _check_finite(state, gradient)
        if _projected_gradient_norm(state.lam, gradient, config.convergence_tol) <= (
            config.convergence_tol
        ):
            return
        residual = np.abs(state.lam - np.maximum(0.0, state.lam + gradient)).max()
        active = (state.lam <= min(ACTIVE_EPS, residual)) & (gradient <= 0.0)
        q = probs[rows]
        blocks = _hessian_blocks(featured, q, group, group_pair)
        direction = _newton_direction(gradient, ~active, *blocks)
        free_rate = float(gradient[~active] @ direction[~active])
        # bound every candidate's log-weight change along the whole arc, so
        # the exponentials of the gain stay finite
        reach = (np.abs(featured.vals) * np.abs(direction)[featured.cols]).sum(axis=1)
        largest = float(reach.max(initial=0.0))
        alpha = min(1.0, MAX_LOG_WEIGHT_STEP / largest) if largest > 0.0 else 1.0
        plain = np.bincount(fc.seg_ids, weights=probs * is_plain, minlength=fc.n_instances)
        for _ in range(MAX_BACKTRACKS):
            trial = np.maximum(0.0, state.lam + alpha * direction)
            predicted = alpha * free_rate + float(
                gradient[active] @ (trial[active] - state.lam[active])
            )
            gain = _objective_gain(featured, q, plain, trial - state.lam)
            if gain >= ARMIJO_FRACTION * predicted:
                break
            alpha *= BACKTRACK
        else:
            return
        state.lam = trial
        state.step += 1


def solve(
    corpus: Corpus,
    posteriors: Sequence[InstancePosterior],
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
    anything at working precision. If the constraint system is infeasible
    (for example an activity whose corpus candidates are all one gender with
    the training ratio bounded away from it), the dual has no maximum and
    full-batch mode returns the last iterate, finite but possibly large.
    """
    fc = featurize(corpus, posteriors, cs)
    if initial_state is None:
        state = DualState.zeros(cs.dimension, config.initial_lr)
    else:
        state = copy.deepcopy(initial_state)
    if state.lam.shape != (cs.dimension,):
        raise ValidationError(
            f"initial state has dimension {state.lam.size}, constraints need {cs.dimension}"
        )
    if cs.dimension == 0 or fc.n_instances == 0:
        return state

    if config.mode == "full_batch":
        _newton_ascent(fc, state, config)
        return state

    rng = np.random.default_rng(config.seed)
    n = fc.n_instances
    for _ in range(config.epochs):
        # gather the shuffled corpus once; each mini-batch is then a
        # contiguous run of its instances
        shuffled = _gather(fc, rng.permutation(n))
        for start in range(0, n, config.batch_size):
            sub = _slice(shuffled, start, min(start + config.batch_size, n))
            gradient = (n / sub.n_instances) * _expectation(sub, _reweighted(sub, state.lam))
            _check_finite(state, gradient)
            _adam_step(state, gradient, config.lr_decay)
    return state


def calibrate(
    corpus: Corpus,
    posteriors: Sequence[InstancePosterior],
    cs: ConstraintSet,
    lam: np.ndarray,
) -> list[InstancePosterior] | PosteriorTable:
    """Closed-form calibrated posteriors q(. | i) for a fixed dual vector.

    Returns a `PosteriorTable` for a table and a list for a list. Instances
    without a nonzero penalty keep their posterior bit for bit; in a list
    they are the very objects passed in.
    """
    table = as_table(corpus, posteriors)
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (cs.dimension,):
        raise ValidationError(f"lam has shape {lam.shape}, expected ({cs.dimension},)")
    penalty = _penalties(featurize(corpus, table, cs), lam)
    touched = np.flatnonzero(penalty != 0.0)
    if touched.size == 0:
        return posteriors if isinstance(posteriors, PosteriorTable) else list(posteriors)
    reweighted = reweight(table.probs, penalty, corpus.offsets, corpus.ids)
    is_touched = np.zeros(corpus.n_instances, dtype=bool)
    is_touched[corpus.segment_ids[touched]] = True
    probs = np.where(np.repeat(is_touched, corpus.sizes), reweighted, table.probs)
    if isinstance(posteriors, PosteriorTable):
        return PosteriorTable(table.ids, table.offsets, probs)
    out = list(posteriors)
    for i in np.flatnonzero(is_touched):
        out[i] = InstancePosterior(table.ids[i], probs[table.offsets[i] : table.offsets[i + 1]])
    return out


MAX_ORACLE_DIMENSION = 4
MAX_ORACLE_CANDIDATES = 64


def _evaluate_grid(
    fc: FeaturizedCorpus,
    cs: ConstraintSet,
    slot: np.ndarray,
    male: np.ndarray,
    lam_grid: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """KL, dual objective, and feasibility of every grid point at once.

    ``slot`` and ``male`` are the rows' `row_features` slots and male flags.
    """
    penalties = _penalties(fc, lam_grid)
    weights = fc.log_p - penalties
    log_z = _log_z(fc, weights)
    log_z_rows = log_z[:, fc.seg_ids]
    probs = np.exp(weights - log_z_rows)
    objective = -log_z.sum(axis=1)
    kl = (probs * (-penalties - log_z_rows)).sum(axis=1)
    feasible = np.ones(lam_grid.shape[0], dtype=bool)
    for j in range(cs.n_constraints):
        rows = slot == j
        gendered = probs[:, rows].sum(axis=1)
        male_mass = probs[:, rows & male].sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = male_mass / gendered
        feasible &= (gendered > 0.0) & (
            np.abs(ratio - float(cs.b_star[j])) <= cs.gamma + 1e-12
        )
    return kl, objective, feasible


def brute_force_project(
    corpus: Corpus,
    posteriors: Sequence[InstancePosterior],
    cs: ConstraintSet,
    resolution: int = 11,
    lam_max: float = 50.0,
    refine_passes: int = 18,
) -> tuple[list[InstancePosterior] | PosteriorTable, np.ndarray]:
    """Independent oracle: grid-search the dual vector for the KL projection.

    Scans lam over [0, lam_max]^dim at ``resolution`` points per axis and
    keeps the feasible point of minimum KL(q_lam || p) seen anywhere.
    Refinement re-centers each pass on the grid argmax of the dual
    objective, which is concave in lam and therefore free of spurious local
    basins (the feasible set itself is a thin shell that a KL-guided search
    can get stuck on). Returns (posteriors, lam), the posteriors of the
    kind `calibrate` returns for the input. Refuses problems with
    more than two constrained activities or more than 64 total candidates.
    If no grid point is ever feasible (infeasible constraint system), falls
    back to the dual-argmax point.
    """
    if cs.dimension > MAX_ORACLE_DIMENSION:
        raise OracleSizeError(
            f"brute force supports at most {MAX_ORACLE_DIMENSION // 2} constrained "
            f"activities, got {cs.n_constraints}"
        )
    fc = featurize(corpus, posteriors, cs)
    if fc.n_rows > MAX_ORACLE_CANDIDATES:
        raise OracleSizeError(
            f"brute force supports at most {MAX_ORACLE_CANDIDATES} candidates, "
            f"got {fc.n_rows}"
        )
    if resolution < 3:
        raise ValidationError("grid resolution must be at least 3")
    dim = cs.dimension
    if dim == 0 or fc.n_instances == 0:
        return calibrate(corpus, posteriors, cs, np.zeros(dim)), np.zeros(dim)
    slot, _ = row_features(corpus.activity, corpus.gender, cs)

    lo = np.zeros(dim)
    hi = np.full(dim, float(lam_max))
    best_lam = np.zeros(dim)
    best_kl = np.inf
    found_feasible = False
    dual_best_lam = np.zeros(dim)
    dual_best_objective = -np.inf

    shrinks = 0
    total_passes = 0
    while shrinks < refine_passes and total_passes < 4 * refine_passes:
        total_passes += 1
        axes = [np.linspace(lo[d], hi[d], resolution) for d in range(dim)]
        lam_grid = np.array(list(itertools.product(*axes)))
        kl, objective, feasible = _evaluate_grid(fc, cs, slot, corpus.male, lam_grid)
        arg_dual = int(np.argmax(objective))
        center = lam_grid[arg_dual]
        if objective[arg_dual] > dual_best_objective:
            dual_best_objective = float(objective[arg_dual])
            dual_best_lam = center
        if feasible.any():
            masked = np.where(feasible, kl, np.inf)
            kl_min = float(masked.min())
            # among feasible points of equal divergence (to float noise) take
            # the smallest multipliers, and only displace an earlier winner
            # on a genuine improvement
            near = masked <= kl_min + 1e-12 * max(1.0, abs(kl_min))
            arg_kl = int(np.argmin(np.where(near, lam_grid.sum(axis=1), np.inf)))
            if not found_feasible or masked[arg_kl] < best_kl - 1e-12 * max(1.0, abs(best_kl)):
                best_kl = float(masked[arg_kl])
                best_lam = lam_grid[arg_kl]
                found_feasible = True
        step = (hi - lo) / (resolution - 1)
        at_upper = center >= hi - 0.5 * step
        at_lower = (center <= lo + 0.5 * step) & (lo > 0.0)
        if np.any(at_upper | at_lower):
            # the argmax sits on the window edge: the maximum may be beyond
            # it (for example down a slow ridge), so translate the window at
            # full width instead of shrinking onto a premature center
            width = hi - lo
            lo = np.maximum(0.0, center - 0.5 * width)
            hi = lo + width
        else:
            lo = np.maximum(0.0, center - 1.5 * step)
            hi = lo + 3.0 * step
            shrinks += 1

    lam = best_lam if found_feasible else dual_best_lam
    return calibrate(corpus, posteriors, cs, lam), lam


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
    payload = {
        "schema_version": 1,
        "lambda": [float(x) for x in state.lam],
        "first_moment": [float(x) for x in state.first_moment],
        "second_moment": [float(x) for x in state.second_moment],
        "step": state.step,
        "learning_rate": state.learning_rate,
        "config_hash": _config_hash(config, cs),
    }
    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def load_checkpoint(
    path: str | Path, config: SolverConfig | None = None, cs: ConstraintSet | None = None
) -> DualState:
    """Load a checkpoint; verifies the config hash when config and cs are given."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    version = payload.get("schema_version") if isinstance(payload, dict) else None
    if isinstance(version, bool) or version != 1:
        raise ValidationError(f"unsupported checkpoint schema_version {version!r}, expected 1")
    if config is not None and cs is not None:
        expected = _config_hash(config, cs)
        if payload.get("config_hash") != expected:
            raise ValidationError(
                "checkpoint config hash mismatch: refusing to resume with different settings"
            )
    return DualState(
        lam=np.array(_checked(payload, "lambda", list), dtype=np.float64),
        first_moment=np.array(_checked(payload, "first_moment", list), dtype=np.float64),
        second_moment=np.array(_checked(payload, "second_moment", list), dtype=np.float64),
        step=_checked(payload, "step", int),
        learning_rate=float(_checked(payload, "learning_rate", (int, float))),
    )


def _checked(payload: dict, key: str, kind: type | tuple[type, ...]):
    """``payload[key]`` if it is a ``kind`` holding JSON numbers (never booleans)."""
    if key not in payload:
        raise ValidationError(f"checkpoint is missing {key!r}")
    value = payload[key]
    items = value if isinstance(value, list) else [value]
    if not isinstance(value, kind) or not all(type(x) in (int, float) for x in items):
        raise ValidationError(f"checkpoint {key!r} has the wrong type: {value!r}")
    return value
