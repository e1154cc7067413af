"""KL projection of per-instance posteriors onto ratio constraints, via the dual.

The feasible set is linear in the expectation features of `constraints`, so
the projection  arg min_{q feasible} KL(q || p)  has the closed form

    q(k | i)  proportional to  p(k | i) * exp(-lam . phi_ik),    lam >= 0,

where lam maximizes the concave dual objective

    J(lam) = -sum_i log sum_k p_ik exp(-lam . phi_ik).

The partition function factorizes over instances because instances are
independent and the features add across instances, which is what makes the
per-instance reweighting above exact.

`solve` runs projected Adam ascent on J, clipping lam to the nonnegative
orthant after every step. Stochastic mode shuffles instances each epoch and
scales each mini-batch gradient by corpus_size / batch_size so it estimates
the full gradient; full-batch mode iterates to a per-coordinate
stationarity tolerance and is the verification-grade path.
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
from .corpus import Corpus
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

PLATEAU_WINDOW = 200
PLATEAU_SHRINK = 0.5


@dataclass
class SolverConfig:
    """Dual-ascent hyperparameters.

    The stochastic defaults are batch 39, 10 epochs, initial rate 0.1 with
    multiplicative decay 0.998 applied after every mini-batch. Full-batch
    mode treats the whole corpus as one batch per step, holds the rate
    constant between plateau-triggered halvings, and stops once every
    coordinate satisfies the stationarity test at ``convergence_tol`` (or
    at ``max_steps``).
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


def _adam_step(
    state: DualState, gradient: np.ndarray, lr_decay: float, restart_step: int = 0
) -> None:
    """One projected Adam step; bias correction counts from ``restart_step``."""
    state.step += 1
    t = state.step - restart_step
    state.first_moment = ADAM_BETA1 * state.first_moment + (1.0 - ADAM_BETA1) * gradient
    state.second_moment = ADAM_BETA2 * state.second_moment + (1.0 - ADAM_BETA2) * gradient**2
    m_hat = state.first_moment / (1.0 - ADAM_BETA1**t)
    v_hat = state.second_moment / (1.0 - ADAM_BETA2**t)
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


def solve(
    corpus: Corpus,
    posteriors: Sequence[InstancePosterior],
    cs: ConstraintSet,
    config: SolverConfig,
    initial_state: DualState | None = None,
) -> DualState:
    """Maximize the dual by projected Adam ascent from lam = 0.

    ``initial_state`` resumes from a saved state; ascent runs on a copy, so
    the state passed in is left as it was. Both modes take the same Adam
    step (`_adam_step`). Deterministic given (inputs, config). Stochastic
    mode reshuffles the instance order each epoch from ``config.seed``,
    decays the rate by ``lr_decay`` after every mini-batch, and runs
    exactly epochs * ceil(n / batch_size) steps.
    Full-batch mode ignores ``lr_decay`` in favor of a reduce-on-plateau
    schedule and stops at the stationarity tolerance or at
    ``config.max_steps``; a plateau halves the rate, zeroes the moments and
    restarts bias correction. If the constraint system is infeasible (for
    example an activity whose corpus candidates are all one gender with the
    training ratio bounded away from it), the dual is unbounded and
    full-batch mode returns the step-cap iterate.
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
        # Constant learning rate with reduce-on-plateau and moment restarts:
        # per-batch geometric decay can freeze the iterate in the flat tail
        # of the objective before it reaches the stationarity tolerance,
        # whereas restarting the moments re-normalizes Adam's step to the
        # current gradient scale.
        restart_step = 0
        best_norm = np.inf
        since_improved = 0
        for _ in range(config.max_steps):
            gradient = _expectation(fc, _reweighted(fc, state.lam))
            _check_finite(state, gradient)
            norm = _projected_gradient_norm(state.lam, gradient, config.convergence_tol)
            if norm <= config.convergence_tol:
                break
            if norm < 0.999 * best_norm:
                best_norm = norm
                since_improved = 0
            else:
                since_improved += 1
                if since_improved >= PLATEAU_WINDOW:
                    state.learning_rate *= PLATEAU_SHRINK
                    state.first_moment = np.zeros_like(state.first_moment)
                    state.second_moment = np.zeros_like(state.second_moment)
                    restart_step = state.step
                    best_norm = norm
                    since_improved = 0
                    if state.learning_rate < 1e-30:
                        break
            _adam_step(state, gradient, 1.0, restart_step)
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
    with open(path, "w", encoding="utf-8") as handle:
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
