"""Grid-search oracle for the KL projection.

`brute_force_project` searches the lam grid directly and serves as an
independent oracle on problems small enough to afford it. It shares the
solver's compressed corpus and partition function, never its Newton ascent,
which it is checked against. Only the ``oracle`` subcommand loads it.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import _EXPORTS
from .constraints import ConstraintSet
from .corpus import Corpus, as_number
from .distribution import PosteriorTable
from .errors import OracleSizeError, ValidationError
from .solver import FeaturizedCorpus, _log_partition, calibrate, featurize

__all__ = list(_EXPORTS["oracle"])

MAX_ORACLE_DIMENSION = 4
MAX_ORACLE_CANDIDATES = 64
# Each grid holds several float64 arrays of this many points by the featurized rows.
MAX_ORACLE_GRID_POINTS = 2**16
ORACLE_LAM_MAX = 50.0
ORACLE_REFINE_PASSES = 18


def _evaluate_grid(
    fc: FeaturizedCorpus, cs: ConstraintSet, lam_grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """KL, dual objective, and feasibility of every grid point at once.

    Feasibility reads each activity's male mass off its male type 2j and its
    gendered mass off types 2j and 2j+1.
    """
    penalties, log_z, probs = _log_partition(fc, lam_grid)
    objective = -log_z.sum(axis=1)
    kl = (probs * (-penalties - log_z[:, fc.seg_ids])).sum(axis=1)
    mass = probs @ (fc.types[:, None] == np.arange(fc.dim))
    male, gendered = mass[:, 0::2], mass[:, 0::2] + mass[:, 1::2]
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = male / gendered
    feasible = (gendered > 0.0) & (np.abs(ratio - cs.b_star) <= cs.gamma + 1e-12)
    return kl, objective, feasible.all(axis=1)


def brute_force_project(
    corpus: Corpus,
    posteriors: PosteriorTable,
    cs: ConstraintSet,
    resolution: int = 11,
) -> tuple[PosteriorTable, np.ndarray]:
    """Independent oracle: grid-search the dual vector for the KL projection.

    Scans lam over [0, ORACLE_LAM_MAX]^dim at ``resolution`` points per
    axis and keeps the feasible point of minimum KL(q_lam || p) seen anywhere.
    Refinement re-centers each pass on the grid argmax of the dual
    objective, which is concave in lam and therefore free of spurious local
    basins (the feasible set itself is a thin shell that a KL-guided search
    can get stuck on). Returns (posteriors, lam), the posteriors as the
    `PosteriorTable` that `calibrate` returns. Refuses problems with
    more than two constrained activities or more than 64 total candidates,
    and a ``resolution`` whose grid, ``resolution**dim`` points, exceeds
    `MAX_ORACLE_GRID_POINTS`.
    If no grid point is ever feasible (infeasible constraint system), falls
    back to the dual-argmax point.
    """
    if cs.dimension > MAX_ORACLE_DIMENSION:
        raise OracleSizeError(
            f"brute force supports at most {MAX_ORACLE_DIMENSION // 2} constrained "
            f"activities, got {len(cs.activity_ids)}"
        )
    if corpus.n_rows > MAX_ORACLE_CANDIDATES:
        raise OracleSizeError(
            f"brute force supports at most {MAX_ORACLE_CANDIDATES} candidates, "
            f"got {corpus.n_rows}"
        )
    resolution = as_number("resolution", resolution, int)
    if resolution < 3:
        raise ValidationError("grid resolution must be at least 3")
    dim = cs.dimension
    if resolution**dim > MAX_ORACLE_GRID_POINTS:
        raise OracleSizeError(
            f"brute force supports grids of at most {MAX_ORACLE_GRID_POINTS} points, "
            f"got resolution {resolution} in dimension {dim}"
        )
    if dim == 0 or corpus.n_instances == 0:
        return calibrate(corpus, posteriors, cs, np.zeros(dim)), np.zeros(dim)
    fc = featurize(corpus, posteriors, cs)

    lo = np.zeros(dim)
    hi = np.full(dim, ORACLE_LAM_MAX)
    best_lam = np.zeros(dim)
    best_kl = np.inf
    found_feasible = False
    dual_best_lam = np.zeros(dim)
    dual_best_objective = -np.inf

    shrinks = 0
    total_passes = 0
    while shrinks < ORACLE_REFINE_PASSES and total_passes < 4 * ORACLE_REFINE_PASSES:
        total_passes += 1
        axes = [np.linspace(lo[d], hi[d], resolution) for d in range(dim)]
        lam_grid = np.array(list(itertools.product(*axes)))
        kl, objective, feasible = _evaluate_grid(fc, cs, lam_grid)
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
