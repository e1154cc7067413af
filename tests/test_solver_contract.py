"""The solver's contract: a full-batch solve returns a solution, never silently a non-solution.

A solution leaves every constrained activity with gendered mass G_j above
`MASS_FLOOR` and its male share M_j / G_j within gamma + `RATIO_SLACK` of
b*, under the calibrated posteriors. Random corpora fall in three classes,
told apart by a linear program (`lp_class`) over the feasible q on the
support of p that maximizes the smallest q_ik:

- interior: some feasible q is positive on the whole support (Slater's
  condition holds), so the dual optimum is attained and the solve meets
  the contract;
- boundary-only: every feasible q zeroes some row, the dual optimum is not
  attained, and lam drifts while an activity's G_j falls toward 0;
- infeasible: no q meets the constraints, and the dual is unbounded.

The solver cannot yet tell the last two classes apart from a solution, so
their seeds are strict xfails: a fix that makes one pass fails the run
until its mark is lifted.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import biascal as bc
from biascal.metrics import activity_mass
from conftest import random_constraints, random_corpus

GAMMA = 0.01
MASS_FLOOR = 1e-9
RATIO_SLACK = 1e-6
# an LP optimum at or below this smallest q_ik is the boundary of the simplex
INTERIOR_FLOOR = 1e-9
# interior seeds below 60 converge within 112 Newton steps; a capped run of
# another class still breaks the contract
SEED_STEPS = 150

BOUNDARY_ONLY = (1, 10, 14, 16, 18, 19, 21, 23, 27, 35, 37, 42, 46, 47, 48, 49, 53, 54, 55,
                 57, 59)
INFEASIBLE = (3, 6, 7, 8, 11, 12, 17, 24, 25, 29, 30, 31, 33, 36, 38, 41, 44, 50, 56)
# interior seeds past 60 that need 377, 366, 1265 and 1478 Newton steps, and so break the
# contract when capped at SEED_STEPS: a step cap alone cannot tell the classes apart
SLOW_INTERIOR = (266, 493, 509, 1003)


def seeded_case(seed):
    """The corpus and constraints (None when nothing is gendered) of one generator seed."""
    rng = np.random.default_rng(seed)
    corpus = random_corpus(rng, 3, max_instances=8)
    return corpus, random_constraints(rng, corpus, GAMMA)


def lp_class(corpus, p, cs):
    """The class of a case, "interior", "boundary-only" or "infeasible": maximize
    t <= q_ik over the rows with p_ik > 0, subject to each instance summing to one
    and the ratio bounds."""
    n = p.size
    bounds_rows = []
    for aid, b in zip(cs.activity_ids, cs.b_star):
        male = ((corpus.activity == aid) & corpus.male).astype(np.float64)
        gendered = ((corpus.activity == aid) & corpus.gendered).astype(np.float64)
        bounds_rows += [male - (b + cs.gamma) * gendered, (b - cs.gamma) * gendered - male]
    support = np.flatnonzero(p > 0.0)
    below = np.zeros((support.size, n))
    below[np.arange(support.size), support] = -1.0
    a_ub = np.column_stack([np.vstack([bounds_rows, below]),
                            np.r_[np.zeros(len(bounds_rows)), np.ones(support.size)]])
    a_eq = np.zeros((corpus.n_instances, n + 1))
    a_eq[corpus.segment_ids, np.arange(n)] = 1.0
    result = linprog(np.r_[np.zeros(n), -1.0], A_ub=a_ub, b_ub=np.zeros(len(a_ub)),
                     A_eq=a_eq, b_eq=np.ones(corpus.n_instances),
                     bounds=[(0.0, float(x > 0.0)) for x in p] + [(0.0, 1.0)], method="highs")
    if result.status == 2:
        return "infeasible"
    assert result.status == 0, result.message
    return "interior" if result.x[-1] > INTERIOR_FLOOR else "boundary-only"


def assert_contract(corpus, posteriors, cs, max_steps):
    """A full-batch solve leaves every constrained activity massed and within its bounds."""
    config = bc.SolverConfig(mode="full_batch", convergence_tol=1e-9, max_steps=max_steps)
    state = bc.solve(corpus, posteriors, cs, config)
    q = bc.calibrate(corpus, posteriors, cs, state.lam)
    male, gendered = (mass[list(cs.activity_ids)] for mass in activity_mass(corpus, q.probs))
    assert (gendered > MASS_FLOOR).all(), f"gendered mass {gendered} after {state.step} steps"
    deviation = np.abs(male / gendered - cs.b_star)
    assert (deviation <= cs.gamma + RATIO_SLACK).all(), (
        f"|ratio - b*| {deviation} past gamma {cs.gamma} after {state.step} steps")


def seed_cases():
    for seed in range(60):
        if seeded_case(seed)[1] is None:
            continue
        kind = ("boundary-only" if seed in BOUNDARY_ONLY
                else "infeasible" if seed in INFEASIBLE else "interior")
        marks = () if kind == "interior" else pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason=f"{kind}: full-batch returns a non-solution without saying so")
        yield pytest.param(seed, kind, marks=marks, id=f"{kind}-{seed}")


@pytest.mark.parametrize("seed, kind", seed_cases())
def test_a_full_batch_solve_meets_the_contract(seed, kind):
    corpus, cs = seeded_case(seed)
    posteriors = bc.instance_posterior(corpus)
    found = lp_class(corpus, posteriors.probs, cs)
    if found != kind:  # not an AssertionError, so a strict xfail cannot absorb it
        pytest.fail(f"seed {seed} is {found}, listed as {kind}")
    assert_contract(corpus, posteriors, cs, SEED_STEPS)


@pytest.mark.parametrize("seed", SLOW_INTERIOR, ids=lambda seed: f"slow-interior-{seed}")
def test_a_slow_interior_seed_meets_the_contract(seed):
    corpus, cs = seeded_case(seed)
    posteriors = bc.instance_posterior(corpus)
    assert lp_class(corpus, posteriors.probs, cs) == "interior"
    assert_contract(corpus, posteriors, cs, bc.SolverConfig().max_steps)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(seed=st.integers(min_value=60, max_value=2**32 - 1))
def test_every_interior_draw_meets_the_contract(seed):
    # interior draws have been seen to need up to about 1500 Newton steps, so
    # these run to the default step cap
    corpus, cs = seeded_case(seed)
    if cs is None:
        event("unconstrained")
        return
    posteriors = bc.instance_posterior(corpus)
    kind = lp_class(corpus, posteriors.probs, cs)
    event(kind)
    if kind == "interior":
        assert_contract(corpus, posteriors, cs, bc.SolverConfig().max_steps)
