"""Full-batch calibration against an independent primal oracle.

The oracle minimizes sum_i KL(q_i || p_i) directly with SLSQP over the
calibrated probabilities themselves, subject to each instance summing to
one and each constrained activity's ratio bounds written as male/gendered
mass inequalities:

    (b* - gamma) * gendered_j  <=  male_j  <=  (b* + gamma) * gendered_j.

It reads only the corpus arrays and the base posteriors, so it shares
nothing with the dual, the constraint features or `brute_force_project`.
The problem is convex in q, and KL's gradient log(q / p) + 1 falls without
bound as a probability nears 0. Over softmax logits instead, SLSQP stalled
on about 3% of such corpora with one probability driven to 1e-10, where
its logit's gradient vanishes.

Every corpus below is feasible by construction: an instance that holds a
gendered candidate of an activity holds both genders of it, so each
activity's ratio can be moved anywhere in (0, 1) independently.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

import biascal as bc
from biascal.distribution import segment_sum
from conftest import make_corpus

MALE = 1
# SLSQP's exits at a solution: converged, or no further descent at working
# precision ("positive directional derivative for linesearch")
SOLVED = (0, 8)


def primal_project(corpus, p, ids, b_star, gamma):
    """arg min sum_i KL(q_i || p_i) over the ratio bounds, as flat probabilities."""
    # one row a per inequality a . q >= 0: the upper bound, then the lower
    rows = []
    for aid, b in zip(ids, b_star):
        male = (corpus.activity == aid) & (corpus.gender == MALE)
        gendered = (corpus.activity == aid) & (corpus.gender != 0)
        rows.append((b + gamma) * gendered - male)
        rows.append(male - (b - gamma) * gendered)
    bounds = np.array(rows, dtype=np.float64)
    instance = np.zeros((corpus.n_instances, p.size))
    instance[corpus.segment_ids, np.arange(p.size)] = 1.0

    result = minimize(
        lambda q: float(q @ np.log(q / p)),
        p,
        jac=lambda q: np.log(q / p) + 1.0,
        bounds=[(1e-300, 1.0)] * p.size,
        constraints=[
            {"type": "ineq", "fun": lambda q: bounds @ q, "jac": lambda q: bounds},
            {"type": "eq", "fun": lambda q: instance @ q - 1.0, "jac": lambda q: instance},
        ],
        method="SLSQP",
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    assert result.status in SOLVED, result.message
    return result.x


def oracle_cases():
    """Twenty-one seeded feasible corpora in three families of seven: no
    ungendered candidate, every instance spanning three or more activities,
    and four or five activities with ungendered candidates mixed in."""
    for family in ("no_ungendered", "spanning", "many_activities"):
        for seed in range(7):
            rng = np.random.default_rng([seed, len(family)])
            n_activities = 3 if family != "many_activities" else int(rng.integers(4, 6))
            specs = []
            for i in range(int(rng.integers(6, 11))):
                if family == "spanning":
                    activities = rng.permutation(n_activities)[: int(rng.integers(3, n_activities + 1))]
                else:
                    activities = rng.permutation(n_activities)[: int(rng.integers(1, 3))]
                triples = [(int(aid), g, float(rng.normal(0.0, 1.5)))
                           for aid in activities for g in "MW"]
                if family != "no_ungendered":
                    triples += [(int(rng.integers(n_activities)), "-", float(rng.normal(0.0, 1.5)))
                                for _ in range(int(rng.integers(0, 3)))]
                specs.append((f"i{i}", triples))
            corpus = make_corpus(specs, n_activities=n_activities)
            ids = tuple(sorted({a for _, triples in specs for a, g, _ in triples if g != "-"}))
            gamma = [0.001, 0.01, 0.05][seed % 3]
            yield pytest.param(corpus, bc.ConstraintSet(ids, rng.uniform(0.1, 0.9, len(ids)),
                                                        gamma), id=f"{family}-{seed}")


@pytest.mark.parametrize("corpus, cs", oracle_cases())
def test_full_batch_matches_the_primal_oracle(corpus, cs):
    posteriors = bc.instance_posterior(corpus)
    state = bc.solve(corpus, posteriors, cs, bc.SolverConfig(mode="full_batch"))
    got = bc.calibrate(corpus, posteriors, cs, state.lam).probs
    want = primal_project(corpus, posteriors.probs, cs.activity_ids, cs.b_star, cs.gamma)
    tv = 0.5 * segment_sum(np.abs(got - want), corpus.offsets)
    assert tv.max() <= 1e-6
