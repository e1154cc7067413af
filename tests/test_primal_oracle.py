"""Full-batch calibration against the independent primal oracle.

`conftest.primal_project` minimizes sum_i KL(q_i || p_i) directly with
SLSQP over the calibrated probabilities, subject to each instance summing
to one and each constrained activity's ratio bounds. It reads only the
corpus arrays and the base posteriors, so it shares nothing with the dual
or the constraint features.

Every corpus below is feasible by construction: an instance that holds a
gendered candidate of an activity holds both genders of it, so each
activity's ratio can be moved anywhere in (0, 1) independently.
"""

import numpy as np
import pytest

import biascal as bc
from biascal.distribution import segment_sum
from conftest import make_corpus, primal_project


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
