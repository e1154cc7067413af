"""How ratio bounds become expectation constraints.

Every constrained activity owns two feature coordinates whose expected
values under a posterior are negative exactly when the corpus-level male
ratio sits inside [b* - gamma, b* + gamma]. This script prints the feature
case table for one activity and then sweeps a posterior across the
boundary to show the expectation changing sign with the ratio residual.
"""

import numpy as np

import biascal as bc

B_STAR = 0.3
GAMMA = 0.05

cs = bc.ConstraintSet((0,), np.array([B_STAR]), GAMMA)

# a candidate's features are the expectation of a point mass on it: here the
# posterior of a corpus whose one instance has that one candidate. A corpus
# is built from its columns: vocabulary, ids, offsets, then per row the
# activity id, gender code (0 ungendered, 1 male, 2 female) and score, and
# per instance the gold index (-1 for none)
print(f"feature values for b* = {B_STAR}, gamma = {GAMMA}:")
for name, code in (("male", 1), ("female", 2), ("ungendered", 0)):
    single = bc.Corpus(("cooking",), ("c",), [0, 1], [0], [code], [0.0], [-1])
    features = bc.corpus_expectation(single, bc.instance_posterior(single), cs)
    nonzero = [(int(k), float(features[k])) for k in np.flatnonzero(features)]
    print(f"  {name:10s} -> {nonzero}")

# one instance with a male/female candidate pair; the posterior male share
# sweeps from well below the lower bound to well above the upper bound. A
# posterior table is a corpus and one probability per row of it
corpus = bc.Corpus(("cooking",), ("i0",), [0, 2], [0, 0], [1, 2], [0.0, 0.0], [-1])

print(f"\n{'male share':>10s} {'E[upper]':>10s} {'E[lower]':>10s} {'in bounds':>10s}")
for male_share in (0.10, 0.25, B_STAR - GAMMA, 0.30, B_STAR + GAMMA, 0.40, 0.60):
    posterior = bc.PosteriorTable(corpus, [male_share, 1.0 - male_share])
    expectation = bc.corpus_expectation(corpus, posterior, cs)
    result = bc.check_equivalence(corpus, posterior, cs)
    inside = expectation[0] <= 1e-12 and expectation[1] <= 1e-12
    print(
        f"{male_share:10.3f} {expectation[0]:10.4f} {expectation[1]:10.4f} {str(inside):>10s}"
    )
    assert result.minus_ok.all() and result.plus_ok.all()

print("\nboth expectations <= 0 exactly on [b* - gamma, b* + gamma] =",
      f"[{B_STAR - GAMMA:.2f}, {B_STAR + GAMMA:.2f}]")
