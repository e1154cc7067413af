"""Metamorphic tests of the KL projection (T. Y. Chen, S. C. Cheung and S. M.
Yiu, "Metamorphic testing: a new approach for generating next test cases",
1998).

No test here knows the right dual vector or calibrated posterior of a corpus.
Each one transforms a generated corpus in a way whose effect on the
projection is known, solves both, and compares. The constraints are ratios
of summed masses, so duplicating, reordering or padding the corpus leaves the
projection where it was; renaming the activities changes no number at all;
a wider margin only brings q closer to p; and at a margin of 1, which
every ratio meets, even the stochastic protocol returns p. The corpora come from
`bc.generate`, where every instance holds a male and a female candidate of
its activity, so every margin is reachable and the dual has a maximum.
"""

import io
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import biascal as bc
import loop_reference as ref
from conftest import make_corpus, rows_of, take_instances

METAMORPHIC = settings(deadline=None, max_examples=25, derandomize=True)
FULL_BATCH = bc.SolverConfig(mode="full_batch")
STOCHASTIC = bc.SolverConfig(batch_size=4, epochs=2)
TOLERANCE = 1e-12


@st.composite
def generated(draw):
    """A small generated (corpus, stats) pair and a solver margin.

    With one to five instances per activity a training ratio b* can round
    to 0 or 1, where every male share is clipped to 1e-9 or 1 - 1e-9; the
    full-batch solve beside such an activity has its own test in
    test_solver.py.
    """
    config = bc.SynthConfig(
        n_activities=draw(st.integers(1, 4)),
        instances_per_activity=draw(st.integers(1, 10)),
        candidates_per_instance=draw(st.integers(2, 5)),
        amplification_boost=draw(st.sampled_from([0.0, 0.5, 1.5])),
        seed=draw(st.integers(0, 2**16)),
    )
    corpus, stats = bc.generate(config)
    return corpus, stats, draw(st.sampled_from([0.001, 0.01, 0.05]))


def reloaded(corpus):
    """``corpus`` as a file would give it back: activity ids in order of
    first appearance."""
    buffer = io.StringIO()
    bc.dump_corpus(corpus, buffer)
    buffer.seek(0)
    return bc.load_corpus(buffer)


def project(corpus, stats, gamma, config=FULL_BATCH):
    """(lam by activity name, calibrated table, final state) of one solve."""
    posteriors = bc.instance_posterior(corpus)
    cs = bc.ConstraintSet.from_stats(corpus, stats, gamma)
    state = bc.solve(corpus, posteriors, cs, config)
    names = [corpus.activities[aid] for aid in cs.activity_ids]
    lam = {name: state.lam[2 * j: 2 * j + 2] for j, name in enumerate(names)}
    return lam, bc.calibrate(corpus, posteriors, cs, state.lam), state


def assert_lam_close(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert np.max(np.abs(got[name] - want[name])) <= TOLERANCE, name


def assert_rows_close(got, want, ids):
    """The rows of the instances ``ids`` agree between two tables."""
    got_rows = dict(zip(got.corpus.ids, rows_of(got)))
    want_rows = dict(zip(want.corpus.ids, rows_of(want)))
    for inst_id in ids:
        assert np.max(np.abs(got_rows[inst_id] - want_rows[inst_id])) <= TOLERANCE, inst_id


# Full-batch mode stops once the projected gradient, a sum over instances,
# is within `convergence_tol`, so a doubled corpus, whose gradient is twice as
# large, can take one more Newton step than the corpus itself. On this corpus
# the corpus stops at a gradient of -7.7e-9, the doubled one goes on, and lam
# moves by 1.2e-8. It is the corpus that `bc.generate(bc.SynthConfig(1, 3, 2,
# seed=1))` gave while the generator drew one instance at a time; it is kept
# as text so that the example does not follow the generator's random stream.
STOPS_ONE_STEP_EARLY_CORPUS = """\
{"id": "activity_000_0000", "gold": 0, "candidates": [{"activity": "activity_000", "gender": "M", "score": -0.34525993439522856}, {"activity": "activity_000", "gender": "W", "score": -1.231125753484623}]}
{"id": "activity_000_0001", "gold": 0, "candidates": [{"activity": "activity_000", "gender": "M", "score": -0.4010849725381448}, {"activity": "activity_000", "gender": "W", "score": -1.1074305401828517}]}
{"id": "activity_000_0002", "gold": 0, "candidates": [{"activity": "activity_000", "gender": "M", "score": -0.42909344252481657}, {"activity": "activity_000", "gender": "W", "score": -1.0529673111193094}]}
"""
STOPS_ONE_STEP_EARLY = (
    bc.load_corpus(io.StringIO(STOPS_ONE_STEP_EARLY_CORPUS)),
    bc.load_training_stats(io.StringIO('{"activity_000": {"male": 2, "female": 1}}')),
    0.001,
)


@METAMORPHIC
@given(case=generated())
@example(case=STOPS_ONE_STEP_EARLY)
def test_duplicating_every_instance_moves_nothing(case):
    corpus, stats, gamma = case
    n = len(corpus)
    doubled = take_instances(corpus, [*range(n), *range(n)],
                             ids=corpus.ids + tuple(f"{inst_id}/copy" for inst_id in corpus.ids))
    lam, q, _ = project(corpus, stats, gamma)
    lam2, q2, _ = project(doubled, stats, gamma)
    assert_lam_close(lam2, lam)
    assert_rows_close(q2, q, corpus.ids)
    copied = {f"{inst_id}/copy": row for inst_id, row in zip(q.corpus.ids, rows_of(q))}
    for inst_id, row in zip(q2.corpus.ids, rows_of(q2)):
        if inst_id in copied:
            assert np.max(np.abs(row - copied[inst_id])) <= TOLERANCE


@METAMORPHIC
@given(case=generated(), seed=st.integers(0, 2**16))
def test_permuting_instances_moves_nothing(case, seed):
    corpus, stats, gamma = case
    order = np.random.default_rng(seed).permutation(len(corpus))
    permuted = reloaded(take_instances(corpus, order))
    lam, q, _ = project(corpus, stats, gamma)
    lam2, q2, _ = project(permuted, stats, gamma)
    assert_lam_close(lam2, lam)
    assert_rows_close(q2, q, corpus.ids)


@METAMORPHIC
@given(case=generated(), pads=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_padding_without_constrained_candidates_moves_nothing(case, pads, seed):
    # a pad holds ungendered candidates, and gendered ones of an activity
    # without training labels, so it carries no constraint feature
    corpus, stats, gamma = case
    rng = np.random.default_rng(seed)
    unlabelled = corpus.n_activities
    padding = []
    for k in range(pads):
        triples = [(int(rng.integers(unlabelled)), "-", float(rng.normal()))]
        triples += [(unlabelled, g, float(rng.normal())) for g in "MW"[: int(rng.integers(3))]]
        padding.append((f"pad_{k}", triples))
    at = sorted(rng.integers(0, len(corpus) + 1, pads))
    specs = list(zip(corpus.ids, ref.candidates(corpus), corpus.gold.tolist()))
    for offset, (position, pad) in enumerate(zip(at, padding)):
        specs.insert(position + offset, pad)
    padded = make_corpus(specs, names=[*corpus.activities, "unlabelled"])
    lam, q, _ = project(corpus, stats, gamma)
    lam2, q2, _ = project(reloaded(padded), stats, gamma)
    assert_lam_close(lam2, lam)
    assert_rows_close(q2, q, corpus.ids)


@METAMORPHIC
@given(case=generated(), stochastic=st.booleans(), salt=st.integers(0, 2**16))
def test_renaming_activities_changes_no_number(case, stochastic, salt):
    # new names in another alphabetical order, the same order of first appearance
    corpus, stats, gamma = case
    new = {name: f"{(salt * (aid + 1)) % 997:03d}-{aid}"
           for aid, name in enumerate(corpus.activities)}
    renamed = replace(corpus, activities=tuple(new.values()))
    renamed_stats = bc.TrainingStats({new[name]: count for name, count in stats.counts.items()})
    config = STOCHASTIC if stochastic else FULL_BATCH
    lam, q, state = project(corpus, stats, gamma, config)
    lam2, q2, state2 = project(renamed, renamed_stats, gamma, config)
    assert {new[name]: value.tolist() for name, value in lam.items()} == {
        name: value.tolist() for name, value in lam2.items()}
    assert np.array_equal(q2.probs, q.probs) and q2.corpus.ids == q.corpus.ids
    assert state2.step == state.step and state2.learning_rate == state.learning_rate
    assert np.array_equal(state2.first_moment, state.first_moment)
    assert np.array_equal(state2.second_moment, state.second_moment)


@METAMORPHIC
@given(case=generated())
def test_a_wider_margin_never_moves_q_further(case):
    corpus, stats, _ = case
    posteriors = bc.instance_posterior(corpus)
    divergences = [bc.kl_divergence(project(corpus, stats, gamma)[1], posteriors)
                   for gamma in (0.001, 0.01, 0.05, 0.1, 0.2, 0.5)]
    assert all(wider <= narrower for narrower, wider in zip(divergences, divergences[1:])), (
        divergences)


@METAMORPHIC
@given(case=generated())
def test_a_margin_of_one_leaves_p_as_it_is_in_stochastic_mode(case):
    # at gamma = 1 every ratio band covers [0, 1], so every feature value, and
    # with it every gradient coordinate, is <= 0: projected Adam keeps lam at 0
    corpus, stats, _ = case
    lam, q, _ = project(corpus, stats, 1.0, STOCHASTIC)
    assert not any(value.any() for value in lam.values())
    assert np.array_equal(q.probs, bc.instance_posterior(corpus).probs)
