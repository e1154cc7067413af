"""The flat column kernels must reproduce the per-instance loops bit for bit."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biascal as bc
import loop_reference as ref
from biascal import solver
from biascal.constraints import feature_types, type_features
from biascal.distribution import segment_sum
from biascal.metrics import activity_mass
from biascal.solver import (
    _hessian_diagonal,
    _log_partition,
    _pair_groups,
    _type_mass,
    featurize,
)
from conftest import feasible_single_activity_corpus, make_corpus, rows_of, take_instances

# Tied scores come from a small pool; 1 to 12 candidates straddle the length
# at which numpy switches to pairwise summation.
SCORES = st.one_of(st.sampled_from([0.0, 0.5, -1.25]), st.floats(-30.0, 30.0))


@st.composite
def corpora(draw):
    """Random corpus and stats: mixed candidate counts, ungendered rows, and
    activities missing from stats, with zero counts, or without gendered rows."""
    n_activities = draw(st.integers(1, 5))
    n_instances = draw(st.integers(1, 12))
    all_gold = draw(st.booleans())
    specs = []
    for i in range(n_instances):
        triples = draw(st.lists(
            st.tuples(st.integers(0, n_activities - 1), st.sampled_from("MW-"), SCORES),
            min_size=1, max_size=12,
        ))
        gold = draw(st.integers(0, len(triples) - 1)) if all_gold or draw(st.booleans()) else None
        specs.append((f"i{i}", triples, gold))
    corpus = make_corpus(specs, n_activities=n_activities)
    counts = {}
    for name in corpus.activities:
        kind = draw(st.sampled_from(["missing", "zero", "counts"]))
        if kind == "zero":
            counts[name] = bc.GenderCount(0, 0)
        elif kind == "counts":
            counts[name] = bc.GenderCount(draw(st.integers(0, 9)), draw(st.integers(1, 9)))
    return corpus, bc.TrainingStats(counts)


def random_constraint_set(data, corpus, gammas=st.floats(0.0, 0.1), min_size=0):
    ids = data.draw(st.lists(st.integers(0, corpus.n_activities - 1), unique=True,
                             min_size=min_size))
    b_star = [data.draw(st.floats(0.0, 1.0)) for _ in ids]
    return bc.ConstraintSet(tuple(sorted(ids)), np.array(b_star), data.draw(gammas))


def assert_rows_equal(table, corpus, posteriors):
    assert table.corpus is corpus
    assert table.corpus.n_instances == len(posteriors)
    for row, post in zip(rows_of(table), posteriors):
        assert np.array_equal(row, post)


PROPERTY = settings(deadline=None, max_examples=80, derandomize=True)


@PROPERTY
@given(case=corpora())
def test_posteriors_map_and_masses(case):
    corpus, _ = case
    table = bc.instance_posterior(corpus)
    expected = ref.posteriors(corpus)
    assert_rows_equal(table, corpus, expected)
    predictions = [ref.map_predict(p) for p in expected]
    assert bc.map_predict(table).tolist() == predictions
    male, gendered = activity_mass(corpus, table.probs)
    for aid in range(corpus.n_activities):
        assert (male[aid], gendered[aid]) == ref.activity_mass(expected, corpus, aid)


@PROPERTY
@given(case=corpora(), gamma_eval=st.sampled_from([0.0, 0.05, 0.2]))
def test_bias_report(case, gamma_eval):
    corpus, stats = case
    expected_posteriors = ref.posteriors(corpus)
    predictions = [ref.map_predict(p) for p in expected_posteriors]
    try:
        expected = ref.build_report(corpus, stats, expected_posteriors, predictions, gamma_eval)
    except bc.UndefinedBiasError:
        with pytest.raises(bc.UndefinedBiasError):
            bc.build_report(corpus, stats, bc.instance_posterior(corpus), predictions, gamma_eval)
        return
    table = bc.instance_posterior(corpus)
    assert bc.build_report(corpus, stats, table, bc.map_predict(table), gamma_eval) == expected
    # the top-prediction view is the same mass sum, weighted 1.0 at each MAP row
    indicator = np.zeros(corpus.n_rows)
    indicator[corpus.offsets[:-1] + np.array(predictions, dtype=np.int64)] = 1.0
    male, gendered = activity_mass(corpus, indicator)
    for aid in range(corpus.n_activities):
        assert (male[aid], gendered[aid]) == ref.top_counts(predictions, corpus, aid)


@PROPERTY
@given(case=corpora(), data=st.data())
def test_features_and_expectations(case, data):
    corpus, _ = case
    cs = random_constraint_set(data, corpus)
    posteriors = ref.posteriors(corpus)
    table = bc.instance_posterior(corpus)
    fc = featurize(corpus, table, cs)
    types = feature_types(corpus, cs)
    values, coords = type_features(cs)
    for i, (instance, post) in enumerate(zip(ref.candidates(corpus), posteriors)):
        single = take_instances(corpus, [i])
        one_table = bc.PosteriorTable(single, post)
        expected = ref.instance_expectation(instance, post, cs)
        assert np.array_equal(bc.corpus_expectation(single, one_table, cs), expected)
        # the featured candidates in order, then one plain row with the rest's mass
        rows = range(fc.offsets[i], fc.offsets[i + 1])
        featured, plain = [], 0.0
        for t, prob, cand in zip(types[corpus.offsets[i]:], post, instance):
            features = ref.feature_vector(cand, cs)
            assert (list(zip(coords[t].tolist(), values[t].tolist()))
                    if t < cs.dimension else []) == features
            if features:
                featured.append((features, prob))
            else:
                plain += prob
        assert len(rows) == len(featured) + 1
        with np.errstate(divide="ignore"):
            for row, (features, prob) in zip(rows, featured):
                t = fc.types[row]
                assert list(zip(fc.coords[t].tolist(), fc.values[t].tolist())) == features
                assert fc.log_p[row] == np.log(prob)
            assert fc.types[rows[-1]] == cs.dimension
            assert fc.log_p[rows[-1]] == np.log(plain)
    assert fc.values[cs.dimension].tolist() == [0.0, 0.0]
    expected = ref.corpus_expectation(corpus, posteriors, cs)
    assert np.array_equal(bc.corpus_expectation(corpus, table, cs), expected)


@PROPERTY
@given(case=corpora(), data=st.data())
def test_equivalence_check(case, data):
    """The one array check gives, entry for entry, the reference's one-activity
    checks bit for bit, and both refuse the same corpora with the same error."""
    corpus, _ = case
    cs = random_constraint_set(data, corpus, st.sampled_from([0.0, 0.001, 0.05]), min_size=1)
    posteriors = ref.posteriors(corpus)
    table = bc.instance_posterior(corpus)
    try:
        expected = [ref.check_equivalence(corpus, posteriors, cs, aid) for aid in cs.activity_ids]
    except bc.UndefinedBiasError as exc:
        with pytest.raises(bc.UndefinedBiasError, match=f"^{re.escape(str(exc))}$"):
            bc.check_equivalence(corpus, table, cs)
        return
    result = bc.check_equivalence(corpus, table, cs)
    for name, got in zip(bc.EquivalenceCheck._fields, result):
        want = np.array([getattr(entry, name) for entry in expected], dtype=got.dtype)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@PROPERTY
@given(case=corpora(), data=st.data())
def test_calibrated_posteriors(case, data):
    corpus, _ = case
    cs = random_constraint_set(data, corpus)
    lam = np.array([data.draw(st.sampled_from([0.0, 0.3, 2.5])) for _ in range(cs.dimension)])
    posteriors = ref.posteriors(corpus)
    expected = ref.calibrate(corpus, posteriors, cs, lam)

    # the reference keeps an untouched instance's posterior, so its rows must
    # come back bit for bit
    table = bc.instance_posterior(corpus)
    calibrated = bc.calibrate(corpus, table, cs, lam)
    assert isinstance(calibrated, bc.PosteriorTable)
    assert_rows_equal(calibrated, corpus, expected)


@PROPERTY
@given(case=corpora(), data=st.data())
def test_hessian_diagonal_is_the_diagonal_of_the_covariance(case, data):
    corpus, _ = case
    cs = random_constraint_set(data, corpus)
    if cs.dimension == 0:
        return
    lam = np.array([data.draw(st.sampled_from([0.0, 0.3, 2.5])) for _ in range(cs.dimension)])
    posteriors = ref.posteriors(corpus)
    expected = ref.dual_hessian(corpus, posteriors, cs, lam)

    fc = featurize(corpus, bc.instance_posterior(corpus), cs)
    _, _, probs = _log_partition(fc, lam)
    mass = _type_mass(fc.types, probs, fc.dim)
    curvature, _ = _hessian_diagonal(fc, probs, mass, *_pair_groups(fc))
    np.testing.assert_allclose(curvature, np.diag(expected), rtol=1e-9, atol=1e-12)


@st.composite
def solver_cases(draw):
    """Corpus, constraints and dual vector for the naive dual reference.

    The first four instances have one shape each, the rest a drawn one:
    gendered candidates only (no plain mass), ungendered only, gendered
    candidates of at least three activities, and mixed. A candidate may
    score 800 below the others, which leaves it probability 0. Ratios,
    margin, scores and lam come from a seeded generator, so that no
    gradient coordinate cancels to zero and flips an Adam step's sign.
    """
    n_activities = draw(st.integers(3, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = ["gendered", "ungendered", "spanning", "mixed"]
    shapes += draw(st.lists(st.sampled_from(shapes), max_size=6))
    specs = []
    for i, shape in enumerate(shapes):
        if shape == "spanning":
            activities = rng.permutation(n_activities)[:3].tolist()
            activities += rng.integers(n_activities, size=rng.integers(0, 3)).tolist()
        else:
            activities = rng.integers(n_activities, size=rng.integers(1, 7)).tolist()
        genders = {"gendered": "MW", "ungendered": "-", "spanning": "MW", "mixed": "MW-"}[shape]
        specs.append((f"i{i}", [
            (a, genders[rng.integers(len(genders))],
             rng.normal(0.0, 2.0) - 800.0 * (rng.random() < 0.2))
            for a in activities
        ]))
    corpus = make_corpus(specs, n_activities=n_activities)
    ids = tuple(range(n_activities)) if draw(st.booleans()) else tuple(range(1, n_activities))
    cs = bc.ConstraintSet(ids, rng.uniform(0.1, 0.9, len(ids)), float(rng.uniform(0.001, 0.05)))
    lam = rng.uniform(0.0, 3.0, cs.dimension) * (rng.random(cs.dimension) < 0.7)
    return corpus, cs, lam


@settings(deadline=None, max_examples=40, derandomize=True)
@given(case=solver_cases(), batch_size=st.integers(1, 4), epochs=st.integers(2, 3))
def test_dual_and_stochastic_solve_match_the_naive_reference(case, batch_size, epochs):
    corpus, cs, lam = case
    posteriors = bc.instance_posterior(corpus)
    rows = rows_of(posteriors)
    close = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(bc.dual_objective(lam, corpus, posteriors, cs),
                               ref.naive_dual_objective(corpus, rows, cs, lam), **close)
    np.testing.assert_allclose(bc.dual_gradient(lam, corpus, posteriors, cs),
                               ref.naive_dual_gradient(corpus, rows, cs, lam), **close)
    config = bc.SolverConfig(batch_size=batch_size, epochs=epochs, seed=5)
    state = bc.solve(corpus, posteriors, cs, config)
    np.testing.assert_allclose(
        state.lam, ref.naive_stochastic_solve(corpus, rows, cs, config), **close)


def test_stochastic_solve_matches_per_batch_gather():
    rng = np.random.default_rng(7)
    corpus, _ = feasible_single_activity_corpus(rng, gamma=0.01, max_instances=5)
    wide = make_corpus(
        [(f"w{i}", [(a % 3, "MW-"[(a + i) % 3], float(rng.normal())) for a in range(1 + i % 11)])
         for i in range(97)],
        n_activities=3,
    )
    cases = [
        (corpus, bc.ConstraintSet((0,), np.array([0.3]), 0.01), 2),
        (wide, bc.ConstraintSet((0, 1, 2), np.array([0.2, 0.5, 0.8]), 0.001), 39),
        # one instance per step, and one batch per epoch
        (wide, bc.ConstraintSet((0, 1, 2), np.array([0.2, 0.5, 0.8]), 0.001), 1),
        (wide, bc.ConstraintSet((0, 1, 2), np.array([0.2, 0.5, 0.8]), 0.001), 500),
    ]
    for corpus, cs, batch_size in cases:
        posteriors = bc.instance_posterior(corpus)
        config = bc.SolverConfig(mode="stochastic", batch_size=batch_size, epochs=4, seed=3)
        state = bc.solve(corpus, posteriors, cs, config)
        expected = ref.stochastic_solve(corpus, posteriors, cs, config)
        assert state.step == expected.step
        assert np.array_equal(state.lam, expected.lam)
        assert np.array_equal(state.first_moment, expected.first_moment)


def projected_gradient_norm(lam, gradient, tol):
    return float(np.where(lam <= tol, np.maximum(gradient, 0.0), np.abs(gradient)).max())


def full_batch_cases():
    """Feasible single-activity corpora at both margins, a synthetic corpus
    whose ungendered fillers sit on other activities, and a corpus whose
    instances hold gendered candidates of three activities (the case the
    solver's per-activity Hessian blocks leave cross terms out of)."""
    rng = np.random.default_rng(5)
    for k in range(8):
        yield feasible_single_activity_corpus(rng, gamma=[0.001, 0.05][k % 2])
    corpus, stats = bc.generate(bc.SynthConfig(
        n_activities=6, instances_per_activity=20, candidates_per_instance=5,
        amplification_boost=1.0, seed=11))
    yield corpus, bc.ConstraintSet.from_stats(corpus, stats, 0.001)
    mixed = make_corpus(
        [(f"w{i}", [(a % 3, "MW-"[(a + i) % 3], float(rng.normal())) for a in range(1 + i % 11)])
         for i in range(60)],
        n_activities=3,
    )
    yield mixed, bc.ConstraintSet((0, 1, 2), np.array([0.2, 0.5, 0.8]), 0.01)


def test_full_batch_newton_reaches_the_adam_reference_optimum():
    for corpus, cs in full_batch_cases():
        posteriors = bc.instance_posterior(corpus)
        config = bc.SolverConfig(mode="full_batch")
        tol = config.convergence_tol
        state = bc.solve(corpus, posteriors, cs, config)
        gradient = bc.dual_gradient(state.lam, corpus, posteriors, cs)
        assert projected_gradient_norm(state.lam, gradient, tol) <= tol

        expected = ref.full_batch_solve(corpus, posteriors, cs, config)
        j = bc.dual_objective(state.lam, corpus, posteriors, cs)
        j_ref = bc.dual_objective(expected.lam, corpus, posteriors, cs)
        assert j >= j_ref - 1e-12 * max(1.0, abs(j))

        ref_gradient = bc.dual_gradient(expected.lam, corpus, posteriors, cs)
        if projected_gradient_norm(expected.lam, ref_gradient, tol) <= tol:
            got = bc.calibrate(corpus, posteriors, cs, state.lam)
            want = bc.calibrate(corpus, posteriors, cs, expected.lam)
            tv = 0.5 * segment_sum(np.abs(got.probs - want.probs), corpus.offsets)
            assert tv.max() <= 1e-6


def test_full_batch_newton_step_count_on_the_wide_benchmark_shape(monkeypatch):
    corpus, stats = bc.generate(bc.SynthConfig(
        n_activities=200, instances_per_activity=15, candidates_per_instance=8,
        amplification_boost=1.0, seed=93))
    posteriors = bc.instance_posterior(corpus)
    cs = bc.ConstraintSet.from_stats(corpus, stats, 0.001)
    config = bc.SolverConfig(mode="full_batch")
    gains = []
    gain = solver._objective_gain
    monkeypatch.setattr(solver, "_objective_gain", lambda *args: gains.append(1) or gain(*args))
    state = bc.solve(corpus, posteriors, cs, config)
    gradient = bc.dual_gradient(state.lam, corpus, posteriors, cs)
    assert projected_gradient_norm(state.lam, gradient, config.convergence_tol) <= (
        config.convergence_tol
    )
    # a step that overshoots into J's flat tail costs several line-search
    # evaluations; a diagonal step on one side of each pair does not
    assert state.step <= 8 and len(gains) <= 10
