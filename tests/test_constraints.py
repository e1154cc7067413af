"""Constraint feature values, expectations, and the ratio equivalence."""

import copy
import pickle
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import biascal as bc
import loop_reference as ref
from biascal import solver
from biascal.constraints import feature_types, type_features
from biascal.corpus import GENDER_TAGS
from biascal.solver import featurize
from conftest import (
    HUGE_INTS,
    HUGE_SHOWN,
    make_corpus,
    posteriors_of,
    random_constraints,
    random_corpus,
    take_instances,
)


def single_constraint(b_star, gamma, activity_id=0):
    return bc.ConstraintSet((activity_id,), np.array([b_star]), gamma)


class TestConstraintSet:
    def test_dimension_and_layout(self):
        cs = bc.ConstraintSet((2, 5), np.array([0.3, 0.6]), 0.001)
        assert cs.dimension == 4
        assert cs.activity_ids.index(2) == 0
        assert cs.activity_ids.index(5) == 1
        assert 4 not in cs.activity_ids

    def test_requires_increasing_ids(self):
        with pytest.raises(bc.ValidationError):
            bc.ConstraintSet((5, 2), np.array([0.3, 0.6]), 0.001)

    @pytest.mark.parametrize("ids", [(2, 2), (-1, 2), [[2, 5]], 2])
    def test_requires_a_sequence_of_distinct_nonnegative_ids(self, ids):
        with pytest.raises(bc.ValidationError, match="^activity_ids must be a strictly increasing"):
            bc.ConstraintSet(ids, np.array([0.3, 0.6]), 0.001)

    def test_requires_valid_b_star(self):
        with pytest.raises(bc.ValidationError):
            bc.ConstraintSet((0,), np.array([1.2]), 0.001)
        with pytest.raises(bc.ValidationError, match=r"^b_star has shape \(2,\), expected \(1,\)$"):
            bc.ConstraintSet((0,), np.array([0.5, 0.5]), 0.001)

    def test_refuses_a_nan_b_star(self):
        with pytest.raises(bc.ValidationError, match=r"^b_star entries must lie in \[0, 1\]$"):
            bc.ConstraintSet((0, 1), np.array([0.5, np.nan]), 0.001)

    @pytest.mark.parametrize("ids", [(0.7,), (True,), ("1",), (0, 1.0)])
    def test_refuses_activity_ids_that_are_not_integers(self, ids):
        with pytest.raises(bc.ValidationError, match="^activity_ids must be integer indices"):
            bc.ConstraintSet(ids, np.full(len(ids), 0.5), 0.001)

    def test_takes_numpy_integer_ids_as_ints(self):
        cs = bc.ConstraintSet(np.array([1, 3], dtype=np.int32), np.array([0.3, 0.6]), 0.001)
        assert cs.activity_ids == (1, 3)
        assert all(type(aid) is int for aid in cs.activity_ids)

    def test_sets_compare_by_value(self):
        cs = bc.ConstraintSet((0, 1), np.array([0.3, 0.6]), 0.01)
        assert cs == bc.ConstraintSet([0, 1], [0.3, 0.6], 0.01)
        assert cs != bc.ConstraintSet((0, 1), np.array([0.3, 0.7]), 0.01)
        assert cs != bc.ConstraintSet((0, 2), np.array([0.3, 0.6]), 0.01)
        assert cs != bc.ConstraintSet((0, 1), np.array([0.3, 0.6]), 0.02)
        assert cs != ((0, 1), (0.3, 0.6), 0.01)

    def test_b_star_is_copied(self):
        b = np.array([0.3, 0.4, 0.5])
        cs = bc.ConstraintSet((0, 1, 2), b, 0.001)
        assert cs.b_star is not b and b.flags.writeable and not cs.b_star.flags.writeable
        b[0] = 7.0
        assert cs.b_star.tolist() == [0.3, 0.4, 0.5]

    def test_copies_are_built_and_read_only(self):
        cs = bc.ConstraintSet((0, 2), np.array([0.3, 0.6]), 0.01)
        for again in (pickle.loads(pickle.dumps(cs)), copy.deepcopy(cs)):
            assert again is not cs and again == cs
            # the copy is built and checked again, so its b* is read-only too
            assert not again.b_star.flags.writeable

    def test_rejects_negative_gamma(self):
        with pytest.raises(bc.ValidationError):
            bc.ConstraintSet((0,), np.array([0.5]), -0.01)

    def test_zero_gamma_allowed(self):
        assert bc.ConstraintSet((0,), np.array([0.5]), 0.0).gamma == 0.0

    @pytest.mark.parametrize("gamma", [0.05, np.float64(0.05), np.float32(0.05), 0, np.int64(0)])
    def test_gamma_is_stored_as_a_python_float(self, gamma):
        cs = bc.ConstraintSet((0,), [0.5], gamma)
        assert type(cs.gamma) is float and cs.gamma == float(gamma)

    def test_equal_sets_hash_equal(self):
        # the checkpoint hash of a float gamma is unchanged
        for gamma in (0.05, np.float64(0.05)):
            cs = bc.ConstraintSet((0,), [0.5], gamma)
            assert solver._config_hash(bc.SolverConfig(), cs) == "dc07ae5654907bfe"

    @pytest.mark.parametrize("gamma", [
        True, np.bool_(False), "x", None, np.array([0.1, 0.2]), [0.1], float("nan"), float("inf"),
        *(pytest.param(gamma, id=name) for name, gamma in HUGE_INTS.items())])
    def test_gamma_must_be_a_finite_nonnegative_real(self, gamma):
        # a value that is not a real (a bool, an int past the float range) is refused
        # before its range is checked
        if type(gamma) is float:
            message = f"gamma must be a finite nonnegative real, got {gamma}"
        else:
            shown = HUGE_SHOWN if type(gamma) is int else repr(gamma)
            message = f"gamma must be a real number, got {shown}"
        with pytest.raises(bc.ValidationError, match=f"^{re.escape(message)}$"):
            bc.ConstraintSet((0,), [0.5], gamma)

    def test_from_stats(self):
        corpus = make_corpus(
            [("a", [(0, "M", 0.0), (1, "-", 0.0)])], names=["cooking", "driving"]
        )
        stats = bc.TrainingStats(
            {"cooking": bc.GenderCount(30, 70), "driving": bc.GenderCount(5, 5)}
        )
        cs = bc.ConstraintSet.from_stats(corpus, stats, gamma=0.01)
        assert cs.activity_ids == (0,)
        assert_allclose(cs.b_star, [0.3])


def candidate_features(activity_id, gender, cs):
    """One candidate's feature type, and the coordinates and values of that type."""
    corpus = make_corpus([("i", [(activity_id, gender, 0.0)])],
                         n_activities=max(activity_id, *cs.activity_ids) + 1)
    (t,) = feature_types(corpus, cs)
    values, coords = type_features(cs)
    return t, coords[t].tolist(), values[t]


def one_instance(triples, probs):
    """A corpus of one instance "i" and a posterior table of the given probabilities."""
    corpus = make_corpus([("i", triples)], names=["act"])
    return corpus, bc.PosteriorTable(corpus, probs)


class TestFeatureVector:
    def test_male_values(self):
        cs = single_constraint(0.3, 0.001)
        t, coords, values = candidate_features(0, "M", cs)
        assert (t, coords) == (0, [0, 1])
        assert_allclose(values, [0.699, -0.701], atol=1e-12)

    def test_female_values(self):
        cs = single_constraint(0.3, 0.001)
        t, coords, values = candidate_features(0, "W", cs)
        assert (t, coords) == (1, [0, 1])
        assert_allclose(values, [-0.301, 0.299], atol=1e-12)

    def test_ungendered_empty(self):
        cs = single_constraint(0.3, 0.001)
        t, _, values = candidate_features(0, "-", cs)
        assert t == cs.dimension
        assert values.tolist() == [0.0, 0.0]

    def test_unconstrained_activity_empty(self):
        cs = single_constraint(0.3, 0.001, activity_id=1)
        t, _, values = candidate_features(0, "M", cs)
        assert t == cs.dimension
        assert values.tolist() == [0.0, 0.0]

    def test_sparsity_at_most_two(self):
        """A gendered candidate of a constrained activity has features at that
        activity's two coordinates only; every other candidate has none."""
        rng = np.random.default_rng(5)
        cs = bc.ConstraintSet((0, 1, 3), rng.uniform(0, 1, 3), 0.01)
        for aid in range(4):
            for gender in GENDER_TAGS:
                t, coords, values = candidate_features(aid, gender, cs)
                if aid not in cs.activity_ids or gender == "-":
                    assert t == cs.dimension and values.tolist() == [0.0, 0.0]
                else:
                    j = cs.activity_ids.index(aid)
                    assert coords == [2 * j, 2 * j + 1]

    def test_balanced_zero_margin_sides_negate(self):
        cs = single_constraint(0.5, 0.0)
        for gender in ("M", "W"):
            _, _, values = candidate_features(0, gender, cs)
            assert_allclose(values[0], -values[1], atol=1e-15)


class TestExpectations:
    def test_point_mass_returns_feature_vector(self):
        cs = single_constraint(0.3, 0.001)
        corpus, posterior = one_instance([(0, "M", 0.0), (0, "W", 0.0)], [1.0, 0.0])
        expectation = bc.corpus_expectation(corpus, posterior, cs)
        _, coords, values = candidate_features(0, "M", cs)
        expected = np.zeros(2)
        expected[coords] = values
        assert_allclose(expectation, expected, atol=1e-15)

    def test_no_gendered_mass_gives_zero(self):
        cs = single_constraint(0.3, 0.001)
        corpus, posterior = one_instance([(0, "M", 0.0), (0, "-", 0.0)], [0.0, 1.0])
        assert_allclose(bc.corpus_expectation(corpus, posterior, cs), np.zeros(2), atol=0)

    def test_balanced_case_sits_on_boundary(self):
        cs = single_constraint(0.5, 0.0)
        corpus, posterior = one_instance([(0, "M", 0.0), (0, "W", 0.0)], [0.5, 0.5])
        expectation = bc.corpus_expectation(corpus, posterior, cs)
        assert_allclose(expectation[0], 0.0, atol=1e-15)

    def test_one_probability_per_candidate(self):
        cs = single_constraint(0.3, 0.001)
        corpus, _ = one_instance([(0, "M", 0.0), (0, "W", 0.0)], [0.5, 0.5])
        with pytest.raises(bc.ValidationError, match=r"^\(1,\) probabilities for 2 candidates$"):
            bc.PosteriorTable(corpus, [1.0])
        _, short = one_instance([(0, "M", 0.0)], [1.0])
        with pytest.raises(bc.ValidationError, match="^posteriors belong to another corpus$"):
            bc.corpus_expectation(corpus, short, cs)

    def test_empty_corpus_zero(self):
        cs = single_constraint(0.3, 0.001)
        corpus = make_corpus([], names=["act"])
        table = bc.instance_posterior(corpus)
        assert_allclose(bc.corpus_expectation(corpus, table, cs), np.zeros(2), atol=0)

    def test_single_instance_matches(self):
        """A one-instance corpus gives that instance's candidate-by-candidate sum."""
        cs = single_constraint(0.3, 0.001)
        corpus = make_corpus([("i", [(0, "M", 0.2), (0, "W", -0.4)])], names=["act"])
        posteriors = posteriors_of(corpus)
        assert_allclose(
            bc.corpus_expectation(corpus, posteriors, cs),
            ref.instance_expectation(ref.candidates(corpus)[0], posteriors.probs, cs),
            atol=0,
        )

    def test_duplication_doubles(self):
        cs = single_constraint(0.3, 0.001)
        corpus = make_corpus(
            [("i", [(0, "M", 0.2), (0, "W", -0.4)])], names=["act"]
        )
        doubled = take_instances(corpus, [0, 0], ids=("i", "i2"))
        single = bc.corpus_expectation(corpus, posteriors_of(corpus), cs)
        both = bc.corpus_expectation(doubled, posteriors_of(doubled), cs)
        assert_allclose(both, 2.0 * single, rtol=1e-14)

    def test_additive_over_disjoint_unions(self):
        rng = np.random.default_rng(11)
        union = random_corpus(rng, n_activities=2, max_instances=12)
        cut = int(rng.integers(len(union) + 1))
        part_a = take_instances(union, range(cut))
        part_b = take_instances(union, range(cut, len(union)))
        cs = bc.ConstraintSet((0, 1), rng.uniform(0.1, 0.9, 2), 0.01)
        total = bc.corpus_expectation(union, posteriors_of(union), cs)
        split = bc.corpus_expectation(
            part_a, posteriors_of(part_a), cs
        ) + bc.corpus_expectation(part_b, posteriors_of(part_b), cs)
        assert_allclose(total, split, atol=1e-12)


def biased_pair_corpus(male_prob):
    return one_instance([(0, "M", 0.0), (0, "W", 0.0)], [male_prob, 1.0 - male_prob])


class TestCheckEquivalence:
    def test_interior_point(self):
        corpus, posteriors = biased_pair_corpus(0.3)
        cs = single_constraint(0.3, 0.05)
        result = bc.check_equivalence(corpus, posteriors, cs)
        assert all(field.shape == (1,) for field in result)
        assert result.minus_ok.all() and result.plus_ok.all()
        expectation = bc.corpus_expectation(corpus, posteriors, cs)
        assert expectation[0] <= 0 and expectation[1] <= 0

    def test_upper_boundary(self):
        # ratio exactly b_star + gamma puts the upper-side expectation at zero
        corpus, posteriors = biased_pair_corpus(0.35)
        cs = single_constraint(0.3, 0.05)
        expectation = bc.corpus_expectation(corpus, posteriors, cs)
        assert_allclose(expectation[0], 0.0, atol=1e-9)
        result = bc.check_equivalence(corpus, posteriors, cs)
        assert result.minus_ok.all()
        assert_allclose(result.residual_minus, [0.0], atol=1e-9)

    def test_violated_upper_side(self):
        corpus, posteriors = biased_pair_corpus(0.40)
        cs = single_constraint(0.3, 0.05)
        expectation = bc.corpus_expectation(corpus, posteriors, cs)
        assert expectation[0] > 0
        result = bc.check_equivalence(corpus, posteriors, cs)
        assert result.minus_ok.all()
        assert result.residual_minus[0] > 0

    @pytest.mark.parametrize("call", [
        featurize,
        lambda corpus, table, cs: bc.solve(corpus, table, cs, bc.SolverConfig()),
        lambda corpus, table, cs: bc.calibrate(corpus, table, cs, np.zeros(cs.dimension)),
        lambda corpus, table, cs: bc.dual_objective(np.zeros(cs.dimension), corpus, table, cs),
        lambda corpus, table, cs: bc.dual_gradient(np.zeros(cs.dimension), corpus, table, cs),
        bc.corpus_expectation,
        bc.check_equivalence,
    ], ids=["featurize", "solve", "calibrate", "dual_objective", "dual_gradient",
            "corpus_expectation", "check_equivalence"])
    def test_constraint_outside_the_vocabulary_is_refused(self, call):
        corpus, posteriors = biased_pair_corpus(0.4)
        cs = bc.ConstraintSet((0, 5), np.array([0.5, 0.5]), 0.05)
        with pytest.raises(bc.ValidationError, match="^constrained activity id 5 is not in the "
                                                     "corpus vocabulary of 1 activities$"):
            call(corpus, posteriors, cs)

    def test_report_and_check_refuse_underflowed_mass_alike(self):
        # the gendered candidates' posterior underflows to exactly 0
        corpus = make_corpus([("i", [(0, "M", -1000.0), (0, "W", -1000.0), (1, "-", 0.0)])],
                             names=["cooking", "other"])
        stats = bc.TrainingStats({"cooking": bc.GenderCount(3, 7)})
        table = bc.instance_posterior(corpus)
        assert table.probs[:2].tolist() == [0.0, 0.0]
        cs = bc.ConstraintSet.from_stats(corpus, stats, 0.05)
        message = "^activity 'cooking' has no gendered posterior mass$"
        with pytest.raises(bc.UndefinedBiasError, match=message):
            bc.build_report(corpus, stats, table, bc.map_predict(table), 0.05)
        with pytest.raises(bc.UndefinedBiasError, match=message):
            bc.check_equivalence(corpus, table, cs)

    def test_no_gendered_mass_errors(self):
        corpus = make_corpus([("i", [(0, "-", 0.0)])], names=["act"])
        posteriors = posteriors_of(corpus)
        cs = single_constraint(0.3, 0.05)
        with pytest.raises(bc.UndefinedBiasError,
                           match="^activity 'act' has no gendered posterior mass$"):
            bc.check_equivalence(corpus, posteriors, cs)

    def test_first_activity_without_gendered_mass_is_named(self):
        corpus = make_corpus([("i", [(0, "M", 0.0), (1, "-", 0.0), (2, "-", 0.0)])],
                             names=["a", "b", "c"])
        cs = bc.ConstraintSet((0, 1, 2), np.array([0.5, 0.5, 0.5]), 0.05)
        with pytest.raises(bc.UndefinedBiasError,
                           match="^activity 'b' has no gendered posterior mass$"):
            bc.check_equivalence(corpus, posteriors_of(corpus), cs)

    def test_equivalence_on_random_corpora(self):
        """Sign of each expectation coordinate must match the ratio residual
        (identity verified after clearing the positive denominator)."""
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(40):
            corpus = random_corpus(rng, n_activities=3)
            cs = random_constraints(rng, corpus, gamma=float(rng.choice([0.0, 0.001, 0.05])))
            if cs is None:
                continue
            posteriors = posteriors_of(corpus)
            expectation = bc.corpus_expectation(corpus, posteriors, cs)
            result = bc.check_equivalence(corpus, posteriors, cs)
            assert result.minus_ok.all() and result.plus_ok.all()
            for coord, residual in ((expectation[0::2], result.residual_minus),
                                    (expectation[1::2], result.residual_plus)):
                assert np.all(residual[coord > 1e-9] > -1e-9)
                assert np.all(residual[coord < -1e-9] < 1e-9)
            checked += len(cs.activity_ids)
        assert checked > 30
