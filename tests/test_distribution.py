"""Posterior computation, reweighting, MAP, and KL divergence."""

import copy
import dataclasses
import io
import itertools
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import rel_entr

import biascal as bc
from biascal.constraints import feature_types, type_features
from biascal.distribution import _rel_entr, as_table, dump_posteriors, reweight, segment_sum
from biascal.solver import featurize
from conftest import (
    make_corpus, posteriors_of, random_constraints, random_corpus, rows_of, table_of,
)


def scored(scores):
    """One instance with these scores, and its row of the corpus's posterior table."""
    corpus = make_corpus([("i", [(0, "M", s) for s in scores])])
    return corpus.instances[0], bc.instance_posterior(corpus).probs


class TestInstancePosterior:
    def test_equal_scores(self):
        _, probs = scored([0.0, 0.0])
        assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_large_scores_no_overflow(self):
        _, probs = scored([1000.0, 1000.0, 1000.0])
        assert np.all(np.isfinite(probs))
        assert_allclose(probs, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_analytic_softmax(self):
        _, probs = scored([math.log(3.0), math.log(1.0)])
        assert_allclose(probs, [0.75, 0.25], atol=1e-12)

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        scores=st.lists(st.floats(-200.0, 200.0), min_size=1, max_size=8),
        shift=st.floats(-500.0, 500.0),
    )
    def test_shift_invariance(self, scores, shift):
        _, base = scored(scores)
        _, shifted = scored([s + shift for s in scores])
        assert_allclose(shifted, base, atol=1e-12)

    def test_takes_only_a_corpus(self):
        inst, _ = scored([0.0, 0.0])
        with pytest.raises(TypeError, match="instance_posterior takes a Corpus, got Instance"):
            bc.instance_posterior(inst)


def male_vs_plain(probs):
    """A male and an ungendered candidate of one instance, their posterior table, and
    constraints under which the male candidate's upper-side feature is exactly 1."""
    corpus = make_corpus([("i", [(0, "M", 0.0), (0, "-", 0.0)])])
    return corpus, bc.PosteriorTable(corpus, probs), bc.ConstraintSet((0,), [0.0], 0.0)


class TestReweightedPosterior:
    """`calibrate` reweights each instance by exp(-penalty) through `reweight`."""

    def test_zero_penalty_is_identity(self):
        corpus = make_corpus([("i", [(0, "M", 0.4), (0, "M", -0.2), (0, "M", 1.0)])])
        base = bc.instance_posterior(corpus)
        cs = bc.ConstraintSet((0,), [0.3], 0.001)
        unmoved = bc.calibrate(corpus, base, cs, np.zeros(2))
        assert np.array_equal(unmoved.probs, base.probs)
        # the same penalty on every candidate of an instance moves nothing either
        shifted = bc.calibrate(corpus, base, cs, np.array([0.8, 0.3]))
        assert_allclose(shifted.probs, base.probs, atol=1e-15)

    def test_analytic_reweighting(self):
        corpus, base, cs = male_vs_plain([0.5, 0.5])
        out = bc.calibrate(corpus, base, cs, np.array([math.log(3.0), 0.0]))
        assert_allclose(out.probs, [0.25, 0.75], atol=1e-12)

    def test_zero_mass_stays_zero(self):
        _, base, _ = male_vs_plain([1.0, 0.0])
        assert_allclose(reweight(base, np.array([5.0, -7.0])), [1.0, 0.0], atol=0)

    def test_penalty_must_be_finite(self):
        _, base, _ = male_vs_plain([0.5, 0.5])
        with pytest.raises(bc.ValidationError,
                           match="^instance 'i': penalty entries must be finite$"):
            reweight(base, np.array([np.inf, 0.0]))

    PENALTIES = [0.0, 1e-300, -1e-300, 3.0, -3.0, 40.0, -40.0, 745.0, -745.0, 1e300, -1e300]

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_every_instance_keeps_its_mass(self, seed):
        # why reweight needs no branch for an instance left without mass: a
        # table gives every instance a row with p > 0, so |log p| <= 745 and,
        # for any finite penalty, that row's log weight is finite. Scores up
        # to about 800 underflow some probabilities to 0.
        rng = np.random.default_rng(seed)
        corpus = random_corpus(rng, 2, max_candidates=8, score_scale=rng.uniform(1.0, 300.0))
        table = bc.instance_posterior(corpus)
        penalty = np.where(rng.random(corpus.n_rows) < 0.5,
                           rng.choice(self.PENALTIES, corpus.n_rows),
                           rng.normal(0.0, rng.choice([1.0, 100.0, 1e6]), corpus.n_rows))
        out = reweight(table, penalty)
        assert np.isfinite(out).all()
        assert np.abs(segment_sum(out, corpus.offsets) - 1.0).max() <= 1e-12
        assert (out[table.probs == 0.0] == 0.0).all()


class TestMapPredict:
    def test_plain_argmax(self):
        posteriors = table_of([[0.2, 0.7, 0.1]])
        assert bc.map_predict(posteriors).tolist() == [1]

    def test_tie_breaks_low(self):
        posteriors = table_of([[0.5, 0.5], [0.2, 0.4, 0.4]])
        assert bc.map_predict(posteriors).tolist() == [0, 1]

    def test_composition_with_reweighting(self):
        corpus, base, cs = male_vs_plain([0.5, 0.5])
        out = bc.calibrate(corpus, base, cs, np.array([math.log(3.0), 0.0]))
        assert bc.map_predict(out).tolist() == [1]

    def test_takes_posteriors_not_one_posterior(self):
        one = np.array([0.2, 0.8])
        for posteriors, kind in ((one, "ndarray"), ([one], "list")):
            with pytest.raises(TypeError,
                               match=f"^posteriors must be a PosteriorTable, got {kind}$"):
                bc.map_predict(posteriors)


class TestKLDivergence:
    def test_identical_is_zero(self):
        p = table_of([[0.3, 0.7]])
        assert bc.kl_divergence(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        q = table_of([[1.0, 0.0]])
        p = table_of([[0.5, 0.5]])
        assert_allclose(bc.kl_divergence(q, p), math.log(2.0), rtol=1e-14)

    def test_closed_form_sum(self):
        # independent evaluation of sum_k q_k log(q_k / p_k)
        q_probs, p_probs = [0.25, 0.75], [0.5, 0.5]
        expected = sum(qk * math.log(qk / pk) for qk, pk in zip(q_probs, p_probs))
        q = table_of([q_probs])
        p = table_of([p_probs])
        assert_allclose(bc.kl_divergence(q, p), expected, rtol=1e-14)
        assert_allclose(expected, 0.1308, atol=5e-5)

    def test_empty_corpus_is_zero(self):
        table = bc.instance_posterior(make_corpus([], names=["act"]))
        assert bc.kl_divergence(table, table) == 0.0

    def test_infinite_when_not_absolutely_continuous(self):
        q = table_of([[0.5, 0.5]])
        p = table_of([[1.0, 0.0]])
        assert bc.kl_divergence(q, p) == float("inf")

    def test_alignment_enforced(self):
        q = table_of([[1.0]], ids=["a"])
        p = table_of([[1.0]], ids=["b"])
        with pytest.raises(bc.ValidationError, match="^posteriors belong to another corpus$"):
            bc.kl_divergence(q, p)
        with pytest.raises(TypeError, match="^posteriors must be a PosteriorTable, got list$"):
            bc.kl_divergence([p.probs], p)

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_scipy_rel_entr(self, seed):
        # numpy's vectorized log may round differently from the C library
        # log that scipy calls, so each term may differ by a few units in
        # the last place; zeros and infinities must match exactly
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(int(rng.integers(1, 20))):
            k = int(rng.integers(1, 13))
            # high powers spread the ratios q/p far enough to under- and overflow
            pair = rng.random((2, k)) ** rng.uniform(1.0, 300.0, (2, 1))
            pair[rng.random((2, k)) < 0.2] = 0.0
            pair[:, 0] = np.maximum(pair[:, 0], 1e-3)
            pairs.append(pair / pair.sum(axis=1, keepdims=True))
        terms = [rel_entr(*pair) for pair in pairs]
        expected = 0.0
        for term in terms:
            expected += float(term.sum())
        q, p = (table_of([pair[side] for pair in pairs]) for side in (0, 1))
        ours = _rel_entr(q.probs, p.probs)
        np.testing.assert_array_max_ulp(ours, np.concatenate(terms), maxulp=4)
        kl = bc.kl_divergence(q, p)
        if np.isinf(expected):
            assert kl == expected
        else:
            scale = sum(float(np.abs(t).sum()) for t in terms)
            assert abs(kl - expected) <= 64 * np.finfo(float).eps * scale

    @settings(deadline=None, max_examples=80, derandomize=True)
    @given(
        raw_q=st.lists(st.floats(1e-4, 1.0), min_size=2, max_size=6),
        raw_p=st.data(),
    )
    def test_nonnegative_and_zero_iff_equal(self, raw_q, raw_p):
        raw_p = raw_p.draw(
            st.lists(st.floats(1e-4, 1.0), min_size=len(raw_q), max_size=len(raw_q))
        )
        q_probs = np.array(raw_q) / np.sum(raw_q)
        p_probs = np.array(raw_p) / np.sum(raw_p)
        q = table_of([q_probs])
        p = table_of([p_probs])
        kl = bc.kl_divergence(q, p)
        assert kl >= -1e-15
        if kl < 1e-12:
            assert_allclose(q_probs, p_probs, atol=1e-5)
        if np.abs(q_probs - p_probs).max() > 1e-6:
            assert kl > 0.0


class TestAlignment:
    """A table belongs to its corpus, and the functions given another corpus refuse it."""

    CORPUS_SPECS = [("a", [(0, "M", 0.0), (0, "W", 1.0)]), ("b", [(0, "-", 0.0)])]
    # the ids and candidate counts of CORPUS_SPECS, with other genders and scores
    SAME_LAYOUT_SPECS = [("a", [(0, "W", 0.5), (0, "M", 0.0)]), ("b", [(0, "-", 2.0)])]

    @pytest.mark.parametrize("specs", [
        CORPUS_SPECS[:1],
        CORPUS_SPECS[::-1],
        [CORPUS_SPECS[0], ("b", [(0, "-", 0.0), (0, "-", 0.0)])],
        SAME_LAYOUT_SPECS,
    ], ids=["fewer_instances", "other_order", "other_sizes", "same_ids_and_sizes"])
    def test_another_corpus_is_refused(self, specs):
        corpus = make_corpus(self.CORPUS_SPECS, names=["act"])
        posteriors = bc.instance_posterior(make_corpus(specs, names=["act"]))
        with pytest.raises(bc.ValidationError, match="^posteriors belong to another corpus$"):
            as_table(posteriors, corpus)
        with pytest.raises(bc.ValidationError, match="^posteriors belong to another corpus$"):
            bc.kl_divergence(posteriors, bc.instance_posterior(corpus))

    def test_aligned_table_passes_through(self):
        corpus = make_corpus(self.CORPUS_SPECS, names=["act"])
        table = bc.instance_posterior(corpus)
        assert as_table(table, corpus) is table
        assert as_table(table) is table
        # a corpus built again from the same columns is equal, so the table is its table
        again = make_corpus(self.CORPUS_SPECS, names=["act"])
        assert again is not corpus and as_table(table, again) is table
        with pytest.raises(TypeError, match="^posteriors must be a PosteriorTable, got list$"):
            as_table(rows_of(table), corpus)


class TestTablesOnly:
    """Every public function that takes posteriors takes them as a `PosteriorTable` only,
    and every one that also takes a corpus refuses a table of another corpus."""

    CALLS = {
        "build_report": lambda c, cs, post: bc.build_report(
            c, bc.TrainingStats({"act": bc.GenderCount(1, 1)}), post, [0, 0], 0.05),
        "corpus_expectation": lambda c, cs, post: bc.corpus_expectation(c, post, cs),
        "check_equivalence": lambda c, cs, post: bc.check_equivalence(c, post, cs),
        "featurize": lambda c, cs, post: featurize(c, post, cs),
        "dual_objective": lambda c, cs, post: bc.dual_objective(np.zeros(2), c, post, cs),
        "dual_gradient": lambda c, cs, post: bc.dual_gradient(np.zeros(2), c, post, cs),
        "solve": lambda c, cs, post: bc.solve(c, post, cs, bc.SolverConfig()),
        "calibrate": lambda c, cs, post: bc.calibrate(c, post, cs, np.zeros(2)),
        "brute_force_project": lambda c, cs, post: bc.brute_force_project(c, post, cs),
        "map_predict": lambda c, cs, post: bc.map_predict(post),
        "dump_posteriors": lambda c, cs, post: dump_posteriors(post, io.StringIO()),
        "kl_divergence(q)": lambda c, cs, post: bc.kl_divergence(post, bc.instance_posterior(c)),
        "kl_divergence(p)": lambda c, cs, post: bc.kl_divergence(bc.instance_posterior(c), post),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_a_list_of_instance_posteriors_is_refused(self, name):
        corpus = make_corpus(TestAlignment.CORPUS_SPECS, names=["act"])
        cs = bc.ConstraintSet((0,), np.array([0.5]), 0.05)
        listed = rows_of(bc.instance_posterior(corpus))
        with pytest.raises(TypeError, match="^posteriors must be a PosteriorTable, got list$"):
            self.CALLS[name](corpus, cs, listed)

    @pytest.mark.parametrize("name", [name for name in CALLS
                                      if name not in ("map_predict", "dump_posteriors")])
    def test_a_table_of_another_corpus_is_refused(self, name):
        corpus = make_corpus(TestAlignment.CORPUS_SPECS, names=["act"])
        other = make_corpus(TestAlignment.SAME_LAYOUT_SPECS, names=["act"])
        assert other.ids == corpus.ids and np.array_equal(other.offsets, corpus.offsets)
        cs = bc.ConstraintSet((0,), np.array([0.5]), 0.05)
        with pytest.raises(bc.ValidationError, match="^posteriors belong to another corpus$"):
            self.CALLS[name](corpus, cs, bc.instance_posterior(other))


class TestProbabilityChecks:
    """Each posterior vector must be finite, within [0, 1] and sum to 1."""

    @pytest.mark.parametrize("probs, message", [
        ([np.nan, 1.0], "posterior for 'b' has non-finite entries"),
        ([np.inf, 0.0], "posterior for 'b' has non-finite entries"),
        ([1.5, -0.5], "posterior for 'b' has entries outside [0, 1]"),
        ([0.5, 0.4], "posterior for 'b' sums to 0.9, expected 1"),
    ])
    def test_bad_vector_named(self, probs, message):
        with pytest.raises(bc.ValidationError, match=f"^{re.escape(message)}$"):
            table_of([probs], ids=["b"])
        with pytest.raises(bc.ValidationError, match=f"^{re.escape(message)}$"):
            table_of([[1.0], probs], ids=["a", "b"])

    @pytest.mark.parametrize("probs, message", [
        ([], "(0,) probabilities for 2 candidates"),
        ([[0.5, 0.5]], "(1, 2) probabilities for 2 candidates"),
    ], ids=["empty", "two_dimensional"])
    def test_one_posterior_is_a_nonempty_vector(self, probs, message):
        corpus = make_corpus([("b", [(0, "M", 0.0), (0, "W", 0.0)])])
        with pytest.raises(bc.ValidationError, match=f"^{re.escape(message)}$"):
            bc.PosteriorTable(corpus, np.array(probs))

    @pytest.mark.parametrize("offsets, n_probs", [
        ([0, 1], 3), ([0, 1, 2], 3), ([0, 1, 3], 2),
        ([1, 2, 3], 3),  # not starting at 0
        ([0, 3, 2], 2),  # decreasing
    ])
    def test_offsets_must_match_ids_and_rows(self, offsets, n_probs):
        # a table has the layout of its corpus: the Corpus refuses offsets that
        # do not match its ids and rows, and the table another number of rows
        rows = offsets[-1]
        with pytest.raises(bc.ValidationError,
                           match=r"^corpus offsets do not match its ids, rows and gold$"
                                 r"|^\(\d+,\) probabilities for \d+ candidates$"):
            corpus = bc.Corpus({"act": 0}, ("a", "b"), offsets, [0] * rows, [0] * rows,
                               [0.0] * rows, [-1, -1])
            bc.PosteriorTable(corpus, np.full(n_probs, 0.5))

    def test_rows_before_the_first_offset_are_refused(self):
        # the one row, [0.3, 0.5], would sum to 0.8, while all three values sum
        # to 1; no corpus has such rows, so no table has them either
        with pytest.raises(bc.ValidationError,
                           match="^corpus offsets do not match its ids, rows and gold$"):
            bc.Corpus({"act": 0}, ("a",), [1, 3], [0] * 3, [0] * 3, [0.0] * 3, [-1])

    def test_a_table_belongs_to_a_corpus(self):
        with pytest.raises(TypeError, match="^a PosteriorTable belongs to a Corpus, got tuple$"):
            bc.PosteriorTable(("a",), [1.0])
        table = table_of([[0.25, 0.75]])
        assert [field.name for field in dataclasses.fields(table)] == ["corpus", "probs"]

    @pytest.mark.parametrize("name", ["corpus", "probs"])
    def test_a_table_cannot_be_changed(self, name):
        table = table_of([[0.25, 0.75]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(table, name, np.array([5.0, -4.0]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(table, name)
        with pytest.raises(ValueError, match="read-only"):
            table.probs[0] = 5.0
        assert table.probs.tolist() == [0.25, 0.75]

    def test_the_callers_array_is_copied(self):
        corpus = make_corpus([("i", [(0, "M", 0.0), (0, "W", 0.0)])])
        probs = np.array([0.25, 0.75])
        table = bc.PosteriorTable(corpus, probs)
        assert table.probs is not probs and probs.flags.writeable
        probs[0] = 5.0
        assert table.probs.tolist() == [0.25, 0.75]

    def test_pickle_and_deepcopy_give_the_same_table(self):
        table = bc.instance_posterior(make_corpus(TestAlignment.CORPUS_SPECS, names=["act"]))
        for again in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
            assert again is not table and again.corpus == table.corpus
            assert np.array_equal(again.probs.view(np.int64), table.probs.view(np.int64))
            # the copy is built and checked again, so its probabilities are read-only too
            assert not again.probs.flags.writeable


class TestJointFactorization:
    def test_joint_log_probability_sums(self):
        corpus = make_corpus(
            [
                ("a", [(0, "M", 0.3), (0, "W", -0.1)]),
                ("b", [(0, "M", 1.0), (0, "-", 0.0), (0, "W", 0.2)]),
                ("c", [(0, "W", -2.0), (0, "M", 0.4)]),
            ]
        )
        rows = rows_of(posteriors_of(corpus))
        sizes = [len(inst.candidates) for inst in corpus.instances]
        total = 0.0
        for assignment in itertools.product(*[range(s) for s in sizes]):
            joint = np.prod([rows[i][k] for i, k in enumerate(assignment)])
            log_sum = sum(math.log(rows[i][k]) for i, k in enumerate(assignment))
            assert_allclose(math.log(joint), log_sum, atol=1e-12)
            total += joint
        assert_allclose(total, 1.0, atol=1e-12)

    def test_per_instance_reweighting_matches_joint_projection(self):
        """The per-instance reweighted posterior must equal the instance
        marginal of the jointly reweighted product distribution, obtained
        here by explicit enumeration."""
        rng = np.random.default_rng(17)
        for _ in range(10):
            corpus = random_corpus(rng, n_activities=2, max_instances=3, max_candidates=4)
            cs = random_constraints(rng, corpus, gamma=float(rng.uniform(0, 0.05)))
            if cs is None:
                continue
            posteriors = posteriors_of(corpus)
            lam = rng.uniform(0.0, 2.0, cs.dimension)
            values, coords = type_features(cs)
            types = feature_types(corpus.activity, corpus.gender, cs)
            penalty = (lam[coords[types]] * values[types]).sum(axis=1)

            sizes = [len(inst.candidates) for inst in corpus.instances]
            marginals = [np.zeros(s) for s in sizes]
            total = 0.0
            for assignment in itertools.product(*[range(s) for s in sizes]):
                log_w = 0.0
                for i, k in enumerate(assignment):
                    log_w += math.log(posteriors.probs[corpus.offsets[i] + k])
                    log_w -= penalty[corpus.offsets[i] + k]
                weight = math.exp(log_w)
                total += weight
                for i, k in enumerate(assignment):
                    marginals[i][k] += weight

            factored = bc.calibrate(corpus, posteriors, cs, lam)
            for i, row in enumerate(rows_of(factored)):
                assert_allclose(row, marginals[i] / total, atol=1e-10)
