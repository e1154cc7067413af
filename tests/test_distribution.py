"""Posterior computation, reweighting, MAP, and KL divergence."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import rel_entr

import biascal as bc
from biascal.distribution import _rel_entr, as_table
from conftest import make_corpus, make_instance, posteriors_of, random_constraints, random_corpus


def scored_instance(scores):
    return make_instance("i", [(0, "M", s) for s in scores])


class TestInstancePosterior:
    def test_equal_scores(self):
        post = bc.instance_posterior(scored_instance([0.0, 0.0]))
        assert_allclose(post.probs, [0.5, 0.5], atol=1e-15)

    def test_large_scores_no_overflow(self):
        post = bc.instance_posterior(scored_instance([1000.0, 1000.0, 1000.0]))
        assert np.all(np.isfinite(post.probs))
        assert_allclose(post.probs, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_analytic_softmax(self):
        post = bc.instance_posterior(scored_instance([math.log(3.0), math.log(1.0)]))
        assert_allclose(post.probs, [0.75, 0.25], atol=1e-12)

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        scores=st.lists(st.floats(-200.0, 200.0), min_size=1, max_size=8),
        shift=st.floats(-500.0, 500.0),
    )
    def test_shift_invariance(self, scores, shift):
        base = bc.instance_posterior(scored_instance(scores))
        shifted = bc.instance_posterior(scored_instance([s + shift for s in scores]))
        assert_allclose(shifted.probs, base.probs, atol=1e-12)


class TestReweightedPosterior:
    def test_zero_penalty_is_identity(self):
        inst = scored_instance([0.4, -0.2, 1.0])
        base = bc.instance_posterior(inst)
        out = bc.reweighted_posterior(inst, base, [0.0, 0.0, 0.0])
        assert_allclose(out.probs, base.probs, atol=1e-15)

    def test_analytic_reweighting(self):
        inst = scored_instance([0.0, 0.0])
        base = bc.instance_posterior(inst)
        out = bc.reweighted_posterior(inst, base, [math.log(3.0), 0.0])
        assert_allclose(out.probs, [0.25, 0.75], atol=1e-12)

    def test_zero_mass_stays_zero(self):
        inst = scored_instance([0.0, 0.0])
        base = bc.InstancePosterior("i", np.array([1.0, 0.0]))
        out = bc.reweighted_posterior(inst, base, [5.0, -7.0])
        assert_allclose(out.probs, [1.0, 0.0], atol=0)

    def test_no_support_raises(self):
        inst = scored_instance([0.0, 0.0])
        base = bc.instance_posterior(inst)
        # bypass validation to build an impossible all-zero posterior
        broken = object.__new__(bc.InstancePosterior)
        object.__setattr__(broken, "instance_id", "i")
        object.__setattr__(broken, "probs", np.zeros(2))
        with pytest.raises(bc.DegenerateDistributionError):
            bc.reweighted_posterior(inst, broken, [0.0, 0.0])

    def test_penalty_must_be_finite(self):
        inst = scored_instance([0.0, 0.0])
        base = bc.instance_posterior(inst)
        with pytest.raises(bc.ValidationError):
            bc.reweighted_posterior(inst, base, [float("inf"), 0.0])

    def test_penalty_length_checked(self):
        inst = scored_instance([0.0, 0.0])
        base = bc.instance_posterior(inst)
        with pytest.raises(bc.ValidationError):
            bc.reweighted_posterior(inst, base, [0.0])


class TestMapPredict:
    def test_plain_argmax(self):
        assert bc.map_predict(bc.InstancePosterior("i", np.array([0.2, 0.7, 0.1]))) == 1

    def test_tie_breaks_low(self):
        assert bc.map_predict(bc.InstancePosterior("i", np.array([0.5, 0.5]))) == 0

    def test_composition_with_reweighting(self):
        inst = scored_instance([0.0, 0.0])
        base = bc.instance_posterior(inst)
        out = bc.reweighted_posterior(inst, base, [math.log(3.0), 0.0])
        assert bc.map_predict(out) == 1


class TestKLDivergence:
    def test_identical_is_zero(self):
        p = [bc.InstancePosterior("a", np.array([0.3, 0.7]))]
        assert bc.kl_divergence(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        q = [bc.InstancePosterior("a", np.array([1.0, 0.0]))]
        p = [bc.InstancePosterior("a", np.array([0.5, 0.5]))]
        assert_allclose(bc.kl_divergence(q, p), math.log(2.0), rtol=1e-14)

    def test_closed_form_sum(self):
        # independent evaluation of sum_k q_k log(q_k / p_k)
        q_probs, p_probs = [0.25, 0.75], [0.5, 0.5]
        expected = sum(qk * math.log(qk / pk) for qk, pk in zip(q_probs, p_probs))
        q = [bc.InstancePosterior("a", np.array(q_probs))]
        p = [bc.InstancePosterior("a", np.array(p_probs))]
        assert_allclose(bc.kl_divergence(q, p), expected, rtol=1e-14)
        assert_allclose(expected, 0.1308, atol=5e-5)

    def test_infinite_when_not_absolutely_continuous(self):
        q = [bc.InstancePosterior("a", np.array([0.5, 0.5]))]
        p = [bc.InstancePosterior("a", np.array([1.0, 0.0]))]
        assert bc.kl_divergence(q, p) == float("inf")

    def test_alignment_enforced(self):
        q = [bc.InstancePosterior("a", np.array([1.0]))]
        p = [bc.InstancePosterior("b", np.array([1.0]))]
        with pytest.raises(bc.ValidationError):
            bc.kl_divergence(q, p)

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_scipy_rel_entr(self, seed):
        # numpy's vectorized log may round differently from the C library
        # log that scipy calls, so each term may differ by a few units in
        # the last place; zeros and infinities must match exactly
        rng = np.random.default_rng(seed)
        q, p = [], []
        for i in range(int(rng.integers(1, 20))):
            k = int(rng.integers(1, 13))
            # high powers spread the ratios q/p far enough to under- and overflow
            pair = rng.random((2, k)) ** rng.uniform(1.0, 300.0, (2, 1))
            pair[rng.random((2, k)) < 0.2] = 0.0
            pair[:, 0] = np.maximum(pair[:, 0], 1e-3)
            pair /= pair.sum(axis=1, keepdims=True)
            q.append(bc.InstancePosterior(f"i{i}", pair[0]))
            p.append(bc.InstancePosterior(f"i{i}", pair[1]))
        terms = [rel_entr(qi.probs, pi.probs) for qi, pi in zip(q, p)]
        expected = 0.0
        for term in terms:
            expected += float(term.sum())
        ours = _rel_entr(np.concatenate([qi.probs for qi in q]), np.concatenate([pi.probs for pi in p]))
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
        q = [bc.InstancePosterior("a", q_probs)]
        p = [bc.InstancePosterior("a", p_probs)]
        kl = bc.kl_divergence(q, p)
        assert kl >= -1e-15
        if kl < 1e-12:
            assert_allclose(q_probs, p_probs, atol=1e-5)
        if np.abs(q_probs - p_probs).max() > 1e-6:
            assert kl > 0.0


class TestAlignment:
    """Posteriors must list a corpus's (or another list's) instances with their sizes."""

    CORPUS_SPECS = [("a", [(0, "M", 0.0), (0, "W", 1.0)]), ("b", [(0, "-", 0.0)])]

    @pytest.mark.parametrize("posteriors, message", [
        ([("a", [0.5, 0.5])], "1 posteriors for 2 instances"),
        ([("b", [1.0]), ("a", [0.5, 0.5])], "posterior 'b' does not match instance 'a'"),
        ([("a", [0.5, 0.5]), ("b", [0.5, 0.5])], "instance 'b': 2 probabilities for 1 candidates"),
    ])
    def test_first_offender_named(self, posteriors, message):
        corpus = make_corpus(self.CORPUS_SPECS, names=["act"])
        posteriors = [bc.InstancePosterior(i, np.array(p)) for i, p in posteriors]
        with pytest.raises(bc.ValidationError, match=message):
            as_table(corpus, posteriors)
        with pytest.raises(bc.ValidationError, match=message):
            bc.kl_divergence(posteriors, bc.instance_posterior(corpus))

    def test_aligned_table_passes_through(self):
        corpus = make_corpus(self.CORPUS_SPECS, names=["act"])
        table = bc.instance_posterior(corpus)
        assert as_table(corpus, table) is table
        rebuilt = as_table(corpus, list(table))
        assert rebuilt.ids == ("a", "b") and np.array_equal(rebuilt.probs, table.probs)


class TestJointFactorization:
    def test_joint_log_probability_sums(self):
        corpus = make_corpus(
            [
                ("a", [(0, "M", 0.3), (0, "W", -0.1)]),
                ("b", [(0, "M", 1.0), (0, "-", 0.0), (0, "W", 0.2)]),
                ("c", [(0, "W", -2.0), (0, "M", 0.4)]),
            ]
        )
        posteriors = posteriors_of(corpus)
        sizes = [len(inst.candidates) for inst in corpus.instances]
        total = 0.0
        for assignment in itertools.product(*[range(s) for s in sizes]):
            joint = np.prod([posteriors[i].probs[k] for i, k in enumerate(assignment)])
            log_sum = sum(
                math.log(posteriors[i].probs[k]) for i, k in enumerate(assignment)
            )
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

            sizes = [len(inst.candidates) for inst in corpus.instances]
            marginals = [np.zeros(s) for s in sizes]
            total = 0.0
            for assignment in itertools.product(*[range(s) for s in sizes]):
                log_w = 0.0
                for i, k in enumerate(assignment):
                    log_w += math.log(posteriors[i].probs[k])
                    for idx, value in bc.feature_vector(corpus.instances[i].candidates[k], cs):
                        log_w -= lam[idx] * value
                weight = math.exp(log_w)
                total += weight
                for i, k in enumerate(assignment):
                    marginals[i][k] += weight

            for i, inst in enumerate(corpus.instances):
                penalty = np.zeros(sizes[i])
                for k, cand in enumerate(inst.candidates):
                    for idx, value in bc.feature_vector(cand, cs):
                        penalty[k] += lam[idx] * value
                factored = bc.reweighted_posterior(inst, posteriors[i], penalty)
                assert_allclose(factored.probs, marginals[i] / total, atol=1e-10)
