"""Bias ratios, amplification, and report assembly."""

import io
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import biascal as bc
from conftest import make_corpus, posteriors_of


def stats_for(corpus, counts):
    return bc.TrainingStats(
        {corpus.activity_name(aid): bc.GenderCount(m, f) for aid, (m, f) in counts.items()}
    )


def point_mass(instance_id, index, size):
    probs = np.zeros(size)
    probs[index] = 1.0
    return bc.InstancePosterior(instance_id, probs)


class TestDatasetBias:
    def test_direct_ratio(self):
        corpus = make_corpus([("a", [(0, "M", 0.0)])], names=["cooking"])
        stats = stats_for(corpus, {0: (30, 70)})
        assert bc.dataset_bias(stats, corpus, 0) == 0.3

    def test_balanced(self):
        corpus = make_corpus([("a", [(0, "M", 0.0)])], names=["cooking"])
        stats = stats_for(corpus, {0: (50, 50)})
        assert bc.dataset_bias(stats, corpus, 0) == 0.5

    def test_zero_counts_error(self):
        corpus = make_corpus([("a", [(0, "M", 0.0)])], names=["cooking"])
        stats = stats_for(corpus, {0: (0, 0)})
        with pytest.raises(bc.UndefinedBiasError):
            bc.dataset_bias(stats, corpus, 0)


class TestBiasInDistribution:
    def test_single_instance(self):
        corpus = make_corpus([("a", [(0, "M", 0.0), (0, "W", 0.0)])])
        posteriors = [bc.InstancePosterior("a", np.array([0.6, 0.4]))]
        assert_allclose(bc.bias_in_distribution(posteriors, corpus, 0), 0.6, rtol=1e-15)

    def test_two_instances_hand_sum(self):
        # (0.3 + 0.3) / (0.4 + 0.4) evaluated by hand
        corpus = make_corpus(
            [
                ("a", [(0, "M", 0.0), (0, "W", 0.0), (1, "-", 0.0)]),
                ("b", [(0, "M", 0.0), (0, "W", 0.0), (1, "-", 0.0)]),
            ]
        )
        posteriors = [
            bc.InstancePosterior("a", np.array([0.3, 0.1, 0.6])),
            bc.InstancePosterior("b", np.array([0.3, 0.1, 0.6])),
        ]
        assert_allclose(bc.bias_in_distribution(posteriors, corpus, 0), 0.75, rtol=1e-15)

    def test_all_ungendered_error(self):
        corpus = make_corpus([("a", [(0, "-", 0.0), (0, "-", 0.0)])])
        posteriors = posteriors_of(corpus)
        with pytest.raises(bc.UndefinedBiasError):
            bc.bias_in_distribution(posteriors, corpus, 0)

    def test_invariant_to_other_mass(self):
        """Changing ungendered or other-activity mass while preserving the
        gendered mass of the target activity leaves the ratio unchanged."""
        corpus_a = make_corpus([("a", [(0, "M", 0.0), (0, "W", 0.0), (1, "-", 0.0)])])
        corpus_b = make_corpus(
            [("a", [(0, "M", 0.0), (0, "W", 0.0), (1, "-", 0.0), (1, "M", 0.0)])]
        )
        p_a = [bc.InstancePosterior("a", np.array([0.30, 0.10, 0.60]))]
        p_b = [bc.InstancePosterior("a", np.array([0.30, 0.10, 0.25, 0.35]))]
        assert_allclose(
            bc.bias_in_distribution(p_a, corpus_a, 0),
            bc.bias_in_distribution(p_b, corpus_b, 0),
            rtol=1e-15,
        )

    def test_invariant_to_uniform_gendered_scaling(self):
        corpus = make_corpus([("a", [(0, "M", 0.0), (0, "W", 0.0), (1, "-", 0.0)])])
        small = [bc.InstancePosterior("a", np.array([0.30, 0.10, 0.60]))]
        doubled = [bc.InstancePosterior("a", np.array([0.60, 0.20, 0.20]))]
        assert_allclose(
            bc.bias_in_distribution(small, corpus, 0),
            bc.bias_in_distribution(doubled, corpus, 0),
            rtol=1e-15,
        )


class TestBiasInTopPredictions:
    def test_counting(self):
        corpus = make_corpus(
            [
                ("a", [(0, "M", 0.0), (0, "W", 0.0)]),
                ("b", [(0, "M", 0.0), (0, "W", 0.0)]),
                ("c", [(0, "M", 0.0), (0, "W", 0.0)]),
            ]
        )
        assert_allclose(
            bc.bias_in_top_predictions([0, 0, 1], corpus, 0), 2 / 3, rtol=1e-15
        )

    def test_not_evaluable(self):
        corpus = make_corpus([("a", [(0, "M", 0.0), (1, "-", 0.0)])])
        assert bc.bias_in_top_predictions([1], corpus, 0) is None

    def test_single_male(self):
        corpus = make_corpus([("a", [(0, "M", 0.0), (0, "W", 0.0)])])
        assert bc.bias_in_top_predictions([0], corpus, 0) == 1.0

    def test_matches_distribution_on_point_masses(self):
        corpus = make_corpus(
            [
                ("a", [(0, "M", 0.0), (0, "W", 0.0)]),
                ("b", [(0, "W", 0.0), (0, "M", 0.0)]),
                ("c", [(0, "M", 0.0), (1, "-", 0.0)]),
            ]
        )
        predictions = [0, 0, 1]
        posteriors = [
            point_mass(inst.id, k, len(inst.candidates))
            for inst, k in zip(corpus.instances, predictions)
        ]
        top = bc.bias_in_top_predictions(predictions, corpus, 0)
        dist = bc.bias_in_distribution(posteriors, corpus, 0)
        assert_allclose(top, dist, rtol=1e-15)


class TestAmplification:
    def test_male_leaning_amplified(self):
        assert_allclose(bc.amplification(0.8, 0.7), 0.1, atol=1e-15)

    def test_female_leaning_amplified(self):
        assert_allclose(bc.amplification(0.1, 0.3), 0.2, atol=1e-15)

    def test_balanced_training_ratio_contributes_zero(self):
        assert bc.amplification(0.9, 0.5) == 0.0

    def test_relabeling_invariance(self):
        # swapping the gender labels flips both the sign convention and the
        # deviation, leaving the score unchanged
        rng = np.random.default_rng(0)
        for _ in range(100):
            bias, b_star = rng.uniform(0, 1, 2)
            assert_allclose(
                bc.amplification(1.0 - bias, 1.0 - b_star),
                bc.amplification(bias, b_star),
                atol=1e-12,
            )


class TestMeanAmplification:
    def test_cancellation(self):
        assert bc.mean_amplification([0.1, -0.1]) == 0.0

    def test_single(self):
        assert bc.mean_amplification([0.2]) == 0.2

    def test_mean(self):
        assert_allclose(bc.mean_amplification([0.05, 0.15, 0.10]), 0.10, rtol=1e-15)

    def test_empty_errors(self):
        with pytest.raises(bc.UndefinedBiasError):
            bc.mean_amplification([])


def two_activity_setup(male_prob):
    corpus = make_corpus(
        [("a", [(0, "M", 0.0), (0, "W", 0.0)], 0)],
        names=["cooking"],
    )
    stats = stats_for(corpus, {0: (70, 30)})
    posteriors = [bc.InstancePosterior("a", np.array([male_prob, 1.0 - male_prob]))]
    predictions = [bc.map_predict(p) for p in posteriors]
    return corpus, stats, posteriors, predictions


class TestBuildReport:
    def test_violation_flag_above_margin(self):
        corpus, stats, posteriors, predictions = two_activity_setup(0.76)
        report = bc.build_report(corpus, stats, posteriors, predictions, gamma_eval=0.05)
        entry = report.entries[0]
        assert_allclose(entry.amp_dist, 0.06, atol=1e-12)
        assert entry.violated_dist
        assert report.n_violations_dist == 1

    def test_no_violation_within_margin(self):
        corpus, stats, posteriors, predictions = two_activity_setup(0.76)
        report = bc.build_report(corpus, stats, posteriors, predictions, gamma_eval=0.07)
        assert not report.entries[0].violated_dist
        assert report.n_violations_dist == 0

    def test_exact_match_is_fixed_point(self):
        corpus, stats, posteriors, predictions = two_activity_setup(0.70)
        report = bc.build_report(corpus, stats, posteriors, predictions, gamma_eval=0.05)
        assert_allclose(report.entries[0].amp_dist, 0.0, atol=1e-12)
        assert report.n_violations_dist == 0
        assert_allclose(report.mean_amp_dist, 0.0, atol=1e-12)

    def test_self_consistency_with_label_indicators(self):
        """Posteriors equal to the training label indicators reproduce the
        training ratio exactly, so amplification vanishes."""
        corpus = make_corpus(
            [
                ("a", [(0, "M", 0.0), (0, "W", 0.0)]),
                ("b", [(0, "M", 0.0), (0, "W", 0.0)]),
                ("c", [(0, "M", 0.0), (0, "W", 0.0)]),
                ("d", [(0, "M", 0.0), (0, "W", 0.0)]),
            ],
            names=["cooking"],
        )
        stats = stats_for(corpus, {0: (3, 1)})
        labels = [0, 0, 0, 1]
        posteriors = [
            point_mass(inst.id, k, len(inst.candidates))
            for inst, k in zip(corpus.instances, labels)
        ]
        report = bc.build_report(corpus, stats, posteriors, labels, gamma_eval=0.05)
        entry = report.entries[0]
        assert_allclose(entry.bias_dist, entry.b_star, rtol=1e-15)
        assert_allclose(entry.amp_dist, 0.0, atol=1e-15)
        assert_allclose(entry.amp_top, 0.0, atol=1e-15)

    def test_accuracy_only_with_full_gold(self):
        corpus, stats, posteriors, predictions = two_activity_setup(0.76)
        report = bc.build_report(corpus, stats, posteriors, predictions, gamma_eval=0.05)
        assert report.accuracy == 1.0
        no_gold = bc.Corpus(
            tuple(bc.Instance(i.id, i.candidates, None) for i in corpus.instances),
            corpus.activities,
        )
        report = bc.build_report(no_gold, stats, posteriors, predictions, gamma_eval=0.05)
        assert report.accuracy is None

    def test_not_evaluable_top_excluded_and_counted(self):
        corpus = make_corpus(
            [("a", [(0, "M", 0.0), (1, "M", 1.0)])],
            names=["cooking", "driving"],
        )
        stats = stats_for(corpus, {0: (50, 50), 1: (60, 40)})
        posteriors = [bc.InstancePosterior("a", np.array([0.4, 0.6]))]
        predictions = [1]
        report = bc.build_report(corpus, stats, posteriors, predictions, gamma_eval=0.05)
        by_name = {e.activity: e for e in report.entries}
        assert by_name["cooking"].bias_top is None
        assert not by_name["cooking"].violated_top
        assert report.n_not_evaluable_top == 1
        assert_allclose(report.mean_amp_top, by_name["driving"].amp_top, rtol=1e-15)

    @pytest.mark.parametrize("gamma_eval", [float("nan"), float("inf"), -1.0])
    def test_gamma_eval_must_be_finite_and_nonnegative(self, gamma_eval):
        corpus, stats, posteriors, predictions = two_activity_setup(0.76)
        with pytest.raises(bc.ValidationError, match="gamma_eval must be a finite nonnegative"):
            bc.build_report(corpus, stats, posteriors, predictions, gamma_eval=gamma_eval)

    def test_empty_constrained_set_errors(self):
        corpus = make_corpus([("a", [(0, "-", 0.0)])], names=["cooking"])
        stats = stats_for(corpus, {0: (10, 10)})
        with pytest.raises(bc.UndefinedBiasError, match="no constrained activities"):
            bc.build_report(corpus, stats, posteriors_of(corpus), [0], gamma_eval=0.05)

    def test_json_and_scatter_emission(self):
        corpus, stats, posteriors, predictions = two_activity_setup(0.76)
        report = bc.build_report(corpus, stats, posteriors, predictions, gamma_eval=0.05)
        json_buffer = io.StringIO()
        report.write_json(json_buffer)
        payload = json.loads(json_buffer.getvalue())
        assert payload["schema_version"] == 1
        assert payload["activities"][0]["activity"] == "cooking"
        assert payload["n_violations_dist"] == 1

        csv_buffer = io.StringIO()
        report.write_scatter_csv(csv_buffer)
        lines = csv_buffer.getvalue().splitlines()
        assert lines[0] == "activity,b_star,bias_dist,bias_top,violated_dist,violated_top"
        fields = lines[1].split(",")
        assert fields[0] == "cooking"
        assert float(fields[1]) == 0.7
        assert fields[4] == "true"
