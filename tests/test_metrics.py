"""Bias ratios, amplification, and report assembly."""

import dataclasses
import io
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import biascal as bc
from conftest import make_corpus, posteriors_of


def stats_for(corpus, counts):
    return bc.TrainingStats(
        {corpus.activities[aid]: bc.GenderCount(m, f) for aid, (m, f) in counts.items()}
    )


def point_masses(corpus, indices):
    """The table that puts each instance's whole mass on its candidate at ``indices``."""
    probs = np.zeros(corpus.n_rows)
    probs[corpus.offsets[:-1] + indices] = 1.0
    return bc.PosteriorTable(corpus, probs)


def report_of(corpus, posteriors, predictions=None, counts=None):
    """`build_report` at margin 0.05, with each activity's training counts
    (default one male and one female label) and MAP predictions by default."""
    counts = counts or {aid: (1, 1) for aid in range(corpus.n_activities)}
    if predictions is None:
        predictions = bc.map_predict(posteriors)
    return bc.build_report(corpus, stats_for(corpus, counts), posteriors, predictions, 0.05)


def pair_report(counts, shares):
    """The report of one instance per activity a, a male and a female
    candidate with male share ``shares[a]``, and training counts ``counts[a]``."""
    corpus = make_corpus([(f"i{a}", [(a, "M", 0.0), (a, "W", 0.0)]) for a in range(len(shares))])
    probs = np.ravel([[share, 1.0 - share] for share in shares])
    posteriors = bc.PosteriorTable(corpus, probs)
    return report_of(corpus, posteriors, counts=dict(enumerate(counts)))


class TestDatasetBias:
    """b*, the male share of an activity's gendered training labels."""

    def test_direct_ratio(self):
        corpus = make_corpus([("a", [(0, "M", 0.0)])], names=["cooking"])
        report = report_of(corpus, posteriors_of(corpus), counts={0: (30, 70)})
        assert report.entries[0].b_star == 0.3

    def test_balanced(self):
        corpus = make_corpus([("a", [(0, "M", 0.0)])], names=["cooking"])
        report = report_of(corpus, posteriors_of(corpus), counts={0: (50, 50)})
        assert report.entries[0].b_star == 0.5
        assert report.n_bstar_at_half == 1

    def test_zero_counts_error(self):
        # an activity without gendered training labels has no b*: it is left
        # out of the report, and a report of no activity is an error
        corpus = make_corpus([("a", [(0, "M", 0.0), (1, "W", 0.0)])], names=["cooking", "driving"])
        report = report_of(corpus, posteriors_of(corpus), counts={0: (0, 0), 1: (1, 3)})
        assert [e.activity for e in report.entries] == ["driving"]
        with pytest.raises(bc.UndefinedBiasError, match="^no constrained activities$"):
            report_of(corpus, posteriors_of(corpus), counts={0: (0, 0)})


class TestBiasInDistribution:
    """The male share of an activity's gendered posterior mass."""

    def test_single_instance(self):
        corpus = make_corpus([("a", [(0, "M", 0.0), (0, "W", 0.0)])])
        posteriors = bc.PosteriorTable(corpus, [0.6, 0.4])
        assert_allclose(report_of(corpus, posteriors).entries[0].bias_dist, 0.6, rtol=1e-15)

    def test_two_instances_hand_sum(self):
        # (0.3 + 0.3) / (0.4 + 0.4) evaluated by hand
        corpus = make_corpus(
            [
                ("a", [(0, "M", 0.0), (0, "W", 0.0), (1, "-", 0.0)]),
                ("b", [(0, "M", 0.0), (0, "W", 0.0), (1, "-", 0.0)]),
            ]
        )
        posteriors = bc.PosteriorTable(corpus, [0.3, 0.1, 0.6] * 2)
        assert_allclose(report_of(corpus, posteriors).entries[0].bias_dist, 0.75, rtol=1e-15)

    def test_all_ungendered_error(self):
        # the posterior puts all mass on ungendered candidates; the error
        # names the first such activity in constraint order
        corpus = make_corpus(
            [("a", [(0, "M", 0.0), (0, "W", 0.0), (2, "-", 0.0)]),
             ("b", [(1, "M", 0.0), (2, "-", 0.0)])],
            names=["cooking", "driving", "other"],
        )
        posteriors = bc.PosteriorTable(corpus, [0.0, 0.0, 1.0, 0.0, 1.0])
        with pytest.raises(bc.UndefinedBiasError,
                           match="^activity 'cooking' has no gendered posterior mass$"):
            report_of(corpus, posteriors)
        posteriors = bc.PosteriorTable(corpus, [0.5, 0.5, 0.0, 0.0, 1.0])
        with pytest.raises(bc.UndefinedBiasError,
                           match="^activity 'driving' has no gendered posterior mass$"):
            report_of(corpus, posteriors)

    def test_invariant_to_other_mass(self):
        """Changing ungendered or other-activity mass while preserving the
        gendered mass of the target activity leaves the ratio unchanged."""
        corpus_a = make_corpus([("a", [(0, "M", 0.0), (0, "W", 0.0), (1, "-", 0.0)])])
        corpus_b = make_corpus(
            [("a", [(0, "M", 0.0), (0, "W", 0.0), (1, "-", 0.0), (1, "M", 0.0)])]
        )
        p_a = bc.PosteriorTable(corpus_a, [0.30, 0.10, 0.60])
        p_b = bc.PosteriorTable(corpus_b, [0.30, 0.10, 0.25, 0.35])
        assert_allclose(
            report_of(corpus_a, p_a).entries[0].bias_dist,
            report_of(corpus_b, p_b).entries[0].bias_dist,
            rtol=1e-15,
        )

    def test_invariant_to_uniform_gendered_scaling(self):
        corpus = make_corpus([("a", [(0, "M", 0.0), (0, "W", 0.0), (1, "-", 0.0)])])
        small = bc.PosteriorTable(corpus, [0.30, 0.10, 0.60])
        doubled = bc.PosteriorTable(corpus, [0.60, 0.20, 0.20])
        assert_allclose(
            report_of(corpus, small).entries[0].bias_dist,
            report_of(corpus, doubled).entries[0].bias_dist,
            rtol=1e-15,
        )


class TestBiasInTopPredictions:
    """The male share of an activity's gendered MAP predictions."""

    def test_counting(self):
        corpus = make_corpus(
            [
                ("a", [(0, "M", 0.0), (0, "W", 0.0)]),
                ("b", [(0, "M", 0.0), (0, "W", 0.0)]),
                ("c", [(0, "M", 0.0), (0, "W", 0.0)]),
            ]
        )
        report = report_of(corpus, posteriors_of(corpus), [0, 0, 1])
        assert_allclose(report.entries[0].bias_top, 2 / 3, rtol=1e-15)

    def test_not_evaluable(self):
        corpus = make_corpus([("a", [(0, "M", 0.0), (1, "-", 0.0)])])
        report = report_of(corpus, posteriors_of(corpus), [1])
        entry = report.entries[0]
        assert entry.bias_top is None and entry.amp_top is None and not entry.violated_top
        assert report.mean_amp_top is None
        assert report.n_not_evaluable_top == 1

    def test_single_male(self):
        corpus = make_corpus([("a", [(0, "M", 0.0), (0, "W", 0.0)])])
        assert report_of(corpus, posteriors_of(corpus), [0]).entries[0].bias_top == 1.0

    def test_matches_distribution_on_point_masses(self):
        corpus = make_corpus(
            [
                ("a", [(0, "M", 0.0), (0, "W", 0.0)]),
                ("b", [(0, "W", 0.0), (0, "M", 0.0)]),
                ("c", [(0, "M", 0.0), (1, "-", 0.0)]),
            ]
        )
        predictions = [0, 0, 1]
        entry = report_of(corpus, point_masses(corpus, predictions), predictions).entries[0]
        assert_allclose(entry.bias_top, entry.bias_dist, rtol=1e-15)

    @pytest.mark.parametrize(
        "predictions, message",
        [([0.9, 0.0], "predictions must be integer indices"),
         ([True, False], "predictions must be integer indices"),
         ([0, -1], r"predictions\[1\] = -1 is out of range"),
         ([2, 0], r"predictions\[0\] = 2 is out of range"),
         ([0], "1 predictions for 2 instances"),
         ([[0], [0]], r"predictions must be one-dimensional, got shape \(2, 1\)")],
        ids=["fraction", "bool", "negative", "past_the_end", "too_few", "two_dimensional"],
    )
    def test_predictions_must_be_candidate_indices(self, predictions, message):
        corpus = make_corpus([("a", [(0, "M", 0.0), (0, "W", 0.0)]), ("b", [(0, "W", 0.0)])])
        with pytest.raises(bc.ValidationError, match=message):
            report_of(corpus, posteriors_of(corpus), predictions)

    def test_empty_predictions_for_an_empty_corpus(self):
        # they pass the prediction checks; the corpus then has no activity to report
        corpus = make_corpus([], names=["act"])
        with pytest.raises(bc.UndefinedBiasError, match="^no constrained activities$"):
            report_of(corpus, posteriors_of(corpus), [])


class TestAmplification:
    """The deviation of a ratio from b*, signed toward the training majority."""

    def test_male_leaning_amplified(self):
        entry = pair_report([(7, 3)], [0.8]).entries[0]
        assert_allclose(entry.amp_dist, 0.1, atol=1e-15)
        assert_allclose(entry.amp_top, 0.3, atol=1e-15)

    def test_female_leaning_amplified(self):
        entry = pair_report([(3, 7)], [0.1]).entries[0]
        assert_allclose(entry.amp_dist, 0.2, atol=1e-15)
        assert_allclose(entry.amp_top, 0.3, atol=1e-15)

    def test_balanced_training_ratio_contributes_zero(self):
        entry = pair_report([(5, 5)], [0.9]).entries[0]
        assert entry.amp_dist == 0.0 and entry.amp_top == 0.0

    def test_relabeling_invariance(self):
        # swapping the gender labels flips both the sign convention and the
        # deviation, leaving the score unchanged
        rng = np.random.default_rng(0)
        for _ in range(100):
            share = rng.uniform(0, 1)
            male, female = (int(n) for n in rng.integers(1, 100, 2))
            entry = pair_report([(male, female)], [share]).entries[0]
            swapped = pair_report([(female, male)], [1.0 - share]).entries[0]
            assert_allclose(swapped.amp_dist, entry.amp_dist, atol=1e-12)
            assert_allclose(swapped.amp_top, entry.amp_top, atol=1e-12)


class TestMeanAmplification:
    """The mean amplification over the constrained activities."""

    def test_cancellation(self):
        report = pair_report([(3, 1), (3, 1)], [0.875, 0.625])
        assert [e.amp_dist for e in report.entries] == [0.125, -0.125]
        assert report.mean_amp_dist == 0.0

    def test_single(self):
        report = pair_report([(3, 1)], [0.875])
        assert report.mean_amp_dist == report.entries[0].amp_dist == 0.125
        assert report.mean_amp_top == report.entries[0].amp_top == 0.25

    def test_mean(self):
        report = pair_report([(3, 1)] * 3, [0.8, 0.9, 0.85])
        assert_allclose([e.amp_dist for e in report.entries], [0.05, 0.15, 0.10], rtol=1e-14)
        assert_allclose(report.mean_amp_dist, 0.10, rtol=1e-14)

    def test_empty_errors(self):
        # no activity's top prediction is gendered: the top mean is None
        corpus = make_corpus([("a", [(0, "M", 0.0), (1, "-", 1.0)])])
        assert report_of(corpus, posteriors_of(corpus)).mean_amp_top is None
        # no constrained activity: there is no mean, and no report
        corpus = make_corpus([("a", [(0, "-", 0.0)])])
        with pytest.raises(bc.UndefinedBiasError, match="^no constrained activities$"):
            report_of(corpus, posteriors_of(corpus))


def two_activity_setup(male_prob):
    corpus = make_corpus(
        [("a", [(0, "M", 0.0), (0, "W", 0.0)], 0)],
        names=["cooking"],
    )
    stats = stats_for(corpus, {0: (70, 30)})
    posteriors = bc.PosteriorTable(corpus, [male_prob, 1.0 - male_prob])
    predictions = bc.map_predict(posteriors)
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
        posteriors = point_masses(corpus, labels)
        report = bc.build_report(corpus, stats, posteriors, labels, gamma_eval=0.05)
        entry = report.entries[0]
        assert_allclose(entry.bias_dist, entry.b_star, rtol=1e-15)
        assert_allclose(entry.amp_dist, 0.0, atol=1e-15)
        assert_allclose(entry.amp_top, 0.0, atol=1e-15)

    def test_accuracy_only_with_full_gold(self):
        corpus, stats, posteriors, predictions = two_activity_setup(0.76)
        report = bc.build_report(corpus, stats, posteriors, predictions, gamma_eval=0.05)
        assert report.accuracy == 1.0
        no_gold = dataclasses.replace(corpus, gold=np.full(len(corpus), -1))
        posteriors = bc.PosteriorTable(no_gold, posteriors.probs)
        report = bc.build_report(no_gold, stats, posteriors, predictions, gamma_eval=0.05)
        assert report.accuracy is None

    def test_not_evaluable_top_excluded_and_counted(self):
        corpus = make_corpus(
            [("a", [(0, "M", 0.0), (1, "M", 1.0)])],
            names=["cooking", "driving"],
        )
        stats = stats_for(corpus, {0: (50, 50), 1: (60, 40)})
        posteriors = bc.PosteriorTable(corpus, [0.4, 0.6])
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

    def test_fractional_predictions_are_refused(self):
        corpus, stats, posteriors, predictions = two_activity_setup(0.76)
        shifted = np.asarray(predictions) + 0.9
        with pytest.raises(bc.ValidationError, match="predictions must be integer indices"):
            bc.build_report(corpus, stats, posteriors, shifted, gamma_eval=0.05)

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

    def test_a_path_gets_the_bytes_a_stream_gets(self, tmp_path):
        corpus, stats, posteriors, predictions = two_activity_setup(0.76)
        report = bc.build_report(corpus, stats, posteriors, predictions, gamma_eval=0.05)
        for write in (report.write_json, report.write_scatter_csv):
            buffer = io.StringIO()
            write(buffer)
            assert not buffer.closed
            write(tmp_path / "out")
            assert (tmp_path / "out").read_text(encoding="utf-8") == buffer.getvalue()
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
