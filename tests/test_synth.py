"""Synthetic corpus generation: planted bias, boost monotonicity, determinism,
and the array assembly against a per-instance one."""

import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biascal as bc
import loop_reference as ref
from biascal import synth
from biascal.corpus import UNGENDERED_CODE
from conftest import HUGE_INTS, HUGE_SHOWN, INT64_SHOWN


def serialize(corpus, stats):
    corpus_buffer, stats_buffer = io.StringIO(), io.StringIO()
    bc.dump_corpus(corpus, corpus_buffer)
    bc.dump_training_stats(stats, stats_buffer)
    return corpus_buffer.getvalue(), stats_buffer.getvalue()


def report_of(corpus, stats):
    posteriors = bc.instance_posterior(corpus)
    predictions = bc.map_predict(posteriors)
    return bc.build_report(corpus, stats, posteriors, predictions, gamma_eval=0.05)


class TestConfigValidation:
    def test_requires_two_candidates(self):
        with pytest.raises(bc.ValidationError):
            bc.SynthConfig(candidates_per_instance=1)

    def test_requires_ordered_bias_range(self):
        with pytest.raises(bc.ValidationError):
            bc.SynthConfig(bias_range=(0.9, 0.1))

    def test_requires_nonnegative_boost(self):
        with pytest.raises(bc.ValidationError):
            bc.SynthConfig(amplification_boost=-0.5)

    @pytest.mark.parametrize("field", ["n_activities", "instances_per_activity"])
    def test_requires_positive_sizes(self, field):
        with pytest.raises(bc.ValidationError, match="must be positive"):
            bc.SynthConfig(**{field: 0})

    @pytest.mark.parametrize("field, value", [
        ("n_activities", 2.5), ("instances_per_activity", True),
        ("candidates_per_instance", 3.0), ("seed", "1"),
        pytest.param("seed", -HUGE_INTS["past_digit_limit"], id="seed-negative_past_digit_limit"),
    ])
    def test_sizes_and_seed_must_be_integers(self, field, value):
        shown = INT64_SHOWN if type(value) is int else repr(value)
        with pytest.raises(bc.ValidationError,
                           match=f"^{field} must be an integer, got {re.escape(shown)}$"):
            bc.SynthConfig(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("amplification_boost", True, "amplification_boost must be a real number, got True"),
        ("gold_noise", "x", "gold_noise must be a real number, got 'x'"),
        ("gold_noise", np.bool_(0), f"gold_noise must be a real number, got {np.bool_(0)!r}"),
        ("bias_range", (0, True), "bias_range hi must be a real number, got True"),
        ("bias_range", ("0.1", 0.9), "bias_range lo must be a real number, got '0.1'"),
        ("bias_range", (0.1,), "bias_range must be a (lo, hi) pair, got (0.1,)"),
        ("bias_range", (0.1, 0.2, 0.3), "bias_range must be a (lo, hi) pair, got (0.1, 0.2, 0.3)"),
        ("bias_range", 0.5, "bias_range must be a (lo, hi) pair, got 0.5"),
        *[pytest.param(field, value, f"{field} must be a real number, got {HUGE_SHOWN}",
                       id=f"{field}-{name}")
          for field in ("amplification_boost", "gold_noise") for name, value in HUGE_INTS.items()],
        pytest.param("bias_range", (0, HUGE_INTS["past_digit_limit"]),
                     f"bias_range hi must be a real number, got {HUGE_SHOWN}",
                     id="bias_range-past_digit_limit"),
    ])
    def test_real_settings_must_be_reals(self, field, value, message):
        with pytest.raises(bc.ValidationError, match=f"^{re.escape(message)}$"):
            bc.SynthConfig(**{field: value})

    def test_real_settings_are_stored_as_floats(self):
        config = bc.SynthConfig(bias_range=[0, np.float32(0.5)], amplification_boost=np.int64(1),
                                gold_noise=0)
        assert config == bc.SynthConfig(bias_range=(0.0, 0.5), amplification_boost=1.0,
                                        gold_noise=0.0)
        assert {type(x) for x in (*config.bias_range, config.amplification_boost,
                                  config.gold_noise)} == {float}

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(bc.ValidationError, match="^seed must be nonnegative, got -1$"):
            bc.SynthConfig(seed=-1)

    def test_numpy_integers_are_integers(self):
        config = bc.SynthConfig(n_activities=np.int64(2), instances_per_activity=np.uint8(3),
                                candidates_per_instance=np.int32(3), seed=np.int16(4))
        plain = bc.SynthConfig(n_activities=2, instances_per_activity=3,
                               candidates_per_instance=3, seed=4)
        assert serialize(*bc.generate(config)) == serialize(*bc.generate(plain))

    @pytest.mark.parametrize("gold_noise", [-0.1, 1.5, float("nan")])
    def test_requires_gold_noise_in_the_unit_interval(self, gold_noise):
        with pytest.raises(bc.ValidationError, match="gold_noise must lie in"):
            bc.SynthConfig(gold_noise=gold_noise)


class TestGenerate:
    def test_shape(self):
        corpus, stats = bc.generate(
            bc.SynthConfig(n_activities=4, instances_per_activity=7, candidates_per_instance=5)
        )
        assert len(corpus) == 28
        assert corpus.n_activities == 4
        assert np.diff(corpus.offsets).tolist() == [5] * 28
        assert set(corpus.gold.tolist()) <= {0, 1}
        assert len(stats.counts) == 4

    def test_deterministic_given_seed(self):
        config = bc.SynthConfig(n_activities=3, instances_per_activity=10, seed=42)
        first = serialize(*bc.generate(config))
        second = serialize(*bc.generate(config))
        assert first == second

    def test_different_seeds_differ(self):
        base = bc.SynthConfig(n_activities=3, instances_per_activity=10, seed=1)
        other = bc.SynthConfig(n_activities=3, instances_per_activity=10, seed=2)
        assert serialize(*bc.generate(base)) != serialize(*bc.generate(other))

    def test_planted_bias_recovered_exactly(self):
        corpus, stats = bc.generate(
            bc.SynthConfig(n_activities=6, instances_per_activity=37, seed=5)
        )
        assert all(count.total == 37 for count in stats.counts.values())
        b_star = {e.activity: e.b_star for e in report_of(corpus, stats).entries}
        assert b_star == {name: count.male / 37 for name, count in stats.counts.items()}

    def test_zero_boost_matches_training_bias(self):
        corpus, stats = bc.generate(
            bc.SynthConfig(
                n_activities=5,
                instances_per_activity=1000,
                amplification_boost=0.0,
                seed=8,
            )
        )
        entries = report_of(corpus, stats).entries
        assert len(entries) == 5
        for entry in entries:
            assert abs(entry.bias_dist - entry.b_star) <= 0.02

    def test_positive_boost_amplifies_toward_majority(self):
        corpus, stats = bc.generate(
            bc.SynthConfig(
                n_activities=5,
                instances_per_activity=400,
                bias_range=(0.6, 0.9),
                amplification_boost=1.0,
                seed=9,
            )
        )
        entries = report_of(corpus, stats).entries
        assert len(entries) == 5
        assert all(entry.amp_dist > 0 for entry in entries)

    def test_mean_amplification_monotone_in_boost(self):
        amps = []
        for boost in (0.0, 0.25, 0.5, 1.0):
            corpus, stats = bc.generate(
                bc.SynthConfig(
                    n_activities=10,
                    instances_per_activity=300,
                    amplification_boost=boost,
                    seed=13,
                )
            )
            amps.append(report_of(corpus, stats).mean_amp_dist)
        assert all(a < b for a, b in zip(amps, amps[1:]))

    def test_round_trips_through_files(self):
        corpus, stats = bc.generate(
            bc.SynthConfig(n_activities=3, instances_per_activity=5, seed=21)
        )
        corpus_text, stats_text = serialize(corpus, stats)
        loaded = bc.load_corpus(io.StringIO(corpus_text))
        loaded_stats = bc.load_training_stats(io.StringIO(stats_text))
        assert len(loaded) == len(corpus)
        assert loaded_stats == stats
        # every gendered pair is present so every activity stays constrained
        assert len(bc.constrained_activities(loaded_stats, loaded)) == 3


class TestArrayAssembly:
    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        n_activities=st.integers(1, 4),
        instances=st.integers(1, 10),
        candidates=st.integers(2, 6),
        bias_range=st.sampled_from([(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5), (0.1, 0.9)]),
        boost=st.sampled_from([0.0, 1.0, 5.0]),
        gold_noise=st.sampled_from([0.0, 0.05, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_instance_assembly(self, n_activities, instances, candidates,
                                           bias_range, boost, gold_noise, seed):
        config = bc.SynthConfig(n_activities, instances, candidates, bias_range, boost,
                                gold_noise, seed)
        corpus, stats = bc.generate(config)
        want_corpus, want_stats = ref.synth_assemble(config, *synth._draw(config))
        assert corpus == want_corpus
        assert stats == want_stats

    @pytest.mark.parametrize("b_star", [0.0, 1.0])
    @pytest.mark.parametrize("gold_noise", [0.0, 0.05, 0.3, 1.0])
    def test_gold_noise_rate_is_binomial(self, b_star, gold_noise):
        # at b* = 1 every gold is male unless noise flips it, at b* = 0 the other way
        corpus, _ = bc.generate(bc.SynthConfig(
            n_activities=4, instances_per_activity=2500, bias_range=(b_star, b_star),
            gold_noise=gold_noise, seed=31))
        flipped = int(np.count_nonzero(corpus.gold == (0 if b_star == 0.0 else 1)))
        n = len(corpus)
        sigma = math.sqrt(n * gold_noise * (1.0 - gold_noise))
        assert abs(flipped - n * gold_noise) <= 4.0 * sigma

    def test_fillers_span_every_activity(self):
        corpus, _ = bc.generate(bc.SynthConfig(
            n_activities=7, instances_per_activity=50, candidates_per_instance=6, seed=32))
        fillers = corpus.activity[corpus.gender == UNGENDERED_CODE]
        assert fillers.size == 7 * 50 * 4
        assert set(fillers.tolist()) == set(range(7))
