"""Dual objective and gradient, projected Adam and Newton ascent, calibration and checkpoints."""

import dataclasses
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq
from scipy.special import rel_entr

import biascal as bc
from biascal import solver
from biascal.distribution import segment_sum
from biascal.metrics import activity_mass
from biascal.solver import _batch_step, _check_finite, featurize
from conftest import (
    HUGE_INTS,
    HUGE_SHOWN,
    INT64_SHOWN,
    feasible_single_activity_corpus,
    make_corpus,
    posteriors_of,
    primal_project,
    random_constraints,
    random_corpus,
    rows_of,
    take_instances,
)


def half_toy(male_prob=0.5, b_star=0.5, gamma=0.0):
    """One instance with a male/female pair; dual coordinate 0 acts as the
    scalar of the closed-form -log cosh objective."""
    corpus = make_corpus(
        [("i", [(0, "M", math.log(male_prob)), (0, "W", math.log(1.0 - male_prob))])],
        names=["act"],
    )
    cs = bc.ConstraintSet((0,), np.array([b_star]), gamma)
    return corpus, posteriors_of(corpus), cs


def male_ratio(corpus, table):
    """Activity 0's male share of its gendered posterior mass."""
    male, gendered = activity_mass(corpus, table.probs)
    return male[0] / gendered[0]


def same_table(got, want):
    """Two posterior tables belong to the same corpus and hold the same probabilities."""
    return got.corpus == want.corpus and np.array_equal(got.probs, want.probs)


def one_gender_corpus():
    """Two instances whose only gendered candidates are male "cook"s, with a
    training ratio of 3/7. Each instance can put all its mass on its ungendered
    candidate, so the system is feasible, but only on its boundary: the dual is
    bounded by -sum_i log p_i(other) = 2.16762 and has no maximum."""
    corpus = make_corpus(
        [("a", [(0, "M", 1.0), (1, "-", 0.0)]), ("b", [(0, "M", 0.5), (1, "-", 0.2)])],
        names=["cook", "other"],
    )
    return corpus, bc.TrainingStats({"cook": bc.GenderCount(3, 7)})


# Activity_001 has b* = 0 and a male share of 1e-9 in every instance. The
# corpus is the one `bc.generate(bc.SynthConfig(2, 3, 2, seed=27027))` gave
# while the generator drew one instance at a time, kept as text so that the
# test does not follow the generator's random stream.
B_STAR_ZERO_CORPUS = """\
{"id": "activity_000_0000", "gold": 1, "candidates": [{"activity": "activity_000", "gender": "M", "score": -0.39162464759904086}, {"activity": "activity_000", "gender": "W", "score": -1.1268814899716493}]}
{"id": "activity_000_0001", "gold": 0, "candidates": [{"activity": "activity_000", "gender": "M", "score": -0.33403884064395184}, {"activity": "activity_000", "gender": "W", "score": -1.258872491401399}]}
{"id": "activity_000_0002", "gold": 0, "candidates": [{"activity": "activity_000", "gender": "M", "score": -0.3223830535567893}, {"activity": "activity_000", "gender": "W", "score": -1.2888796529214177}]}
{"id": "activity_001_0000", "gold": 1, "candidates": [{"activity": "activity_001", "gender": "M", "score": -20.72326583694641}, {"activity": "activity_001", "gender": "W", "score": -9.999999722180686e-10}]}
{"id": "activity_001_0001", "gold": 1, "candidates": [{"activity": "activity_001", "gender": "M", "score": -20.72326583694641}, {"activity": "activity_001", "gender": "W", "score": -9.999999722180686e-10}]}
{"id": "activity_001_0002", "gold": 1, "candidates": [{"activity": "activity_001", "gender": "M", "score": -20.72326583694641}, {"activity": "activity_001", "gender": "W", "score": -9.999999722180686e-10}]}
"""
B_STAR_ZERO_STATS = ('{"activity_000": {"male": 2, "female": 1}, '
                     '"activity_001": {"male": 0, "female": 3}}')


def full_batch_config(**kwargs):
    defaults = dict(mode="full_batch", convergence_tol=1e-9)
    defaults.update(kwargs)
    return bc.SolverConfig(**defaults)


def assert_same_state(state, expected):
    assert np.array_equal(state.lam, expected.lam)
    assert np.array_equal(state.first_moment, expected.first_moment)
    assert np.array_equal(state.second_moment, expected.second_moment)
    assert (state.step, state.learning_rate) == (expected.step, expected.learning_rate)


class TestDualObjective:
    def test_zero_at_origin(self):
        corpus, posteriors, cs = half_toy()
        assert_allclose(bc.dual_objective(np.zeros(2), corpus, posteriors, cs), 0.0, atol=1e-12)

    def test_featureless_instance_contributes_nothing(self):
        corpus = make_corpus([("i", [(0, "-", 0.7)])], names=["act"])
        cs = bc.ConstraintSet((0,), np.array([0.4]), 0.01)
        posteriors = posteriors_of(corpus)
        for lam in ([0.0, 0.0], [3.0, 1.0], [20.0, 0.5]):
            assert_allclose(
                bc.dual_objective(np.array(lam), corpus, posteriors, cs), 0.0, atol=1e-12
            )

    def test_empty_corpus_is_zero(self):
        corpus = make_corpus([], names=["act"])
        cs = bc.ConstraintSet((0,), np.array([0.4]), 0.01)
        table = bc.instance_posterior(corpus)
        assert bc.dual_objective(np.array([1.0, 2.0]), corpus, table, cs) == 0.0
        gradient = bc.dual_gradient(np.array([1.0, 2.0]), corpus, table, cs)
        assert np.array_equal(gradient, np.zeros(2))

    def test_log_cosh_closed_form(self):
        corpus, posteriors, cs = half_toy()
        for s in (0.0, 0.3, 1.7, 4.0):
            expected = -math.log(math.cosh(0.5 * s))
            actual = bc.dual_objective(np.array([s, 0.0]), corpus, posteriors, cs)
            assert_allclose(actual, expected, atol=1e-12)

    def test_concavity_along_random_segments(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            corpus = random_corpus(rng, n_activities=2, max_instances=8)
            cs = random_constraints(rng, corpus, gamma=0.01)
            if cs is None:
                continue
            posteriors = posteriors_of(corpus)
            lam_a = rng.uniform(0, 5, cs.dimension)
            lam_b = rng.uniform(0, 5, cs.dimension)
            mid = 0.5 * (lam_a + lam_b)
            j_mid = bc.dual_objective(mid, corpus, posteriors, cs)
            chord = 0.5 * (
                bc.dual_objective(lam_a, corpus, posteriors, cs)
                + bc.dual_objective(lam_b, corpus, posteriors, cs)
            )
            assert j_mid >= chord - 1e-9


class TestDualGradient:
    def test_at_origin_equals_corpus_expectation(self):
        # the reweighted posterior at lam = 0 is the base posterior, so the
        # gradient (the derivative of the objective, verified below by finite
        # differences) reduces to the plain feature expectation
        rng = np.random.default_rng(41)
        corpus = random_corpus(rng, n_activities=2, max_instances=6)
        cs = random_constraints(rng, corpus, gamma=0.01)
        posteriors = posteriors_of(corpus)
        gradient = bc.dual_gradient(np.zeros(cs.dimension), corpus, posteriors, cs)
        assert_allclose(gradient, bc.corpus_expectation(corpus, posteriors, cs), atol=1e-12)

    def test_featureless_batch_gives_zero(self):
        corpus = make_corpus(
            [("i", [(0, "-", 0.7)]), ("j", [(0, "-", 0.1), (0, "-", 0.2)])], names=["act"]
        )
        cs = bc.ConstraintSet((0,), np.array([0.4]), 0.01)
        gradient = bc.dual_gradient(np.zeros(2), corpus, posteriors_of(corpus), cs)
        assert_allclose(gradient, np.zeros(2), atol=0)

    def test_log_cosh_derivative(self):
        corpus, posteriors, cs = half_toy()
        for s in (0.0, 0.4, 2.0):
            gradient = bc.dual_gradient(np.array([s, 0.0]), corpus, posteriors, cs)
            assert_allclose(gradient[0], -0.5 * math.tanh(0.5 * s), atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            corpus = random_corpus(rng, n_activities=2, max_instances=8)
            cs = random_constraints(rng, corpus, gamma=0.01)
            if cs is None:
                continue
            posteriors = posteriors_of(corpus)
            lam = rng.uniform(0, 3, cs.dimension)
            gradient = bc.dual_gradient(lam, corpus, posteriors, cs)
            for j in range(cs.dimension):
                h = 1e-4 * (1 + abs(lam[j]))
                bump = np.zeros(cs.dimension)
                bump[j] = h
                fd = (
                    bc.dual_objective(lam + bump, corpus, posteriors, cs)
                    - bc.dual_objective(lam - bump, corpus, posteriors, cs)
                ) / (2 * h)
                assert abs(fd - gradient[j]) <= 1e-5 * max(1.0, abs(gradient[j]))


class TestSolve:
    def test_feasible_input_keeps_lambda_zero(self):
        corpus, posteriors, cs = half_toy(male_prob=0.5, b_star=0.5, gamma=0.01)
        state = bc.solve(corpus, posteriors, cs, full_batch_config())
        assert np.array_equal(state.lam, np.zeros(2))

    def test_boundary_solution_matches_stationarity(self):
        # with a zero margin and a balanced target ratio the two dual
        # coordinates act through their difference only, so the optimum is a
        # ray; the difference must equal the 1-D stationarity root and the
        # calibrated ratio must sit exactly on the boundary
        corpus, posteriors, cs = half_toy(male_prob=0.7, b_star=0.5, gamma=0.0)
        state = bc.solve(corpus, posteriors, cs, full_batch_config())

        def upper_gradient(s):
            return bc.dual_gradient(np.array([s, 0.0]), corpus, posteriors, cs)[0]

        root = brentq(upper_gradient, 0.0, 10.0, xtol=1e-12)
        assert_allclose(root, math.log(7.0 / 3.0), atol=1e-10)
        assert_allclose(state.lam[0] - state.lam[1], root, atol=1e-6)
        calibrated = bc.calibrate(corpus, posteriors, cs, state.lam)
        assert_allclose(male_ratio(corpus, calibrated), 0.5, atol=1e-6)

    def test_boundary_solution_unique_with_margin(self):
        # a positive margin lifts the ray degeneracy: the optimum pins the
        # lower-side multiplier at zero
        corpus, posteriors, cs = half_toy(male_prob=0.7, b_star=0.5, gamma=0.01)
        state = bc.solve(corpus, posteriors, cs, full_batch_config())

        def upper_gradient(s):
            return bc.dual_gradient(np.array([s, 0.0]), corpus, posteriors, cs)[0]

        root = brentq(upper_gradient, 0.0, 10.0, xtol=1e-12)
        assert_allclose(state.lam[0], root, atol=1e-5)
        assert state.lam[1] <= 1e-6

    def test_duplicated_corpus_same_solution(self):
        rng = np.random.default_rng(71)
        corpus, cs = feasible_single_activity_corpus(rng, gamma=0.01)
        n = len(corpus)
        doubled = take_instances(corpus, [*range(n), *range(n)],
                                 ids=corpus.ids + tuple(f"{i}_copy" for i in corpus.ids))
        state_single = bc.solve(corpus, posteriors_of(corpus), cs, full_batch_config())
        state_double = bc.solve(doubled, posteriors_of(doubled), cs, full_batch_config())
        assert_allclose(state_double.lam, state_single.lam, atol=1e-6)

    def test_kkt_at_convergence(self):
        rng = np.random.default_rng(81)
        for trial in range(6):
            corpus, cs = feasible_single_activity_corpus(rng, gamma=[0.001, 0.05][trial % 2])
            posteriors = posteriors_of(corpus)
            config = full_batch_config()
            state = bc.solve(corpus, posteriors, cs, config)
            gradient = bc.dual_gradient(state.lam, corpus, posteriors, cs)
            tol = config.convergence_tol
            for j in range(cs.dimension):
                if state.lam[j] <= tol:
                    assert gradient[j] <= tol
                else:
                    assert abs(gradient[j]) <= tol

    def test_primal_feasibility_after_calibration(self):
        rng = np.random.default_rng(91)
        for trial in range(6):
            gamma = [0.001, 0.05][trial % 2]
            corpus, cs = feasible_single_activity_corpus(rng, gamma=gamma)
            posteriors = posteriors_of(corpus)
            state = bc.solve(corpus, posteriors, cs, full_batch_config())
            calibrated = bc.calibrate(corpus, posteriors, cs, state.lam)
            ratio = male_ratio(corpus, calibrated)
            assert abs(ratio - float(cs.b_star[0])) <= gamma + 1e-6

    def test_primal_feasibility_beside_an_activity_at_b_star_zero(self):
        # activity_001's pair stays at zero with a negative gradient over a
        # near-zero curvature; were that huge direction kept, the step bound
        # would shrink activity_000's step to 4e-7 and leave it violated
        # after 1000 steps
        corpus = bc.load_corpus(io.StringIO(B_STAR_ZERO_CORPUS))
        stats = bc.load_training_stats(io.StringIO(B_STAR_ZERO_STATS))
        cs = bc.ConstraintSet.from_stats(corpus, stats, 0.01)
        posteriors = bc.instance_posterior(corpus)
        state = bc.solve(corpus, posteriors, cs, full_batch_config(max_steps=1000))
        calibrated = bc.calibrate(corpus, posteriors, cs, state.lam)
        ratio = male_ratio(corpus, calibrated)
        assert abs(ratio - float(cs.b_star[0])) <= 0.01 + 1e-6

    @pytest.mark.parametrize("case", ["one_gender_activity", "random_seed_3"])
    def test_unbounded_dual_returns_a_finite_state(self, case):
        # neither dual has a maximum: the one-gender system is feasible only on
        # its boundary, at infinite lam, and random_seed_3's is infeasible, its
        # dual unbounded; full-batch must still stop within max_steps with a
        # finite vector
        if case == "one_gender_activity":
            corpus, stats = one_gender_corpus()
            cs = bc.ConstraintSet.from_stats(corpus, stats, 0.001)
        else:
            rng = np.random.default_rng(3)
            corpus = random_corpus(rng, 3, max_instances=8)
            cs = random_constraints(rng, corpus, 0.01)
        config = full_batch_config()
        state = bc.solve(corpus, posteriors_of(corpus), cs, config)
        assert 0 < state.step <= config.max_steps
        assert np.all(np.isfinite(state.lam)) and state.lam.max() > 10.0

    def test_one_gender_activity_is_bounded_but_not_attained(self):
        corpus, stats = one_gender_corpus()
        cs = bc.ConstraintSet.from_stats(corpus, stats, 0.001)
        posteriors = posteriors_of(corpus)
        bound = -sum(math.log(p) for p in posteriors.probs[corpus.gender == 0].tolist())
        assert round(bound, 5) == 2.16762
        # J climbs towards the bound while lam grows; after about 35 Newton
        # steps exp(-lam f) underflows and J rounds to the bound itself
        previous_objective, previous_lam = -math.inf, 0.0
        for max_steps in (10, 20, 30):
            state = bc.solve(corpus, posteriors, cs, full_batch_config(max_steps=max_steps))
            objective = bc.dual_objective(state.lam, corpus, posteriors, cs)
            assert previous_objective < objective < bound
            assert state.lam[0] > previous_lam
            previous_objective, previous_lam = objective, state.lam[0]
        assert bound - objective <= 1e-12
        # the full solve stops at working precision, with J not beyond the bound
        state = bc.solve(corpus, posteriors, cs, full_batch_config())
        assert state.lam[0] > previous_lam
        assert 0.0 <= bound - bc.dual_objective(state.lam, corpus, posteriors, cs) <= 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.001, 0.01, 0.05])
    def test_full_batch_without_ungendered_candidates_takes_few_steps(self, gamma):
        # each instance is one activity's M and W candidate, so a pair's two
        # features sum to -2 gamma on every row: moving both coordinates of a
        # pair together barely changes J, and a solve that does so zig-zags
        corpus, stats = bc.generate(bc.SynthConfig(
            n_activities=50, instances_per_activity=60, candidates_per_instance=2,
            amplification_boost=1.0, seed=93))
        posteriors = bc.instance_posterior(corpus)
        cs = bc.ConstraintSet.from_stats(corpus, stats, gamma)
        config = bc.SolverConfig(mode="full_batch")
        state = bc.solve(corpus, posteriors, cs, config)
        gradient = bc.dual_gradient(state.lam, corpus, posteriors, cs)
        tol = config.convergence_tol
        assert np.where(state.lam <= tol, np.maximum(gradient, 0.0), np.abs(gradient)).max() <= tol
        assert state.step <= 8

    @pytest.mark.parametrize("shape", ["no_ungendered", "fillers"])
    def test_full_batch_resumed_with_both_sides_positive_reaches_the_optimum(self, shape):
        corpus, stats = bc.generate(bc.SynthConfig(
            n_activities=20, instances_per_activity=30,
            candidates_per_instance=2 if shape == "no_ungendered" else 5,
            amplification_boost=1.0, seed=7))
        posteriors = bc.instance_posterior(corpus)
        cs = bc.ConstraintSet.from_stats(corpus, stats, 0.01)
        config = bc.SolverConfig(mode="full_batch")
        fresh = bc.solve(corpus, posteriors, cs, config)
        lam = np.random.default_rng(3).uniform(0.5, 3.0, cs.dimension)
        start = bc.DualState(lam, np.zeros(cs.dimension), np.zeros(cs.dimension))
        resumed = bc.solve(corpus, posteriors, cs, config, initial_state=start)
        # with a positive margin at most one side of each activity is active
        assert np.all(np.minimum(resumed.lam[0::2], resumed.lam[1::2]) == 0.0)
        got = bc.calibrate(corpus, posteriors, cs, resumed.lam)
        want = bc.calibrate(corpus, posteriors, cs, fresh.lam)
        tv = 0.5 * segment_sum(np.abs(got.probs - want.probs), corpus.offsets)
        assert tv.max() <= 1e-6

    def test_stochastic_deterministic_given_seed(self):
        rng = np.random.default_rng(101)
        corpus, cs = feasible_single_activity_corpus(rng, gamma=0.01, max_instances=5)
        posteriors = posteriors_of(corpus)
        config = bc.SolverConfig(mode="stochastic", batch_size=2, epochs=3, seed=7)
        first = bc.solve(corpus, posteriors, cs, config)
        second = bc.solve(corpus, posteriors, cs, config)
        assert np.array_equal(first.lam, second.lam)
        assert first.step == second.step

    def test_dimension_mismatch_rejected(self):
        corpus, posteriors, cs = half_toy()
        bad_state = bc.DualState.zeros(6, 0.1)
        with pytest.raises(bc.ValidationError, match=r"^lam has shape \(6,\), expected \(2,\)$"):
            bc.solve(corpus, posteriors, cs, full_batch_config(), initial_state=bad_state)

    @pytest.mark.parametrize("empty", ["constraints", "corpus"])
    def test_trivial_problem_returns_the_start_state(self, empty):
        corpus, _, cs = half_toy(male_prob=0.7)
        if empty == "constraints":
            cs = bc.ConstraintSet((), np.zeros(0), 0.01)
        else:
            corpus = take_instances(corpus, [])
        config = bc.SolverConfig()
        state = bc.solve(corpus, bc.instance_posterior(corpus), cs, config)
        assert_same_state(state, bc.DualState.zeros(cs.dimension, config.initial_lr))

    @pytest.mark.parametrize("lr", [0.0, -0.1, float("inf"), float("nan")])
    def test_initial_lr_must_be_finite_and_positive(self, lr):
        with pytest.raises(bc.ValidationError, match="initial_lr must be positive"):
            bc.SolverConfig(initial_lr=lr)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1e-8])
    def test_convergence_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(bc.ValidationError, match="convergence_tol must be finite and positive"):
            bc.SolverConfig(mode="full_batch", convergence_tol=tol)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 1.5), ("max_steps", 2.5), ("batch_size", True), ("seed", 3.0), ("seed", "3"),
        # past the digit limit, so neither a range message nor the config hash could print it
        pytest.param("seed", -HUGE_INTS["past_digit_limit"], id="seed-negative_past_digit_limit"),
        pytest.param("seed", HUGE_INTS["past_digit_limit"], id="seed-past_digit_limit"),
    ])
    def test_integer_settings_must_be_integers(self, field, value):
        shown = INT64_SHOWN if type(value) is int else repr(value)
        with pytest.raises(bc.ValidationError,
                           match=f"^{field} must be an integer, got {re.escape(shown)}$"):
            bc.SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["initial_lr", "lr_decay", "convergence_tol"])
    @pytest.mark.parametrize("value", [True, np.bool_(True), "0.5", None, *(
        pytest.param(value, id=name) for name, value in HUGE_INTS.items())])
    def test_real_settings_must_be_reals(self, field, value):
        shown = HUGE_SHOWN if type(value) is int else repr(value)
        with pytest.raises(bc.ValidationError,
                           match=f"^{field} must be a real number, got {re.escape(shown)}$"):
            bc.SolverConfig(**{field: value})

    def test_real_settings_are_stored_as_floats(self):
        config = bc.SolverConfig(initial_lr=1, lr_decay=np.float32(0.5),
                                 convergence_tol=np.int64(1))
        fields = ("initial_lr", "lr_decay", "convergence_tol")
        assert [type(getattr(config, name)) for name in fields] == [float] * 3
        # equal configs hash equal, and a float setting's hash is unchanged
        cs = bc.ConstraintSet((0,), [0.5], 0.05)
        assert config == bc.SolverConfig(initial_lr=1.0, lr_decay=0.5, convergence_tol=1.0)
        for lr in (1, 1.0, np.float64(1.0)):
            assert solver._config_hash(bc.SolverConfig(initial_lr=lr), cs) == "b34eb4f06c05919e"

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(bc.ValidationError, match="^seed must be nonnegative, got -1$"):
            bc.SolverConfig(seed=-1)

    def test_numpy_integer_settings_are_stored_as_ints(self, tmp_path):
        config = bc.SolverConfig(batch_size=np.int32(2), epochs=np.uint8(3), seed=np.int64(3),
                                 max_steps=np.int16(40))
        fields = ("batch_size", "epochs", "seed", "max_steps")
        assert [type(getattr(config, name)) for name in fields] == [int] * 4
        plain = bc.SolverConfig(batch_size=2, epochs=3, seed=3, max_steps=40)
        corpus, posteriors, cs = half_toy(male_prob=0.7)
        state = bc.solve(corpus, posteriors, cs, config)
        bc.save_checkpoint(tmp_path / "checkpoint.json", state, config, cs)
        assert_same_state(bc.load_checkpoint(tmp_path / "checkpoint.json", plain, cs), state)

    def test_a_config_cannot_be_changed_after_its_checks(self):
        config = bc.SolverConfig()
        for name, value in (("epochs", -3), ("mode", "fullbatch"), ("batch_size", 0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, name, value)
        assert config == bc.SolverConfig()
        # a changed copy is checked as a new config is
        with pytest.raises(bc.ValidationError,
                           match="^batch_size, epochs and max_steps must be positive$"):
            dataclasses.replace(config, epochs=-3)
        assert dataclasses.replace(config, epochs=np.int64(2)).epochs == 2

    def test_moment_shape_mismatch_rejected(self):
        with pytest.raises(bc.ValidationError, match="moments"):
            bc.DualState(np.zeros(2), np.zeros(1), np.zeros(2))
        with pytest.raises(bc.ValidationError, match="moments"):
            bc.DualState(np.zeros(2), np.zeros(2), np.zeros((2, 1)))

    @pytest.mark.parametrize("lam, moment, counters, message", [
        ([-1.0, 0.0], [0.0, 0.0], {}, "dual vector must be nonnegative"),
        ([np.inf, 0.0], [0.0, 0.0], {}, "dual state must be finite"),
        ([0.0, 0.0], [np.nan, 0.0], {}, "dual state must be finite"),
        ([0.0, 0.0], [0.0, 0.0], {"step": -1}, "step must be a nonnegative integer, got -1"),
        ([0.0, 0.0], [0.0, 0.0], {"step": 2.0}, "step must be an integer, got 2.0"),
        ([0.0, 0.0], [0.0, 0.0], {"step": True}, "step must be an integer, got True"),
        ([0.0, 0.0], [0.0, 0.0], {"step": -HUGE_INTS["past_digit_limit"]},
         f"step must be an integer, got {INT64_SHOWN}"),
        ([0.0, 0.0], [0.0, 0.0], {"learning_rate": -1.0},
         "learning_rate must be finite and nonnegative, got -1.0"),
        ([0.0, 0.0], [0.0, 0.0], {"learning_rate": np.nan},
         "learning_rate must be finite and nonnegative, got nan"),
        ([0.0, 0.0], [0.0, 0.0], {"learning_rate": np.inf},
         "learning_rate must be finite and nonnegative, got inf"),
        ([0.0, 0.0], [0.0, 0.0], {"learning_rate": "0.1"},
         "learning_rate must be a real number, got '0.1'"),
        ([0.0, 0.0], [0.0, 0.0], {"learning_rate": True},
         "learning_rate must be a real number, got True"),
        ([0.0, 0.0], [0.0, 0.0], {"learning_rate": HUGE_INTS["past_digit_limit"]},
         f"learning_rate must be a real number, got {HUGE_SHOWN}"),
    ], ids=["negative_lam", "infinite_lam", "nan_moment", "negative_step", "float_step",
            "bool_step", "huge_step", "negative_rate", "nan_rate", "infinite_rate", "str_rate",
            "bool_rate", "huge_rate"])
    def test_dual_state_must_be_nonnegative_and_finite(self, lam, moment, counters, message):
        with pytest.raises(bc.ValidationError, match=f"^{message}$"):
            bc.DualState(np.array(lam), np.array(moment), np.zeros(2), **counters)

    def test_dual_state_takes_a_numpy_step_and_a_zero_rate(self):
        # lr_decay can underflow a long run's rate to 0, and a saved state must load
        state = bc.DualState(np.zeros(2), np.zeros(2), np.zeros(2), np.int64(3), np.float32(0))
        assert (state.step, state.learning_rate) == (3, 0.0)
        assert (type(state.step), type(state.learning_rate)) == (int, float)

    def test_dual_states_compare_by_identity(self):
        state = bc.DualState.zeros(2, 0.1)
        assert state == state
        assert state != bc.DualState.zeros(2, 0.1)

    def test_non_finite_gradient_diagnosed(self):
        state = bc.DualState.zeros(3, 0.1)
        gradient = np.array([0.0, float("nan"), 1.0])
        with pytest.raises(bc.SolverDivergenceError) as exc_info:
            _check_finite(state, gradient)
        assert exc_info.value.coordinate == 1

    def test_non_finite_mini_batch_step_diagnosed(self):
        corpus = make_corpus(
            [("a", [(0, "M", 0.0)]), ("b", [(1, "M", 0.0), (1, "W", 0.0), (1, "-", 0.0)])],
            names=["x", "y"],
        )
        cs = bc.ConstraintSet((0, 1), np.array([0.5, 0.5]), 0.01)
        fc = featurize(corpus, bc.instance_posterior(corpus), cs)
        rows = slice(fc.offsets[0], fc.offsets[1])  # instance "a" alone

        def step(lam):
            state = bc.DualState.zeros(4, 0.1)
            state.lam[:] = lam
            with np.errstate(invalid="ignore"):  # as in solve's stochastic loop
                _batch_step(state, fc, fc.log_p[rows], fc.types[rows], fc.seg_ids[rows],
                            np.array([0]), 2.0, 1.0)

        # the male-only instance loses all its mass
        with pytest.raises(bc.DegenerateDistributionError, match="^instance index 0: no prob"):
            step([np.inf, 0.0, 0.0, 0.0])
        # the batch's gradient is finite, lam is not
        with pytest.raises(bc.SolverDivergenceError, match="dual vector") as exc_info:
            step([0.0, 0.0, np.inf, 0.0])
        assert exc_info.value.coordinate == 2

    @pytest.mark.parametrize("lam", [[np.inf, 0.0, 0.0, 0.0], [0.0, 0.0, np.inf, 0.0]],
                             ids=["degenerate", "divergent"])
    def test_non_finite_resumed_state_is_refused_before_the_solve(self, lam):
        # numpy warnings are errors in this suite; a lam made non-finite after
        # the state was built is refused with its coordinate before any step
        corpus = make_corpus(
            [("a", [(0, "M", 0.0)]), ("b", [(1, "M", 0.0), (1, "W", 0.0), (1, "-", 0.0)])],
            names=["x", "y"],
        )
        cs = bc.ConstraintSet((0, 1), np.array([0.5, 0.5]), 0.01)
        state = bc.DualState.zeros(4, 0.1)
        state.lam[:] = lam
        bad = int(np.flatnonzero(np.isinf(lam))[0])
        with pytest.raises(bc.ValidationError, match=rf"^lam\[{bad}\] = inf is not finite$"):
            bc.solve(corpus, bc.instance_posterior(corpus), cs, bc.SolverConfig(batch_size=1),
                     initial_state=state)

    def test_newton_returns_when_the_line_search_is_exhausted(self, monkeypatch):
        # with no step ever gaining, each of the MAX_BACKTRACKS trials of the
        # first step fails and the solve returns the start without a step
        corpus, stats = bc.generate(bc.SynthConfig(3, 10, 3, seed=1, amplification_boost=1.0))
        cs = bc.ConstraintSet.from_stats(corpus, stats, 0.001)
        calls = []
        monkeypatch.setattr(solver, "_objective_gain", lambda *args: calls.append(1) or 0.0)
        state = bc.solve(corpus, bc.instance_posterior(corpus), cs, full_batch_config())
        assert len(calls) == solver.MAX_BACKTRACKS == 60
        assert np.array_equal(state.lam, np.zeros(cs.dimension)) and state.step == 0


# The functions that take a dual vector, called the same way.
LAM_USERS = {
    "dual_objective": bc.dual_objective,
    "dual_gradient": bc.dual_gradient,
    "calibrate": lambda lam, corpus, posteriors, cs: bc.calibrate(corpus, posteriors, cs, lam),
}


@pytest.mark.parametrize("user", LAM_USERS)
@pytest.mark.parametrize("lam, message", [
    ([0.0] * 5, r"^lam has shape \(5,\), expected \(2,\)$"),
    ([0.0], r"^lam has shape \(1,\), expected \(2,\)$"),
    ([0.0, np.nan], r"^lam\[1\] = nan is not finite$"),
    ([np.inf, 0.0], r"^lam\[0\] = inf is not finite$"),
], ids=["three_too_long", "too_short", "nan", "inf"])
def test_lam_is_checked_before_use(user, lam, message):
    corpus, posteriors, cs = half_toy()
    with pytest.raises(bc.ValidationError, match=message):
        LAM_USERS[user](np.array(lam), corpus, posteriors, cs)


# Every real-valued array input, as a call that passes it a two-entry value: half_toy's
# corpus has two rows and its constraint set dimension 2.
REAL_ARRAY_INPUTS = {
    "score": lambda toy, value: bc.Corpus(("act",), ("i",), [0, 2], [0, 0], [1, 2], value, [-1]),
    "probs": lambda toy, value: bc.PosteriorTable(toy[0], value),
    "b_star": lambda toy, value: bc.ConstraintSet((0, 1), value, 0.1),
    **{f"lam-{name}": lambda toy, value, user=user: user(value, *toy)
       for name, user in LAM_USERS.items()},
    "lam-DualState": lambda toy, value: bc.DualState(value, np.zeros(2), np.zeros(2)),
    "first_moment": lambda toy, value: bc.DualState(np.zeros(2), value, np.zeros(2)),
    "second_moment": lambda toy, value: bc.DualState(np.zeros(2), np.zeros(2), value),
}
# Columns whose dtype is not real: numpy gives the last two the object dtype.
NOT_REAL_COLUMNS = {
    "str": ["1.5", "0.5"], "bool": np.array([True, False]), "complex": np.array([0.5 + 1j, 0.5]),
    "none": [None, 1.0], "huge_int": [HUGE_INTS["past_float_range"], 0.0],
}


@pytest.mark.parametrize("value", NOT_REAL_COLUMNS.values(), ids=NOT_REAL_COLUMNS)
@pytest.mark.parametrize("use", REAL_ARRAY_INPUTS)
def test_real_arrays_must_have_a_real_dtype(use, value):
    field = use.split("-")[0]
    message = f"{field} must be real numbers, got dtype {np.asarray(value).dtype}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a complex column is refused, not cast with a warning
        with pytest.raises(bc.ValidationError, match=f"^{re.escape(message)}$"):
            REAL_ARRAY_INPUTS[use](half_toy(), value)


# Every array input, real-valued or an integer column of a two-row corpus.
TWO_ROW_COLUMNS = {"offsets": [0, 2], "activity": [0, 0], "gender": [1, 2], "gold": [-1]}
ARRAY_INPUTS = {
    **{name: lambda toy, value, name=name: bc.Corpus(
        ("act",), ("i",), score=[1.0, 2.0], **{**TWO_ROW_COLUMNS, name: value})
       for name in TWO_ROW_COLUMNS},
    **REAL_ARRAY_INPUTS,
}


@pytest.mark.parametrize("use", ARRAY_INPUTS)
def test_a_ragged_array_is_refused_by_name(use):
    field = use.split("-")[0]
    noun, value = (("integer indices", [[0], [0, 1]]) if field in TWO_ROW_COLUMNS
                   else ("real numbers", [[0.0], [0.0, 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(bc.ValidationError,
                           match=f"^{re.escape(f'{field} must be {noun}, got a ragged sequence')}$"):
            ARRAY_INPUTS[use](half_toy(), value)


@pytest.mark.parametrize("action", ["always", "error"])
def test_a_ragged_array_is_refused_where_numpy_only_warns(monkeypatch, action):
    # numpy before 1.24 warns of a ragged nesting and makes an object array of it
    ragged_warning = getattr(np, "exceptions", np).VisibleDeprecationWarning

    def warning_asarray(values):
        warnings.warn("Creating an ndarray from ragged nested sequences", ragged_warning)
        return np.array(values, dtype=object)

    monkeypatch.setattr(np, "asarray", warning_asarray)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        with pytest.raises(bc.ValidationError, match="^score must be real numbers, got a ragged"):
            bc.corpus.as_array("score", [[0.0], [0.0, 1.0]], float)
    assert caught == []


class TestCalibrate:
    def test_zero_lambda_is_identity(self):
        corpus, posteriors, cs = half_toy(male_prob=0.7)
        out = bc.calibrate(corpus, posteriors, cs, np.zeros(2))
        assert isinstance(out, bc.PosteriorTable) and same_table(out, posteriors)

    def test_matches_closed_form(self):
        corpus, posteriors, cs = half_toy(male_prob=0.7, b_star=0.5, gamma=0.0)
        s = 0.9
        out = bc.calibrate(corpus, posteriors, cs, np.array([s, 0.0]))
        male = 0.7 * math.exp(-0.5 * s)
        female = 0.3 * math.exp(0.5 * s)
        assert_allclose(out.probs, np.array([male, female]) / (male + female), atol=1e-12)

    def test_untouched_instances_identical(self):
        corpus = make_corpus(
            [
                ("gendered", [(0, "M", 0.3), (0, "W", -0.2)]),
                ("plain", [(1, "M", 0.1), (0, "-", 0.4)]),
            ],
            names=["act", "other"],
        )
        cs = bc.ConstraintSet((0,), np.array([0.5]), 0.001)
        posteriors = posteriors_of(corpus)
        out = bc.calibrate(corpus, posteriors, cs, np.array([1.3, 0.0]))
        assert isinstance(out, bc.PosteriorTable)
        (moved, kept), (base_moved, base_kept) = rows_of(out), rows_of(posteriors)
        assert np.array_equal(kept, base_kept)
        assert not np.array_equal(moved, base_moved)


class TestPrimalOracle:
    def test_agrees_with_solver_on_toy(self):
        corpus, posteriors, cs = half_toy(male_prob=0.7, b_star=0.5, gamma=0.001)
        state = bc.solve(corpus, posteriors, cs, full_batch_config())
        solver_q = bc.calibrate(corpus, posteriors, cs, state.lam).probs
        p = posteriors.probs
        oracle_q = primal_project(corpus, p, cs.activity_ids, cs.b_star, cs.gamma)
        tv = 0.5 * np.abs(solver_q - oracle_q).sum()
        assert tv <= 1e-4
        gap = rel_entr(solver_q, p).sum() - rel_entr(oracle_q, p).sum()
        assert gap <= 1e-4


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        corpus, posteriors, cs = half_toy(male_prob=0.7)
        config = full_batch_config()
        state = bc.solve(corpus, posteriors, cs, config)
        path = tmp_path / "checkpoint.json"
        bc.save_checkpoint(path, state, config, cs)
        loaded = bc.load_checkpoint(path, config, cs)
        assert np.array_equal(loaded.lam, state.lam)
        assert np.array_equal(loaded.first_moment, state.first_moment)
        assert loaded.step == state.step
        assert loaded.learning_rate == state.learning_rate

    def test_config_hash_mismatch_rejected(self, tmp_path):
        corpus, posteriors, cs = half_toy(male_prob=0.7)
        config = full_batch_config()
        state = bc.solve(corpus, posteriors, cs, config)
        path = tmp_path / "checkpoint.json"
        bc.save_checkpoint(path, state, config, cs)
        other = full_batch_config(seed=99)
        with pytest.raises(bc.ValidationError, match="hash"):
            bc.load_checkpoint(path, other, cs)

    @pytest.mark.parametrize("version", [7, None, True, "1"])
    def test_unknown_schema_version_rejected(self, tmp_path, version):
        corpus, posteriors, cs = half_toy(male_prob=0.7)
        config = full_batch_config()
        path = tmp_path / "checkpoint.json"
        bc.save_checkpoint(path, bc.solve(corpus, posteriors, cs, config), config, cs)
        payload = json.loads(path.read_text())
        payload["schema_version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(bc.ValidationError, match="schema_version"):
            bc.load_checkpoint(path, config, cs)

    def test_settings_are_required(self, tmp_path):
        corpus, posteriors, cs = half_toy(male_prob=0.7)
        config = full_batch_config()
        path = tmp_path / "checkpoint.json"
        bc.save_checkpoint(path, bc.solve(corpus, posteriors, cs, config), config, cs)
        with pytest.raises(TypeError, match="missing 2 required positional arguments"):
            bc.load_checkpoint(path)
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'cs'"):
            bc.load_checkpoint(path, config)

    def test_moment_shape_mismatch_in_file_rejected(self, tmp_path):
        corpus, posteriors, cs = half_toy(male_prob=0.7)
        config = full_batch_config()
        path = tmp_path / "checkpoint.json"
        bc.save_checkpoint(path, bc.solve(corpus, posteriors, cs, config), config, cs)
        payload = json.loads(path.read_text())
        payload["first_moment"] = payload["first_moment"][:1]
        path.write_text(json.dumps(payload))
        with pytest.raises(bc.ValidationError,
                           match=r"^checkpoint 'first_moment' has shape \(1,\), expected \(2,\)$"):
            bc.load_checkpoint(path, config, cs)

    @pytest.mark.parametrize("changes, message", [
        pytest.param({key: [0.0] for key in ("lambda", "first_moment", "second_moment")},
                     "checkpoint 'lambda' has shape (1,), expected (2,)", id="all_short"),
        pytest.param({"second_moment": [0.0, 0.0, 0.0]},
                     "checkpoint 'second_moment' has shape (3,), expected (2,)", id="long_moment"),
        pytest.param({"lambda": [HUGE_INTS["past_float_range"], 0.0]},
                     f"checkpoint 'lambda' must be a real number, got {HUGE_SHOWN}",
                     id="huge_lambda"),
        pytest.param({"first_moment": [float("nan"), 0.0]},
                     "checkpoint 'first_moment'[0] = nan is not finite", id="nan_moment"),
    ])
    def test_vectors_are_read_against_the_constraint_set(self, tmp_path, changes, message):
        # three vectors that agree with each other but not with cs are refused on loading
        corpus, posteriors, cs = half_toy(male_prob=0.7)
        config = full_batch_config()
        path = tmp_path / "checkpoint.json"
        bc.save_checkpoint(path, bc.solve(corpus, posteriors, cs, config), config, cs)
        path.write_text(json.dumps({**json.loads(path.read_text()), **changes}))
        with pytest.raises(bc.ValidationError, match=f"^{re.escape(message)}$"):
            bc.load_checkpoint(path, config, cs)

    @pytest.mark.parametrize("key", ["lambda", "first_moment", "second_moment", "step",
                                     "learning_rate"])
    def test_missing_key_rejected(self, tmp_path, key):
        corpus, posteriors, cs = half_toy(male_prob=0.7)
        config = full_batch_config()
        path = tmp_path / "checkpoint.json"
        bc.save_checkpoint(path, bc.solve(corpus, posteriors, cs, config), config, cs)
        payload = json.loads(path.read_text())
        del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(bc.ValidationError, match=f"missing '{key}'"):
            bc.load_checkpoint(path, config, cs)

    @pytest.mark.parametrize("key, value", [
        ("lambda", "0.5"), ("lambda", [0.0, None]), ("first_moment", [[0.0], [0.0]]),
        ("second_moment", [True, 0.0]), ("step", "3"), ("step", 2.5), ("step", True),
        ("learning_rate", None), ("learning_rate", "0.1"),
    ])
    def test_mistyped_value_rejected(self, tmp_path, key, value):
        corpus, posteriors, cs = half_toy(male_prob=0.7)
        config = full_batch_config()
        path = tmp_path / "checkpoint.json"
        bc.save_checkpoint(path, bc.solve(corpus, posteriors, cs, config), config, cs)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(bc.ValidationError, match=f"'{key}'"):
            bc.load_checkpoint(path, config, cs)

    def test_invalid_json_rejected_by_name(self, tmp_path):
        corpus, posteriors, cs = half_toy(male_prob=0.7)
        config = full_batch_config()
        path = tmp_path / "checkpoint.json"
        bc.save_checkpoint(path, bc.solve(corpus, posteriors, cs, config), config, cs)
        path.write_text(path.read_text()[:-10])
        with pytest.raises(bc.ValidationError, match="^invalid checkpoint JSON at line "):
            bc.load_checkpoint(path, config, cs)

    def test_repeated_key_rejected(self, tmp_path):
        corpus, posteriors, cs = half_toy(male_prob=0.7)
        config = full_batch_config()
        path = tmp_path / "checkpoint.json"
        bc.save_checkpoint(path, bc.solve(corpus, posteriors, cs, config), config, cs)
        text = path.read_text()
        path.write_text(text[:text.rindex("}")] + ', "step": 0}')
        with pytest.raises(bc.ValidationError, match="^checkpoint file repeats key 'step'$"):
            bc.load_checkpoint(path, config, cs)

    @pytest.mark.parametrize("key, value, message", [
        ("learning_rate", float("nan"), "learning_rate must be finite and nonnegative, got nan"),
        ("learning_rate", -1.0, "learning_rate must be finite and nonnegative, got -1.0"),
        ("step", -1, "step must be a nonnegative integer, got -1"),
        pytest.param("learning_rate", HUGE_INTS["past_float_range"],
                     f"learning_rate must be a real number, got {HUGE_SHOWN}", id="huge_rate"),
    ])
    def test_out_of_range_counter_rejected(self, tmp_path, key, value, message):
        corpus, posteriors, cs = half_toy(male_prob=0.7)
        config = full_batch_config()
        path = tmp_path / "checkpoint.json"
        bc.save_checkpoint(path, bc.solve(corpus, posteriors, cs, config), config, cs)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))  # a NaN is written as the literal NaN
        with pytest.raises(bc.ValidationError, match=f"^{message}$"):
            bc.load_checkpoint(path, config, cs)

    @pytest.mark.parametrize("mode", ["stochastic", "full_batch"])
    def test_resume_leaves_the_given_state_unchanged(self, tmp_path, mode):
        rng = np.random.default_rng(111)
        corpus, cs = feasible_single_activity_corpus(rng, gamma=0.001)
        posteriors = posteriors_of(corpus)
        # full-batch converges in a few Newton steps; two stop short of it
        config = bc.SolverConfig(mode=mode, epochs=2, batch_size=2, seed=3, max_steps=2)
        path = tmp_path / "checkpoint.json"
        bc.save_checkpoint(path, bc.solve(corpus, posteriors, cs, config), config, cs)
        loaded = bc.load_checkpoint(path, config, cs)
        first = bc.solve(corpus, posteriors, cs, config, initial_state=loaded)
        second = bc.solve(corpus, posteriors, cs, config, initial_state=loaded)
        assert first is not loaded and second is not loaded
        assert_same_state(loaded, bc.load_checkpoint(path, config, cs))
        assert_same_state(second, first)
        assert first.step > loaded.step

    def test_resuming_a_converged_full_batch_state_takes_no_step(self, tmp_path):
        rng = np.random.default_rng(111)
        corpus, cs = feasible_single_activity_corpus(rng, gamma=0.001)
        posteriors = posteriors_of(corpus)
        config = full_batch_config()
        state = bc.solve(corpus, posteriors, cs, config)
        assert state.step < config.max_steps
        path = tmp_path / "checkpoint.json"
        bc.save_checkpoint(path, state, config, cs)
        resumed = bc.solve(corpus, posteriors, cs, config,
                           initial_state=bc.load_checkpoint(path, config, cs))
        assert resumed.step == state.step
        assert np.array_equal(resumed.lam, state.lam)

    def test_resume_continues(self, tmp_path):
        rng = np.random.default_rng(111)
        corpus, cs = feasible_single_activity_corpus(rng, gamma=0.001)
        posteriors = posteriors_of(corpus)
        config = bc.SolverConfig(mode="stochastic", epochs=2, batch_size=2, seed=3)
        state = bc.solve(corpus, posteriors, cs, config)
        path = tmp_path / "checkpoint.json"
        bc.save_checkpoint(path, state, config, cs)
        resumed = bc.load_checkpoint(path, config, cs)
        more = bc.solve(corpus, posteriors, cs, config, initial_state=resumed)
        assert more.step == 2 * state.step
