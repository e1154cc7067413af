"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. The end-to-end criteria (4 through 8) share one synthetic
mitigation run produced through the command line interface.
"""

import json
import os
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import biascal as bc
from biascal.cli import main as cli_main
from biascal.oracle import brute_force_project
from biascal.solver import dual_objective
from conftest import (
    feasible_single_activity_corpus,
    posteriors_of,
    random_constraints,
    random_corpus,
    rows_of,
)

SYNTH_SEED = 93
SOLVER_SEED = 0


def check(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def run_cli(*argv):
    return cli_main([str(a) for a in argv])


def read_bytes_map(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.fixture(scope="module")
def mitigation_run(tmp_path_factory):
    """Synthetic amplified corpus, calibrated once full-batch via the CLI."""
    root = tmp_path_factory.mktemp("acceptance")
    data = root / "data"
    assert run_cli(
        "synth", "--out", data, "--n-activities", 50, "--instances-per-activity", 200,
        "--candidates-per-instance", 4, "--boost", 1.0, "--seed", SYNTH_SEED,
    ) == 0
    corpus_path = data / "corpus.jsonl"
    stats_path = data / "stats.json"
    out = root / "run_a"
    started = time.monotonic()
    assert run_cli(
        "calibrate", "--corpus", corpus_path, "--stats", stats_path, "--out", out,
        "--mode", "full-batch", "--seed", SOLVER_SEED,
    ) == 0
    elapsed = time.monotonic() - started
    return SimpleNamespace(
        root=root,
        corpus_path=corpus_path,
        stats_path=stats_path,
        out=out,
        elapsed=elapsed,
        before=json.loads((out / "report_before.json").read_text()),
        after=json.loads((out / "report_after.json").read_text()),
    )


def test_criterion_1_expectation_ratio_equivalence():
    """Feature-expectation signs must agree with the ratio bounds on 200
    random corpora, at margins 0, 0.001, and 0.05, to 1e-9."""
    rng = np.random.default_rng(2001)
    started = time.monotonic()
    gammas = (0.0, 0.001, 0.05)
    corpora_done = 0
    checks_done = 0
    while corpora_done < 200:
        corpus = random_corpus(rng, n_activities=int(rng.integers(1, 4)))
        cs = random_constraints(rng, corpus, gamma=gammas[corpora_done % 3])
        if cs is None:
            continue
        posteriors = posteriors_of(corpus)
        expectation = bc.corpus_expectation(corpus, posteriors, cs)
        result = bc.check_equivalence(corpus, posteriors, cs)
        assert result.minus_ok.all() and result.plus_ok.all()
        for coord, residual in (
            (expectation[0::2], result.residual_minus),
            (expectation[1::2], result.residual_plus),
        ):
            sign_conflict = ((coord > 1e-9) & (residual < -1e-9)) | (
                (coord < -1e-9) & (residual > 1e-9)
            )
            assert not sign_conflict.any()
        checks_done += len(cs.activity_ids)
        corpora_done += 1
    elapsed = time.monotonic() - started
    check(
        1,
        elapsed < 10.0,
        f"{checks_done} constraint checks over 200 corpora agreed to 1e-9 "
        f"in {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_gradient_matches_finite_differences():
    """Analytic dual gradient vs central differences at 100 random points."""
    rng = np.random.default_rng(2002)
    started = time.monotonic()
    worst = 0.0
    points = 0
    corpora = 0
    while corpora < 20:
        corpus = random_corpus(rng, n_activities=int(rng.integers(1, 4)))
        cs = random_constraints(rng, corpus, gamma=float(rng.choice([0.001, 0.05])))
        if cs is None:
            continue
        corpora += 1
        posteriors = posteriors_of(corpus)
        for _ in range(5):
            lam = rng.uniform(0.0, 3.0, cs.dimension)
            gradient = bc.dual_gradient(lam, corpus, posteriors, cs)
            fd = np.zeros_like(gradient)
            for j in range(cs.dimension):
                h = 1e-4 * (1.0 + abs(lam[j]))
                bump = np.zeros_like(lam)
                bump[j] = h
                fd[j] = (
                    bc.dual_objective(lam + bump, corpus, posteriors, cs)
                    - bc.dual_objective(lam - bump, corpus, posteriors, cs)
                ) / (2.0 * h)
            rel = float(np.abs(fd - gradient).max() / max(1.0, np.abs(gradient).max()))
            worst = max(worst, rel)
            points += 1
    elapsed = time.monotonic() - started
    check(
        2,
        worst <= 1e-5 and elapsed < 30.0,
        f"worst relative error {worst:.2e} (<= 1e-5) over {points} points "
        f"in {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_oracle_equivalence():
    """Full-batch solve + calibrate vs brute force on 50 one-activity corpora."""
    rng = np.random.default_rng(2003)
    started = time.monotonic()
    worst_tv = 0.0
    worst_kl_gap = -np.inf
    for k in range(50):
        corpus, cs = feasible_single_activity_corpus(rng, gamma=[0.001, 0.05][k % 2])
        posteriors = posteriors_of(corpus)
        state = bc.solve(
            corpus, posteriors, cs,
            bc.SolverConfig(mode="full_batch", convergence_tol=1e-10),
        )
        solved = bc.calibrate(corpus, posteriors, cs, state.lam)
        oracle, _ = brute_force_project(corpus, posteriors, cs)
        for a, b in zip(rows_of(solved), rows_of(oracle)):
            worst_tv = max(worst_tv, 0.5 * float(np.abs(a - b).sum()))
        worst_kl_gap = max(
            worst_kl_gap,
            bc.kl_divergence(solved, posteriors) - bc.kl_divergence(oracle, posteriors),
        )
    elapsed = time.monotonic() - started
    check(
        3,
        worst_tv <= 1e-4 and worst_kl_gap <= 1e-4 and elapsed < 120.0,
        f"worst TV {worst_tv:.2e} (<= 1e-4), worst KL gap {worst_kl_gap:.2e} "
        f"(<= 1e-4) over 50 corpora in {elapsed:.1f}s (< 2min)",
    )


def test_criterion_4_end_to_end_mitigation(mitigation_run):
    """Planted amplification must be visible before and gone after."""
    before = mitigation_run.before
    after = mitigation_run.after
    n = len(before["activities"])
    ok = (
        before["mean_amp_dist"] > 0.02
        and before["n_violations_dist"] >= 0.30 * n
        and abs(after["mean_amp_dist"]) <= 0.01
        and after["n_violations_dist"] <= 2
        and mitigation_run.elapsed < 300.0
    )
    check(
        4,
        ok,
        f"A_dist {before['mean_amp_dist']:.4f} -> {after['mean_amp_dist']:.4f} "
        f"(> 0.02 -> |.| <= 0.01), violations {before['n_violations_dist']}/{n} -> "
        f"{after['n_violations_dist']} (>= 30% -> <= 2), "
        f"calibrate took {mitigation_run.elapsed:.0f}s (< 5min)",
    )


def test_criterion_5_top_predictions_partially_mitigated(mitigation_run):
    """Top-prediction amplification shrinks but does not vanish."""
    before = mitigation_run.before["mean_amp_top"]
    after = mitigation_run.after["mean_amp_top"]
    check(
        5,
        after < before and after > 0.0,
        f"A_top {before:.4f} -> {after:.4f} (strictly smaller, still positive)",
    )


def test_criterion_6_accuracy_preserved(mitigation_run):
    """MAP accuracy must move by at most one absolute point."""
    before = mitigation_run.before["accuracy"]
    after = mitigation_run.after["accuracy"]
    delta = abs(after - before)
    check(
        6,
        delta <= 0.01,
        f"accuracy {before:.4f} -> {after:.4f}, |delta| {delta:.4f} (<= 0.01)",
    )


def test_criterion_7_stochastic_reaches_full_batch_objective(mitigation_run):
    """The stochastic protocol lands within 1% of the full-batch optimum."""
    corpus = bc.load_corpus(mitigation_run.corpus_path)
    stats = bc.load_training_stats(mitigation_run.stats_path)
    posteriors = bc.instance_posterior(corpus)
    cs = bc.ConstraintSet.from_stats(corpus, stats, gamma=0.001)
    checkpoint = json.loads((mitigation_run.out / "checkpoint.json").read_text())
    full_batch_lam = np.array(checkpoint["lambda"])
    stochastic = bc.solve(
        corpus, posteriors, cs,
        bc.SolverConfig(mode="stochastic", batch_size=39, epochs=10,
                        initial_lr=0.1, lr_decay=0.998, seed=SOLVER_SEED),
    )
    j_full = dual_objective(full_batch_lam, corpus, posteriors, cs)
    j_stochastic = dual_objective(stochastic.lam, corpus, posteriors, cs)
    gap = abs(j_full - j_stochastic) / abs(j_full)
    check(
        7,
        gap <= 0.01,
        f"dual objective {j_stochastic:.3f} vs full-batch {j_full:.3f}, "
        f"relative gap {gap:.5f} (<= 1%)",
    )


def test_criterion_8_determinism(mitigation_run, tmp_path):
    """Repeated runs with identical seeds produce byte-identical files."""
    rerun = mitigation_run.root / "run_b"
    assert run_cli(
        "calibrate", "--corpus", mitigation_run.corpus_path,
        "--stats", mitigation_run.stats_path, "--out", rerun,
        "--mode", "full-batch", "--seed", SOLVER_SEED,
    ) == 0
    calibrate_identical = read_bytes_map(mitigation_run.out) == read_bytes_map(rerun)

    oracle_data = tmp_path / "oracle_data"
    assert run_cli(
        "synth", "--out", oracle_data, "--n-activities", 1,
        "--instances-per-activity", 5, "--candidates-per-instance", 3,
        "--boost", 1.0, "--seed", 5,
    ) == 0
    oracle_outs = []
    for name in ("cmp_a", "cmp_b"):
        out = tmp_path / name
        assert run_cli(
            "oracle", "--corpus", oracle_data / "corpus.jsonl",
            "--stats", oracle_data / "stats.json", "--out", out,
        ) == 0
        oracle_outs.append(read_bytes_map(out))
    oracle_identical = oracle_outs[0] == oracle_outs[1]
    check(
        8,
        calibrate_identical and oracle_identical,
        f"calibrate outputs identical: {calibrate_identical}, "
        f"oracle outputs identical: {oracle_identical}",
    )


@pytest.mark.skipif(
    not (os.environ.get("BIASCAL_REFERENCE_CORPUS") and os.environ.get("BIASCAL_REFERENCE_STATS")),
    reason="original potential files not provided "
    "(set BIASCAL_REFERENCE_CORPUS and BIASCAL_REFERENCE_STATS to run)",
)
def test_criterion_9_reproduction(tmp_path):
    """Optional: reproduce the reference before/after numbers when the
    original potentials are supplied in the corpus JSONL format."""
    out = tmp_path / "reference"
    assert run_cli(
        "calibrate", "--corpus", os.environ["BIASCAL_REFERENCE_CORPUS"],
        "--stats", os.environ["BIASCAL_REFERENCE_STATS"], "--out", out,
        "--mode", "stochastic", "--seed", 0,
    ) == 0
    before = json.loads((out / "report_before.json").read_text())
    after = json.loads((out / "report_after.json").read_text())
    ok = (
        abs(before["mean_amp_dist"] - 0.032) <= 0.005
        and abs(after["mean_amp_dist"] - (-0.005)) <= 0.005
        and abs(before["n_violations_dist"] - 109) <= 5
        and abs(after["n_violations_dist"] - 5) <= 5
    )
    check(
        9,
        ok,
        f"A_dist {before['mean_amp_dist']:.4f} -> {after['mean_amp_dist']:.4f} "
        f"(targets 0.032 -> -0.005 within 0.005), violations "
        f"{before['n_violations_dist']} -> {after['n_violations_dist']} "
        f"(targets 109 -> 5 within 5)",
    )
