"""Shared corpus builders and the primal oracle for the test suite."""

from __future__ import annotations

import sys

import numpy as np
from scipy.optimize import minimize

import biascal as bc

# Longest integer literal Python parses, or 0 when unlimited.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

# Python ints no float holds, by test id; the second is also too long for repr
# where the interpreter has a digit limit. A real setting refuses either, and its
# message shows HUGE_SHOWN in place of the digits; an integer setting refuses either
# sign of them, showing INT64_SHOWN, as it does any int outside the 64-bit range.
HUGE_INTS = {"past_float_range": 10**400, "past_digit_limit": 10**max(INT_DIGIT_LIMIT, 400)}
HUGE_SHOWN = "an integer beyond the float range"
INT64_SHOWN = "an integer beyond the 64-bit range"

# The gender code of each character a spec's triples use.
GENDER_CODES = {"-": 0, "M": 1, "W": 2}


def make_corpus(instance_specs, n_activities=None, names=None):
    """Corpus from a list of (inst_id, triples, gold) or (inst_id, triples),
    each triple an (activity_id, gender_char, score)."""
    rows = [triple for entry in instance_specs for triple in entry[1]]
    if names is None:
        if n_activities is None:
            n_activities = max(a for a, _, _ in rows) + 1
        names = [f"act_{a}" for a in range(n_activities)]
    sizes = [len(entry[1]) for entry in instance_specs]
    gold = [-1 if len(entry) < 3 or entry[2] is None else entry[2] for entry in instance_specs]
    return bc.Corpus(
        names,
        tuple(entry[0] for entry in instance_specs),
        np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))),
        [a for a, _, _ in rows],
        [GENDER_CODES[g] for _, g, _ in rows],
        [float(score) for _, _, score in rows],
        gold,
    )


def take_instances(corpus, order, ids=None):
    """The corpus of ``corpus``'s instances at the indices ``order``, in that
    order, named ``ids`` (default: their own ids). An index may repeat."""
    order = np.asarray(order, dtype=np.int64)
    sizes = corpus.sizes[order]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    rows = np.arange(offsets[-1]) + np.repeat(corpus.offsets[order] - offsets[:-1], sizes)
    if ids is None:
        ids = [corpus.ids[i] for i in order.tolist()]
    return bc.Corpus(corpus.activities, ids, offsets, corpus.activity[rows], corpus.gender[rows],
                     corpus.score[rows], corpus.gold[order])


def posteriors_of(corpus):
    """The corpus's `PosteriorTable`, the one form the public functions take posteriors in."""
    return bc.instance_posterior(corpus)


def table_of(rows, ids=None):
    """The `PosteriorTable` with these per-instance probability rows, over a corpus
    of one activity's ungendered candidates, its instances named ``ids`` (default
    i0, i1, ...)."""
    ids = [f"i{i}" for i in range(len(rows))] if ids is None else ids
    corpus = make_corpus([(inst_id, [(0, "-", 0.0)] * len(row)) for inst_id, row in zip(ids, rows)],
                         names=["act"])
    return bc.PosteriorTable(corpus, np.concatenate([[], *rows]))


def rows_of(table):
    """Each instance's row slice ``probs[offsets[i]:offsets[i + 1]]`` of a `PosteriorTable`,
    ``offsets`` its corpus's."""
    bounds = table.corpus.offsets.tolist()
    return [table.probs[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])]


def random_corpus(rng, n_activities, max_instances=20, max_candidates=6, score_scale=1.5):
    """Random corpus with unconstrained gender structure (may be infeasible)."""
    n_inst = int(rng.integers(1, max_instances + 1))
    instances = []
    for i in range(n_inst):
        n_cand = int(rng.integers(1, max_candidates + 1))
        triples = [
            (int(rng.integers(n_activities)), "MW-"[rng.integers(3)], float(rng.normal(0, score_scale)))
            for _ in range(n_cand)
        ]
        instances.append((f"i{i}", triples))
    return make_corpus(instances, n_activities=n_activities)


def random_constraints(rng, corpus, gamma):
    """Constraints over every activity with gendered mass, random training ratios."""
    ids = sorted(set(corpus.activity[corpus.gendered].tolist()))
    if not ids:
        return None
    return bc.ConstraintSet(tuple(ids), rng.uniform(0.05, 0.95, len(ids)), gamma)


def feasible_single_activity_corpus(rng, gamma, max_instances=5, max_candidates=6):
    """Strictly feasible 1-activity problem: every gendered candidate has an
    escape route within its instance, so the achievable ratio range is (0, 1)
    and the dual optimum is finite."""
    while True:
        n_inst = int(rng.integers(1, max_instances + 1))
        instances = []
        for i in range(n_inst):
            while True:
                n_cand = int(rng.integers(2, max_candidates + 1))
                triples = [
                    (0, "MW-"[rng.integers(3)], float(rng.normal(0, 1.5)))
                    for _ in range(n_cand)
                ]
                genders = {g for _, g, _ in triples}
                if len(genders) > 1 or genders == {"-"}:
                    break
            instances.append((f"i{i}", triples))
        corpus = make_corpus(instances, n_activities=1, names=["act"])
        if {GENDER_CODES["M"], GENDER_CODES["W"]} <= set(corpus.gender.tolist()):
            b_star = float(rng.uniform(0.15, 0.85))
            return corpus, bc.ConstraintSet((0,), np.array([b_star]), gamma)


# SLSQP's exits at a solution: converged, or no further descent at working
# precision ("positive directional derivative for linesearch")
SLSQP_SOLVED = (0, 8)


def primal_project(corpus, p, ids, b_star, gamma):
    """arg min sum_i KL(q_i || p_i) over the ratio bounds, as flat probabilities.

    The independent oracle of the KL projection: SLSQP over the calibrated
    probabilities themselves, subject to each instance summing to one and
    each constrained activity's ratio bounds written as male/gendered mass
    inequalities,

        (b* - gamma) * gendered_j  <=  male_j  <=  (b* + gamma) * gendered_j.

    It reads only the corpus arrays and the base posteriors ``p``, never the
    dual. The problem is convex in q, and KL's gradient log(q / p) + 1 falls
    without bound as a probability nears 0. Over softmax logits instead,
    SLSQP stalled on about 3% of random corpora with one probability driven
    to 1e-10, where its logit's gradient vanishes.
    """
    # one row a per inequality a . q >= 0: the upper bound, then the lower
    rows = []
    for aid, b in zip(ids, b_star):
        male = (corpus.activity == aid) & corpus.male
        gendered = (corpus.activity == aid) & corpus.gendered
        rows.append((b + gamma) * gendered - male)
        rows.append(male - (b - gamma) * gendered)
    bounds = np.array(rows, dtype=np.float64)
    instance = np.zeros((corpus.n_instances, p.size))
    instance[corpus.segment_ids, np.arange(p.size)] = 1.0

    result = minimize(
        lambda q: float(q @ np.log(q / p)),
        p,
        jac=lambda q: np.log(q / p) + 1.0,
        bounds=[(1e-300, 1.0)] * p.size,
        constraints=[
            {"type": "ineq", "fun": lambda q: bounds @ q, "jac": lambda q: bounds},
            {"type": "eq", "fun": lambda q: instance @ q - 1.0, "jac": lambda q: instance},
        ],
        method="SLSQP",
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    assert result.status in SLSQP_SOLVED, result.message
    return result.x
