"""Shared corpus builders for the test suite."""

from __future__ import annotations

import sys

import numpy as np
import pytest

import biascal as bc

# Longest integer literal Python parses, or 0 when unlimited.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

GENDERS = {
    "M": bc.GenderTag.MALE,
    "W": bc.GenderTag.FEMALE,
    "-": bc.GenderTag.UNGENDERED,
}


def make_instance(inst_id, triples, gold=None):
    """Instance from (activity_id, gender_char, score) triples."""
    candidates = tuple(
        bc.CandidateStructure(aid, GENDERS[g], float(score)) for aid, g, score in triples
    )
    return bc.Instance(inst_id, candidates, gold)


def make_corpus(instance_specs, n_activities=None, names=None):
    """Corpus from a list of (inst_id, triples, gold) or (inst_id, triples)."""
    instances = []
    max_aid = -1
    for entry in instance_specs:
        inst_id, triples = entry[0], entry[1]
        gold = entry[2] if len(entry) > 2 else None
        instances.append(make_instance(inst_id, triples, gold))
        max_aid = max(max_aid, max(a for a, _, _ in triples))
    if n_activities is None:
        n_activities = max_aid + 1
    if names is None:
        names = [f"act_{a}" for a in range(n_activities)]
    return bc.Corpus(tuple(instances), {name: a for a, name in enumerate(names)})


def posteriors_of(corpus):
    return [bc.instance_posterior(inst) for inst in corpus.instances]


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
    ids = sorted(
        {c.activity_id for inst in corpus.instances for c in inst.candidates if c.gender.is_gendered}
    )
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
        genders = {c.gender for inst in corpus.instances for c in inst.candidates}
        if bc.GenderTag.MALE in genders and bc.GenderTag.FEMALE in genders:
            b_star = float(rng.uniform(0.15, 0.85))
            return corpus, bc.ConstraintSet((0,), np.array([b_star]), gamma)


@pytest.fixture
def toy_half_corpus():
    """One instance, two candidates (male/female) at equal probability."""
    corpus = make_corpus([("i0", [(0, "M", 0.0), (0, "W", 0.0)])], names=["act"])
    return corpus, posteriors_of(corpus)
