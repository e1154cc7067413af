"""Candidate-by-candidate reference implementations of the flat kernels.

These are the package's original per-instance loops, kept so the
vectorized paths can be required to match them exactly. A posterior here
is one instance's probability array, and the per-instance functions take a
list of them, in corpus order; `stochastic_solve` and `full_batch_solve`
take the package's `PosteriorTable`. A candidate is an (activity id, gender
letter, score) triple read from its instance's row slice ``offsets[i]:offsets[i + 1]``
of the corpus columns (`candidates`). Posteriors use
``scipy.special.log_softmax`` as the original did. `build_report` works
out b*, amplification and its mean itself. The ``naive_*`` dual
functions work one instance and one candidate at a time on the
uncompressed candidates, without `featurize`; the solver matches them to
rounding. `stochastic_solve` gathers every mini-batch from the whole
compressed corpus and must match the solver's per-epoch row layout bit
for bit. `full_batch_solve` is a slow first-order ascent on every candidate
row that the Newton full-batch solve must match in optimum, not step for
step. `load_corpus` and
`write_records` are the line-by-line JSONL reader and writer that the
chunked ones must match byte for byte and error for error.
`check_equivalence` checks one constrained activity per call, as the
package's first version did. `synth_assemble` builds the synthetic
corpus's columns one instance at a time from the generator's draw arrays,
as the generator's original loop did.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
from types import SimpleNamespace

import numpy as np
from scipy.special import log_softmax

import biascal as bc
from biascal.constraints import EQUIVALENCE_SLACK, feature_types, type_features
from biascal.corpus import GENDER_TAGS
from biascal.solver import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    _batch_step,
    _check_finite,
    _projected_gradient_norm,
    featurize,
)
from biascal.synth import GENDERED_MASS

# The full-batch reference's reduce-on-plateau schedule: after this many
# steps without a 0.1% drop in the projected-gradient norm, the rate is
# multiplied by the shrink factor and the Adam moments restart.
PLATEAU_WINDOW = 200
PLATEAU_SHRINK = 0.5


def candidates(corpus):
    """Each instance's candidates, in corpus order: the (activity id, gender letter,
    score) triples of its rows ``offsets[i]:offsets[i + 1]``."""
    rows = list(zip(corpus.activity.tolist(), [GENDER_TAGS[g] for g in corpus.gender.tolist()],
                    corpus.score.tolist()))
    bounds = corpus.offsets.tolist()
    return [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def posterior(instance):
    """One instance's posterior, from its candidates' scores."""
    scores = np.array([score for _, _, score in instance], dtype=np.float64)
    probs = np.exp(log_softmax(scores))
    return probs / probs.sum()


def posteriors(corpus):
    """Every instance's posterior, in corpus order."""
    return [posterior(instance) for instance in candidates(corpus)]


def map_predict(post):
    return int(np.argmax(post))


def activity_mass(posteriors, corpus, activity_id):
    male = 0.0
    gendered = 0.0
    for instance, post in zip(candidates(corpus), posteriors):
        for prob, (aid, gender, _) in zip(post, instance):
            if aid != activity_id or not gender != "-":
                continue
            gendered += float(prob)
            if gender == "M":
                male += float(prob)
    return male, gendered


def top_counts(predictions, corpus, activity_id):
    male = 0
    gendered = 0
    for instance, k in zip(candidates(corpus), predictions):
        aid, gender, _ = instance[k]
        if aid != activity_id or not gender != "-":
            continue
        gendered += 1
        if gender == "M":
            male += 1
    return male, gendered


def bias_in_top_predictions(predictions, corpus, activity_id):
    male, gendered = top_counts(predictions, corpus, activity_id)
    return None if gendered == 0 else male / gendered


def constrained_activities(stats, corpus):
    has_gendered_mass = set()
    for instance in candidates(corpus):
        for aid, gender, _ in instance:
            if gender != "-":
                has_gendered_mass.add(aid)
    return sorted(
        aid
        for aid, name in enumerate(corpus.activities)
        if name in stats.counts and stats.counts[name].total > 0 and aid in has_gendered_mass
    )


def amplification(bias, b_star):
    sign = (b_star > 0.5) - (b_star < 0.5)
    return float(sign * (bias - b_star))


def build_report(corpus, stats, posteriors, predictions, gamma_eval):
    ids = constrained_activities(stats, corpus)
    if not ids:
        raise bc.UndefinedBiasError("no constrained activities")
    entries = []
    for aid in ids:
        count = stats.counts[corpus.activities[aid]]
        b_star = count.male / (count.male + count.female)
        male, gendered = activity_mass(posteriors, corpus, aid)
        if gendered <= 0.0:
            raise bc.UndefinedBiasError("no gendered posterior mass")
        bias_dist = male / gendered
        bias_top = bias_in_top_predictions(predictions, corpus, aid)
        amp_dist = amplification(bias_dist, b_star)
        amp_top = None if bias_top is None else amplification(bias_top, b_star)
        entries.append(
            bc.ActivityBias(
                activity_id=aid,
                activity=corpus.activities[aid],
                b_star=b_star,
                bias_dist=bias_dist,
                bias_top=bias_top,
                amp_dist=amp_dist,
                amp_top=amp_top,
                violated_dist=bool(abs(amp_dist) > gamma_eval),
                violated_top=bool(amp_top is not None and abs(amp_top) > gamma_eval),
            )
        )
    top_amps = [e.amp_top for e in entries if e.amp_top is not None]
    accuracy = None
    golds = corpus.gold.tolist()
    if all(gold >= 0 for gold in golds):
        hits = sum(1 for gold, k in zip(golds, predictions) if k == gold)
        accuracy = hits / len(golds)
    return bc.BiasReport(
        entries=tuple(entries),
        gamma_eval=gamma_eval,
        mean_amp_dist=float(np.mean([e.amp_dist for e in entries])),
        mean_amp_top=float(np.mean(top_amps)) if top_amps else None,
        n_violations_dist=sum(e.violated_dist for e in entries),
        n_violations_top=sum(e.violated_top for e in entries),
        n_not_evaluable_top=sum(e.bias_top is None for e in entries),
        n_bstar_at_half=sum(e.b_star == 0.5 for e in entries),
        accuracy=accuracy,
    )


def feature_vector(candidate, cs):
    aid, gender, _ = candidate
    if aid not in cs.activity_ids or not gender != "-":
        return []
    j = cs.activity_ids.index(aid)
    r = float(cs.b_star[j])
    g = cs.gamma
    if gender == "M":
        return [(2 * j, 1.0 - r - g), (2 * j + 1, -1.0 + r - g)]
    return [(2 * j, -r - g), (2 * j + 1, r - g)]


def instance_expectation(instance, post, cs):
    out = np.zeros(cs.dimension)
    for prob, cand in zip(post, instance):
        for idx, value in feature_vector(cand, cs):
            out[idx] += prob * value
    return out


def corpus_expectation(corpus, posteriors, cs):
    out = np.zeros(cs.dimension)
    for instance, post in zip(candidates(corpus), posteriors):
        out += instance_expectation(instance, post, cs)
    return out


def check_equivalence(corpus, posteriors, cs, activity_id):
    """One constrained activity's `EquivalenceCheck` entries, one activity per call."""
    j = cs.activity_ids.index(activity_id)
    male_mass, gendered_mass = activity_mass(posteriors, corpus, activity_id)
    if gendered_mass <= 0.0:
        raise bc.UndefinedBiasError(
            f"activity {corpus.activities[activity_id]!r} has no gendered posterior mass"
        )
    ratio = male_mass / gendered_mass
    r = float(cs.b_star[j])
    expectation = corpus_expectation(corpus, posteriors, cs)
    residual_minus = ratio - (r + cs.gamma)
    residual_plus = (r - cs.gamma) - ratio
    minus_ok = abs(expectation[2 * j] - residual_minus * gendered_mass) <= EQUIVALENCE_SLACK
    plus_ok = abs(expectation[2 * j + 1] - residual_plus * gendered_mass) <= EQUIVALENCE_SLACK
    return bc.EquivalenceCheck(bool(minus_ok), bool(plus_ok), residual_minus, residual_plus)


def reweighted_posterior(base, penalty):
    with np.errstate(divide="ignore"):
        log_q = np.log(base) - penalty
    weights = np.exp(log_q - log_q.max())
    return weights / weights.sum()


def calibrate(corpus, posteriors, cs, lam):
    out = []
    for instance, post in zip(candidates(corpus), posteriors):
        penalty = np.zeros(len(instance))
        for k, cand in enumerate(instance):
            for idx, value in feature_vector(cand, cs):
                penalty[k] += lam[idx] * value
        out.append(reweighted_posterior(post, penalty) if np.any(penalty) else post)
    return out


def dual_hessian(corpus, posteriors, cs, lam):
    """-Hessian of the dual at lam: the summed per-instance feature covariance."""
    out = np.zeros((cs.dimension, cs.dimension))
    for instance, post in zip(candidates(corpus), calibrate(corpus, posteriors, cs, lam)):
        phi = np.zeros((len(instance), cs.dimension))
        for k, cand in enumerate(instance):
            for idx, value in feature_vector(cand, cs):
                phi[k, idx] = value
        mean = post @ phi
        out += (phi * post[:, None]).T @ phi - np.outer(mean, mean)
    return out


def _subset(fc, indices):
    """One mini-batch gathered from the whole compressed corpus."""
    sizes = np.diff(fc.offsets)
    lens = sizes[indices]
    new_offsets = np.concatenate([[0], np.cumsum(lens)])
    total = int(new_offsets[-1])
    within = np.arange(total) - np.repeat(new_offsets[:-1], lens)
    rows = np.repeat(fc.offsets[indices], lens) + within
    return dataclasses.replace(
        fc,
        offsets=new_offsets,
        seg_ids=np.repeat(np.arange(len(indices)), lens),
        log_p=fc.log_p[rows],
        types=fc.types[rows],
        n_instances=len(indices),
    )


def stochastic_solve(corpus, posteriors, cs, config):
    """The mini-batch dual ascent, gathering every batch from the whole corpus."""
    fc = featurize(corpus, posteriors, cs)
    state = bc.DualState.zeros(cs.dimension, config.initial_lr)
    rng = np.random.default_rng(config.seed)
    n = fc.n_instances
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            indices = order[start : start + config.batch_size]
            sub = _subset(fc, indices)
            _batch_step(state, sub, sub.log_p, sub.types, sub.seg_ids, sub.offsets[:-1],
                        n / len(indices), config.lr_decay)
    return state


def _log_weights(instance, post, cs, lam):
    """log p - lam . phi of each candidate of one instance; -inf where p is 0."""
    out = []
    for prob, cand in zip(post, instance):
        penalty = sum(lam[idx] * value for idx, value in feature_vector(cand, cs))
        out.append((math.log(prob) if prob > 0.0 else -math.inf) - penalty)
    return out


def _log_sum_exp(weights):
    shift = max(weights)
    return shift + math.log(sum(math.exp(w - shift) for w in weights))


def naive_dual_objective(corpus, posteriors, cs, lam):
    """-sum_i log Z_i(lam), one instance and one candidate at a time."""
    return -sum(_log_sum_exp(_log_weights(instance, post, cs, lam))
                for instance, post in zip(candidates(corpus), posteriors))


def naive_dual_gradient(corpus, posteriors, cs, lam, batch=None):
    """Reweighted feature expectation over ``batch`` (default: every instance),
    scaled by corpus_size / batch_size."""
    instances = candidates(corpus)
    n = len(instances)
    indices = range(n) if batch is None else batch
    out = np.zeros(cs.dimension)
    for i in indices:
        weights = _log_weights(instances[i], posteriors[i], cs, lam)
        log_z = _log_sum_exp(weights)
        for w, cand in zip(weights, instances[i]):
            for idx, value in feature_vector(cand, cs):
                out[idx] += math.exp(w - log_z) * value
    return out if batch is None else (n / len(indices)) * out


def naive_stochastic_solve(corpus, posteriors, cs, config):
    """The paper's mini-batch protocol on `naive_dual_gradient`, with Adam
    written out from its definition."""
    lam = np.zeros(cs.dimension)
    first = np.zeros(cs.dimension)
    second = np.zeros(cs.dimension)
    rate = config.initial_lr
    rng = np.random.default_rng(config.seed)
    n = corpus.n_instances
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            gradient = naive_dual_gradient(
                corpus, posteriors, cs, lam, order[start : start + config.batch_size])
            step += 1
            first = ADAM_BETA1 * first + (1.0 - ADAM_BETA1) * gradient
            second = ADAM_BETA2 * second + (1.0 - ADAM_BETA2) * gradient**2
            m_hat = first / (1.0 - ADAM_BETA1**step)
            v_hat = second / (1.0 - ADAM_BETA2**step)
            lam = np.maximum(0.0, lam + rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
            rate *= config.lr_decay
    return lam


def _candidate_rows(corpus, posteriors, cs):
    """Every candidate as its own row, with two feature columns and values."""
    types = feature_types(corpus, cs)
    values, coords = type_features(cs)
    with np.errstate(divide="ignore"):
        log_p = np.log(posteriors.probs)
    return SimpleNamespace(
        offsets=corpus.offsets,
        seg_ids=corpus.segment_ids,
        log_p=log_p,
        cols=coords[types],
        vals=values[types],
        dim=cs.dimension,
    )


def _reweighted(fc, lam):
    weights = fc.log_p - (fc.vals * lam[fc.cols]).sum(axis=1)
    starts = fc.offsets[:-1]
    shift = np.maximum.reduceat(weights, starts)
    log_z = shift + np.log(np.add.reduceat(np.exp(weights - shift[fc.seg_ids]), starts))
    return np.exp(weights - log_z[fc.seg_ids])


def _expectation(fc, probs):
    out = np.zeros(fc.dim)
    for s in (0, 1):
        out += np.bincount(fc.cols[:, s], weights=probs * fc.vals[:, s], minlength=fc.dim)
    return out


def full_batch_solve(corpus, posteriors, cs, config, initial_state=None):
    """Projected Adam ascent to the full-batch tolerance, with plateau restarts."""
    fc = _candidate_rows(corpus, posteriors, cs)
    state = initial_state
    if state is None:
        state = bc.DualState.zeros(cs.dimension, config.initial_lr)
    first = state.first_moment
    second = state.second_moment
    correction_step = state.step
    best_norm = np.inf
    since_improved = 0
    for _ in range(config.max_steps):
        probs = _reweighted(fc, state.lam)
        gradient = _expectation(fc, probs)
        _check_finite(state, gradient)
        norm = _projected_gradient_norm(state.lam, gradient, config.convergence_tol)
        if norm <= config.convergence_tol:
            break
        if norm < 0.999 * best_norm:
            best_norm = norm
            since_improved = 0
        else:
            since_improved += 1
            if since_improved >= PLATEAU_WINDOW:
                state.learning_rate *= PLATEAU_SHRINK
                first = np.zeros_like(first)
                second = np.zeros_like(second)
                correction_step = 0
                best_norm = norm
                since_improved = 0
                if state.learning_rate < 1e-30:
                    break
        correction_step += 1
        first = ADAM_BETA1 * first + (1.0 - ADAM_BETA1) * gradient
        second = ADAM_BETA2 * second + (1.0 - ADAM_BETA2) * gradient**2
        m_hat = first / (1.0 - ADAM_BETA1**correction_step)
        v_hat = second / (1.0 - ADAM_BETA2**correction_step)
        state.lam = np.maximum(
            0.0, state.lam + state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        )
        state.step += 1
    state.first_moment = first
    state.second_moment = second
    return state


GENDER_CODES = {"-": 0, "M": 1, "W": 2}


def _parse_candidate(raw, vocab, where):
    if not isinstance(raw, dict):
        raise bc.CorpusFormatError(
            f"{where}: candidate must be an object, got {type(raw).__name__}"
        )
    try:
        activity = raw["activity"]
        gender = raw["gender"]
        score = raw["score"]
    except KeyError as exc:
        raise bc.CorpusFormatError(f"{where}: candidate missing key {exc.args[0]!r}") from None
    if not isinstance(activity, str) or not activity:
        raise bc.CorpusFormatError(f"{where}: activity must be a nonempty string")
    if not isinstance(gender, str) or gender not in GENDER_CODES:
        raise bc.CorpusFormatError(f"{where}: gender must be one of 'M', 'W', '-', got {gender!r}")
    if isinstance(score, bool) or not isinstance(score, (int, float)):
        raise bc.ValidationError(f"{where}: score must be a real number, got {score!r}")
    try:
        score = float(score)
    except OverflowError:
        raise bc.ValidationError(
            f"{where}: score must be a real number, got an integer beyond the float range"
        ) from None
    if not math.isfinite(score):
        raise bc.ValidationError(f"{where}: score must be finite, got {score!r}")
    if activity not in vocab:
        vocab[activity] = len(vocab)
    return vocab[activity], GENDER_CODES[gender], score


def load_corpus(text):
    """One ``json.loads`` and one candidate parse at a time, line by line."""
    vocab = {}
    ids, sizes, golds, rows = [], [], [], []
    for lineno, line in enumerate(io.StringIO(text), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            message = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
            raise bc.CorpusFormatError(f"line {lineno}: invalid JSON ({message})") from None
        except RecursionError:
            raise bc.CorpusFormatError(f"line {lineno}: invalid JSON (nested too deeply)") from None
        if not isinstance(record, dict):
            raise bc.CorpusFormatError(f"line {lineno}: instance must be an object")
        inst_id = record.get("id")
        if not isinstance(inst_id, str) or not inst_id:
            raise bc.CorpusFormatError(f"line {lineno}: 'id' must be a nonempty string")
        raw_candidates = record.get("candidates")
        if not isinstance(raw_candidates, list) or not raw_candidates:
            raise bc.ValidationError(f"line {lineno}: instance {inst_id!r} has no candidates")
        where = f"line {lineno}: instance {inst_id!r}"
        rows.extend(_parse_candidate(c, vocab, where) for c in raw_candidates)
        size = len(raw_candidates)
        gold = record.get("gold")
        if gold is not None:
            if isinstance(gold, bool) or not isinstance(gold, int):
                raise bc.ValidationError(f"{where}: gold must be an integer, got {gold!r}")
            if not -2**63 <= gold < 2**63:
                raise bc.ValidationError(
                    f"{where}: gold must be an integer, got an integer beyond the 64-bit range")
            if not (0 <= gold < size):
                raise bc.ValidationError(
                    f"{where}: gold index {gold} out of range for {size} candidates"
                )
        ids.append(inst_id)
        sizes.append(size)
        golds.append(-1 if gold is None else gold)
    activity, gender, score = zip(*rows) if rows else ((), (), ())
    offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    return bc.Corpus(tuple(vocab), tuple(ids), offsets, activity, gender, score, golds)


def write_records(corpus, key, values):
    """One ``json.dumps`` per instance record, as text; ``values`` holds each
    row's value as a Python number."""
    names = corpus.activities
    bounds = corpus.offsets.tolist()
    lines = []
    for i, inst_id in enumerate(corpus.ids):
        record = {"id": inst_id}
        if corpus.gold[i] >= 0:
            record["gold"] = int(corpus.gold[i])
        record["candidates"] = [
            {"activity": names[corpus.activity[r]], "gender": GENDER_TAGS[corpus.gender[r]],
             key: values[r]}
            for r in range(bounds[i], bounds[i + 1])
        ]
        lines.append(json.dumps(record) + "\n")
    return "".join(lines)


def synth_assemble(config, male_counts, shares, fillers, gold_male):
    """(corpus, stats) of `biascal.synth._draw`'s arrays, one instance's rows at
    a time. The logs are numpy's, taken one value at a time: numpy's log can
    differ from `math.log` in the last bit, and the generator uses numpy's."""
    names = [f"activity_{a:03d}" for a in range(config.n_activities)]
    n_fillers = config.candidates_per_instance - 2
    gendered_mass = GENDERED_MASS if n_fillers > 0 else 1.0
    filler_prob = (1.0 - gendered_mass) / n_fillers if n_fillers > 0 else 0.0
    m = config.instances_per_activity
    counts, ids, offsets, golds, rows = {}, [], [0], [], []
    for a, name in enumerate(names):
        male_count = int(male_counts[a])
        counts[name] = bc.GenderCount(male_count, m - male_count)
        for i in range(m):
            share = float(shares[a, i])
            rows.append((a, GENDER_CODES["M"], float(np.log(gendered_mass * share))))
            rows.append((a, GENDER_CODES["W"], float(np.log(gendered_mass * (1.0 - share)))))
            for f in range(n_fillers):
                rows.append((int(fillers[a, i, f]), GENDER_CODES["-"], math.log(filler_prob)))
            ids.append(f"{name}_{i:04d}")
            offsets.append(len(rows))
            golds.append(0 if gold_male[a, i] else 1)
    activity, gender, score = zip(*rows)
    corpus = bc.Corpus(names, tuple(ids), offsets, activity, gender, score, golds)
    return corpus, bc.TrainingStats(counts)
