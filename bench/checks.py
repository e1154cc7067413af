"""Output checks and quality numbers, recomputed from the files with numpy.

Nothing here imports biascal: the reference values come from the corpus
and stats files the benchmark generated and from the files the CLI wrote,
so a defect in the package cannot hide in its own check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# CLI defaults the workloads run with; the checks below depend on them.
GAMMA_SOLVE = 0.001
MAX_VIOLATIONS_AFTER = 2  # acceptance criterion 4
BIAS_TOLERANCE = 1e-9
RATIO_SLACK = 1e-6


class CheckFailed(Exception):
    """An output of the program is missing, malformed or wrong."""


@dataclass(frozen=True)
class FlatFile:
    """Candidates of a corpus-schema JSONL file as flat per-row arrays."""

    ids: list[str]
    offsets: np.ndarray
    activity: np.ndarray
    gender: np.ndarray
    value: np.ndarray

    @property
    def segments(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.ids)), np.diff(self.offsets))


def read_flat(path: Path, value_key: str) -> FlatFile:
    ids: list[str] = []
    offsets = [0]
    activity: list[str] = []
    gender: list[str] = []
    value: list[float] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            ids.append(record["id"])
            for cand in record["candidates"]:
                activity.append(cand["activity"])
                gender.append(cand["gender"])
                value.append(cand[value_key])
            offsets.append(len(value))
    return FlatFile(ids, np.array(offsets), np.array(activity), np.array(gender),
                    np.array(value, dtype=np.float64))


def softmax(flat: FlatFile) -> np.ndarray:
    """Per-instance softmax of the row scores."""
    starts = flat.offsets[:-1]
    seg = flat.segments
    shifted = np.exp(flat.value - np.maximum.reduceat(flat.value, starts)[seg])
    return shifted / np.add.reduceat(shifted, starts)[seg]


def bias_by_activity(flat: FlatFile, probs: np.ndarray) -> dict[str, float]:
    """Male share of each activity's gendered mass, for activities that have any."""
    gendered = (flat.gender == "M") | (flat.gender == "W")
    names, codes = np.unique(flat.activity[gendered], return_inverse=True)
    mass = np.bincount(codes, weights=probs[gendered], minlength=names.size)
    male = np.bincount(codes, weights=np.where(flat.gender[gendered] == "M", probs[gendered], 0.0),
                       minlength=names.size)
    return {str(name): float(m / g) for name, m, g in zip(names, male, mass) if g > 0.0}


def load_json(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None
    if not isinstance(payload, dict) or payload.get("schema_version") != 1:
        raise CheckFailed(f"{path.name}: schema_version is not 1")
    return payload


def digests(out_dir: Path, expected: tuple[str, ...]) -> dict[str, str]:
    """SHA-256 of every output file; every JSON output must carry schema_version 1."""
    names = sorted(p.name for p in out_dir.iterdir())
    missing = sorted(set(expected) - set(names))
    if missing:
        raise CheckFailed(f"missing outputs: {', '.join(missing)}")
    for name in names:
        if name.endswith(".json"):
            load_json(out_dir / name)
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names}


def max_ratio_dev(report: dict) -> float:
    return max(abs(a["bias_dist"] - a["b_star"]) for a in report["activities"])


def constrained_names(flat: FlatFile, stats_path: Path) -> set[str]:
    with open(stats_path, "r", encoding="utf-8") as handle:
        stats = json.load(handle)
    labelled = {name for name, c in stats.items() if c["male"] + c["female"] > 0}
    gendered = (flat.gender == "M") | (flat.gender == "W")
    return labelled & {str(a) for a in np.unique(flat.activity[gendered])}


def check_report_bias(report: dict, corpus: FlatFile, stats_path: Path) -> None:
    """Every activity's bias_dist equals the numpy recomputation from the scores."""
    reference = bias_by_activity(corpus, softmax(corpus))
    reported = {a["activity"]: a["bias_dist"] for a in report["activities"]}
    if set(reported) != constrained_names(corpus, stats_path):
        raise CheckFailed("report activities differ from the constrained activities")
    worst = max(abs(reported[name] - reference[name]) for name in reported)
    if worst > BIAS_TOLERANCE:
        raise CheckFailed(f"bias_dist differs from the recomputation by {worst:.3g}")


def kl_per_instance(calibrated: FlatFile, corpus: FlatFile) -> float:
    """KL(calibrated || softmax(scores)), summed over instances, per instance."""
    if (calibrated.ids != corpus.ids or not np.array_equal(calibrated.offsets, corpus.offsets)
            or not np.array_equal(calibrated.activity, corpus.activity)
            or not np.array_equal(calibrated.gender, corpus.gender)):
        raise CheckFailed("calibrated.jsonl does not align with the corpus")
    q = calibrated.value
    p = softmax(corpus)
    if np.any(q < 0.0) or not np.allclose(np.add.reduceat(q, corpus.offsets[:-1]), 1.0):
        raise CheckFailed("calibrated probabilities do not sum to one per instance")
    live = q > 0.0
    return float(np.sum(q[live] * (np.log(q[live]) - np.log(p[live]))) / len(corpus.ids))


def kl_from_uniform(corpus: FlatFile) -> float:
    """Mean KL(softmax(scores) || uniform) per instance: log K - H(p)."""
    p = softmax(corpus)
    sizes = np.diff(corpus.offsets)
    live = p > 0.0
    neg_entropy = np.zeros_like(p)
    neg_entropy[live] = p[live] * np.log(p[live])
    per_instance = np.log(sizes) + np.add.reduceat(neg_entropy, corpus.offsets[:-1])
    return float(per_instance.mean())


def assess(argv: tuple[str, ...], input_dir: Path,
           out_dir: Path) -> tuple[dict[str, float], str | None]:
    """Quality numbers of one run's outputs, and what is wrong with them, if anything.

    ``report`` runs must reproduce the recomputed bias exactly; full-batch
    calibration must meet the solver margin; stochastic calibration must
    meet the acceptance bound on remaining violations. Outputs that cannot
    be read at all raise CheckFailed.
    """
    corpus = read_flat(input_dir / "corpus.jsonl", "score")
    if argv[0] == "report":
        report = load_json(out_dir / "report.json")
        kl = kl_from_uniform(corpus)
    else:
        report = load_json(out_dir / "report_after.json")
        kl = kl_per_instance(read_flat(out_dir / "calibrated.jsonl", "prob"), corpus)
    if report["mean_amp_top"] is None or report["accuracy"] is None:
        raise CheckFailed("report lacks top-prediction amplification or accuracy")
    quality = {
        "max_ratio_dev": max_ratio_dev(report),
        "kl_per_instance": kl,
        "amp_top_after": float(report["mean_amp_top"]),
        "accuracy_after": float(report["accuracy"]),
    }
    try:
        if argv[0] == "report":
            check_report_bias(report, corpus, input_dir / "stats.json")
        elif "full-batch" in argv:
            if quality["max_ratio_dev"] > GAMMA_SOLVE + RATIO_SLACK:
                raise CheckFailed(
                    f"max ratio deviation {quality['max_ratio_dev']:.3g} exceeds gamma_solve")
        elif report["n_violations_dist"] > MAX_VIOLATIONS_AFTER:
            raise CheckFailed(f"{report['n_violations_dist']} violations remain after calibration")
    except CheckFailed as exc:
        return quality, str(exc)
    return quality, None
