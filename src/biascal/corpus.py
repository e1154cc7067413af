"""Data model for scored candidate corpora and training-label statistics.

File formats
------------

Corpus: JSONL, one instance per line::

    {"id": "img_001", "gold": 0,
     "candidates": [{"activity": "cooking", "gender": "M", "score": 1.25}]}

``gold`` is an optional index into ``candidates``. ``gender`` is ``"M"``,
``"W"``, or ``"-"`` (no gendered role). Scores are unnormalized
log-potentials on the model's own scale; the candidate list is treated as
the full support of the instance. All floats are parsed as 64-bit.

Training stats: a JSON object mapping activity name to gendered label
counts::

    {"cooking": {"male": 30, "female": 70}}

Activity ids are assigned in order of first appearance in the corpus file.

Flat rows
---------

A `Corpus` is stored as its rows: every candidate is one row of flat
arrays, CSR style, and instance i owns rows ``offsets[i]:offsets[i + 1]``
in candidate order. `load_corpus` and `synth.generate` fill the arrays
directly while parsing or generating; numeric code downstream (posteriors,
bias reports, constraint features, the solver) works on them with numpy
segment reductions. `Instance` and `CandidateStructure` are the object form
at the public edges: `Corpus(instances, activities)` turns them into rows,
and `Corpus.instances` builds them from the rows on first use. Loaded
objects are immutable and safe for concurrent read access; every array is
created read-only (``writeable=False``).
"""

from __future__ import annotations

import io
import itertools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import IO, NamedTuple, Sequence

import numpy as np

from .errors import CorpusFormatError, ValidationError

__all__ = [
    "GenderTag",
    "CandidateStructure",
    "Instance",
    "Corpus",
    "GenderCount",
    "TrainingStats",
    "load_corpus",
    "dump_corpus",
    "dump_posteriors",
    "load_training_stats",
    "dump_training_stats",
    "constrained_activities",
    "excluded_activities",
]


class GenderTag(str, Enum):
    """Gender attribute of one candidate structure.

    Ungendered structures never contribute to any bias numerator or
    denominator.
    """

    MALE = "M"
    FEMALE = "W"
    UNGENDERED = "-"

    @property
    def is_gendered(self) -> bool:
        return self is not GenderTag.UNGENDERED


@dataclass(frozen=True)
class CandidateStructure:
    """One scored joint assignment (activity, gender tag) for an instance."""

    activity_id: int
    gender: GenderTag
    score: float

    def __post_init__(self):
        if not isinstance(self.gender, GenderTag):
            raise ValidationError(f"gender must be a GenderTag, got {self.gender!r}")
        if not math.isfinite(self.score):
            raise ValidationError(f"candidate score must be finite, got {self.score!r}")
        if self.activity_id < 0:
            raise ValidationError(f"activity_id must be nonnegative, got {self.activity_id}")


@dataclass(frozen=True)
class Instance:
    """One test instance with its enumerated candidate list.

    ``gold``, when present, is an index into ``candidates``.
    """

    id: str
    candidates: tuple[CandidateStructure, ...]
    gold: int | None = None

    def __post_init__(self):
        if len(self.candidates) == 0:
            raise ValidationError(f"instance {self.id!r}: candidate list is empty")
        if self.gold is not None and not (0 <= self.gold < len(self.candidates)):
            raise ValidationError(
                f"instance {self.id!r}: gold index {self.gold} out of range "
                f"for {len(self.candidates)} candidates"
            )


# The GenderTag of each gender code in `Corpus.gender`; the one table between the two.
GENDER_TAGS = (GenderTag.UNGENDERED, GenderTag.MALE, GenderTag.FEMALE)
UNGENDERED_CODE, MALE_CODE, FEMALE_CODE = range(len(GENDER_TAGS))
_CODE_OF_VALUE = {tag.value: code for code, tag in enumerate(GENDER_TAGS)}


def _read_only(values, dtype=None) -> np.ndarray:
    array = np.asarray(values, dtype=dtype)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False, init=False)
class Corpus:
    """An immutable corpus: one flat row per candidate plus the activity vocabulary.

    Instance i, named ``ids[i]``, owns rows ``offsets[i]:offsets[i + 1]``;
    row r holds the candidate's ``activity`` id, ``gender`` code (0
    ungendered, 1 male, 2 female; see `GENDER_TAGS`) and ``score``.
    ``gold`` holds one index per instance, -1 where the instance has none.
    ``activities`` maps activity name to id. Every array is read-only, and
    two corpora are equal when their vocabularies and arrays are.
    """

    activities: dict[str, int]
    ids: tuple[str, ...]
    offsets: np.ndarray
    activity: np.ndarray
    gender: np.ndarray
    score: np.ndarray
    gold: np.ndarray

    def __init__(self, instances: Sequence[Instance], activities: dict[str, int]):
        built = Corpus._from_rows(
            activities,
            [(inst.id, len(inst.candidates), -1 if inst.gold is None else inst.gold)
             for inst in instances],
            [(c.activity_id, GENDER_TAGS.index(c.gender), c.score)
             for inst in instances for c in inst.candidates],
        )
        self.__dict__.update(built.__dict__)

    @classmethod
    def _from_rows(cls, activities: dict[str, int], instances: list[tuple[str, int, int]],
                   rows: list[tuple[int, int, float]]) -> "Corpus":
        """Corpus from per-instance (id, candidate count, gold or -1) tuples and
        per-row (activity id, gender code, score) tuples, checked once as arrays."""
        ids, sizes, gold = zip(*instances) if instances else ((), (), ())
        activity, gender, score = zip(*rows) if rows else ((), (), ())
        corpus = cls.__new__(cls)
        corpus.__dict__.update(
            activities=activities,
            ids=ids,
            offsets=_read_only((0, *itertools.accumulate(sizes)), np.int64),
            activity=_read_only(activity, np.int64),
            gender=_read_only(gender, np.int8),
            score=_read_only(score, np.float64),
            gold=_read_only(gold, np.int64),
        )
        n = len(activities)
        if sorted(activities.values()) != list(range(n)):
            raise ValidationError("activity ids must be exactly 0..n-1")
        seen: set[str] = set()
        for inst_id in ids:
            if inst_id in seen:
                raise ValidationError(f"duplicate instance id {inst_id!r}")
            seen.add(inst_id)
        outside = np.flatnonzero(corpus.activity >= n)
        if outside.size:
            row = outside[0]
            raise ValidationError(
                f"instance {ids[corpus.segment_ids[row]]!r}: activity_id "
                f"{corpus.activity[row]} not in vocabulary of size {n}"
            )
        return corpus

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (self.activities == other.activities and self.ids == other.ids
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in ("offsets", "activity", "gender", "score", "gold")))

    @cached_property
    def instances(self) -> tuple[Instance, ...]:
        """The instances as objects, built from the rows on first use."""
        candidates = [
            CandidateStructure(a, GENDER_TAGS[g], s)
            for a, g, s in zip(self.activity.tolist(), self.gender.tolist(), self.score.tolist())
        ]
        bounds = self.offsets.tolist()
        return tuple(
            Instance(inst_id, tuple(candidates[lo:hi]), None if gold < 0 else gold)
            for inst_id, lo, hi, gold in zip(self.ids, bounds, bounds[1:], self.gold.tolist())
        )

    @cached_property
    def activity_names(self) -> tuple[str, ...]:
        """Vocabulary ordered by activity id."""
        return tuple(sorted(self.activities, key=self.activities.__getitem__))

    def activity_name(self, activity_id: int) -> str:
        return self.activity_names[activity_id]

    @property
    def n_activities(self) -> int:
        return len(self.activities)

    @property
    def n_instances(self) -> int:
        return len(self.ids)

    @property
    def n_rows(self) -> int:
        return self.score.size

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def sizes(self) -> np.ndarray:
        """Candidate count of each instance."""
        return _read_only(np.diff(self.offsets))

    @cached_property
    def segment_ids(self) -> np.ndarray:
        """Instance index of each row."""
        return _read_only(np.repeat(np.arange(self.n_instances), self.sizes))

    @cached_property
    def male(self) -> np.ndarray:
        return _read_only(self.gender == MALE_CODE)

    @cached_property
    def gendered(self) -> np.ndarray:
        return _read_only(self.gender != UNGENDERED_CODE)


class GenderCount(NamedTuple):
    male: int
    female: int

    @property
    def total(self) -> int:
        return self.male + self.female


@dataclass(frozen=True)
class TrainingStats:
    """Per-activity male/female label counts from the training set."""

    counts: dict[str, GenderCount] = field(default_factory=dict)

    def __post_init__(self):
        for name, count in self.counts.items():
            for key, value in zip(GenderCount._fields, count):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValidationError(f"activity {name!r}: {key} count must be an integer")
                if value < 0:
                    raise ValidationError(f"activity {name!r}: {key} count must be nonnegative")

    def is_constrained(self, name: str) -> bool:
        """True when the activity has at least one gendered training label."""
        count = self.counts.get(name)
        return count is not None and count.total > 0


def _open_for_read(source) -> IO[str]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8")
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8"))
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return io.StringIO(data)
    raise TypeError(f"unsupported source type {type(source)!r}")


def _open_for_write(sink) -> tuple[IO[str], bool]:
    if isinstance(sink, (str, Path)):
        return open(sink, "w", encoding="utf-8"), True
    if hasattr(sink, "write"):
        return sink, False
    raise TypeError(f"unsupported sink type {type(sink)!r}")


def _parse_candidate(raw, vocab: dict[str, int], where: str) -> tuple[int, int, float]:
    """(activity id, gender code, score) of one raw candidate record."""
    if not isinstance(raw, dict):
        raise CorpusFormatError(f"{where}: candidate must be an object, got {type(raw).__name__}")
    try:
        activity = raw["activity"]
        gender = raw["gender"]
        score = raw["score"]
    except KeyError as exc:
        raise CorpusFormatError(f"{where}: candidate missing key {exc.args[0]!r}") from None
    if not isinstance(activity, str) or not activity:
        raise CorpusFormatError(f"{where}: activity must be a nonempty string")
    if gender not in _CODE_OF_VALUE:
        raise CorpusFormatError(f"{where}: gender must be one of 'M', 'W', '-', got {gender!r}")
    if isinstance(score, bool) or not isinstance(score, (int, float)):
        raise ValidationError(f"{where}: score must be a number, got {score!r}")
    score = float(score)
    if not math.isfinite(score):
        raise ValidationError(f"{where}: score must be finite, got {score!r}")
    if activity not in vocab:
        vocab[activity] = len(vocab)
    return vocab[activity], _CODE_OF_VALUE[gender], score


def load_corpus(source) -> Corpus:
    """Load and validate a corpus from JSONL (path, bytes, or file object).

    Raises CorpusFormatError on malformed records (with line number) and
    ValidationError on invariant violations (naming the instance).
    """
    stream = _open_for_read(source)
    vocab: dict[str, int] = {}
    instances: list[tuple[str, int, int]] = []
    rows: list[tuple[int, int, float]] = []
    try:
        for lineno, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(record, dict):
                raise CorpusFormatError(f"line {lineno}: instance must be an object")
            inst_id = record.get("id")
            if not isinstance(inst_id, str) or not inst_id:
                raise CorpusFormatError(f"line {lineno}: 'id' must be a nonempty string")
            raw_candidates = record.get("candidates")
            if not isinstance(raw_candidates, list) or not raw_candidates:
                raise ValidationError(
                    f"line {lineno}: instance {inst_id!r} has no candidates"
                )
            where = f"line {lineno}: instance {inst_id!r}"
            rows.extend(_parse_candidate(c, vocab, where) for c in raw_candidates)
            size = len(raw_candidates)
            gold = record.get("gold")
            if gold is not None:
                if isinstance(gold, bool) or not isinstance(gold, int):
                    raise CorpusFormatError(f"{where}: gold must be an integer index")
                if not (0 <= gold < size):
                    raise ValidationError(
                        f"{where}: gold index {gold} out of range for {size} candidates"
                    )
            instances.append((inst_id, size, -1 if gold is None else gold))
    finally:
        if stream is not source:
            stream.close()
    return Corpus._from_rows(vocab, instances, rows)


def _write_records(corpus: Corpus, key: str, values: list, sink) -> None:
    """One corpus-schema JSONL record per instance, ``key`` holding each row's value."""
    names = corpus.activity_names
    tags = [tag.value for tag in GENDER_TAGS]
    activity = corpus.activity.tolist()
    gender = corpus.gender.tolist()
    bounds = corpus.offsets.tolist()
    stream, owned = _open_for_write(sink)
    try:
        for inst_id, lo, hi, gold in zip(corpus.ids, bounds, bounds[1:], corpus.gold.tolist()):
            record: dict = {"id": inst_id}
            if gold >= 0:
                record["gold"] = gold
            record["candidates"] = [
                {"activity": names[activity[r]], "gender": tags[gender[r]], key: values[r]}
                for r in range(lo, hi)
            ]
            stream.write(json.dumps(record) + "\n")
    finally:
        if owned:
            stream.close()


def dump_corpus(corpus: Corpus, sink) -> None:
    """Write a corpus back to JSONL; round-trips exactly through load_corpus."""
    _write_records(corpus, "score", corpus.score.tolist(), sink)


def dump_posteriors(corpus: Corpus, probs: np.ndarray, sink) -> None:
    """Per-candidate probabilities in the corpus JSONL schema, "prob" in place of "score"."""
    probs = np.asarray(probs)
    if probs.shape != (corpus.n_rows,):
        raise ValidationError(f"{probs.shape} probabilities for {corpus.n_rows} candidates")
    _write_records(corpus, "prob", probs.tolist(), sink)


def load_training_stats(source) -> TrainingStats:
    """Load per-activity male/female label counts from a JSON object."""
    stream = _open_for_read(source)
    try:
        try:
            raw = json.load(stream)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"invalid stats JSON at line {exc.lineno}: {exc.msg}") from None
    finally:
        if stream is not source:
            stream.close()
    if not isinstance(raw, dict):
        raise CorpusFormatError("stats file must be a JSON object")
    counts: dict[str, GenderCount] = {}
    for name, entry in raw.items():
        if not isinstance(entry, dict):
            raise CorpusFormatError(f"activity {name!r}: counts must be an object")
        for key in ("male", "female"):
            if key not in entry:
                raise CorpusFormatError(f"activity {name!r}: missing {key!r} count")
        counts[name] = GenderCount(entry["male"], entry["female"])
    return TrainingStats(counts)


def dump_training_stats(stats: TrainingStats, sink) -> None:
    stream, owned = _open_for_write(sink)
    try:
        payload = {
            name: {"male": count.male, "female": count.female}
            for name, count in stats.counts.items()
        }
        stream.write(json.dumps(payload, indent=2) + "\n")
    finally:
        if owned:
            stream.close()


def constrained_activities(stats: TrainingStats, corpus: Corpus) -> list[int]:
    """Activity ids eligible for a ratio constraint, ascending.

    An activity qualifies when it has a positive gendered training count and
    the corpus contains at least one gendered candidate for it, so that both
    the training ratio and the posterior ratio are well defined. Everything
    else is excluded (callers can report exclusions by diffing against the
    vocabulary).
    """
    has_gendered_mass = np.zeros(corpus.n_activities, dtype=bool)
    has_gendered_mass[corpus.activity[corpus.gendered]] = True
    return [
        aid for aid, name in enumerate(corpus.activity_names)
        if stats.is_constrained(name) and has_gendered_mass[aid]
    ]


def excluded_activities(stats: TrainingStats, corpus: Corpus) -> list[str]:
    """Vocabulary entries that cannot carry a constraint, by name.

    The complement of `constrained_activities`; exposed so front ends can
    report exclusions instead of dropping them silently.
    """
    keep = set(constrained_activities(stats, corpus))
    return [name for aid, name in enumerate(corpus.activity_names) if aid not in keep]
