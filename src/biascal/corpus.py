"""Data model for scored candidate corpora and training-label statistics.

File formats
------------

Corpus: JSONL, one instance per line::

    {"id": "img_001", "gold": 0,
     "candidates": [{"activity": "cooking", "gender": "M", "score": 1.25}]}

``gold`` is an optional index into ``candidates``. ``gender`` is ``"M"``,
``"W"``, or ``"-"`` (no gendered role). Scores are unnormalized
log-potentials on the model's own scale; the candidate list is treated as
the full support of the instance. All floats are parsed as 64-bit. A key
repeated within any object of a line is refused (a CorpusFormatError naming the
line and the key), and keys other than ``id``, ``gold``, ``candidates``,
``activity``, ``gender`` and ``score`` are ignored.

Training stats: a JSON object mapping activity name to gendered label
counts::

    {"cooking": {"male": 30, "female": 70}}

Activity ids are positions in the vocabulary, the names in order of first appearance.

Flat rows
---------

A `Corpus` is stored as its rows: every candidate is one row of flat
arrays, CSR style, and instance i owns rows ``offsets[i]:offsets[i + 1]``
in candidate order. It is built one way, from those columns: its
constructor checks every corpus rule once over the arrays, and `load_corpus`
and `synth.generate` pass it the arrays they fill while parsing or
generating. Numeric code downstream works on the rows with numpy segment
reductions. A corpus is immutable and safe for concurrent read access; every
array is a read-only (``writeable=False``) copy of what the constructor was given.

`load_corpus` reads `CHUNK_LINES` lines at a time, from a path or an `io`
text or binary stream alike, which it leaves open. It decodes each line on
its own, makes every record check once over the whole chunk, and turns the
chunk into numpy columns before it reads the next; the columns are joined
once at the end. So besides the arrays themselves, a load holds one chunk's
decoded records, never a Python object per row of the corpus. When a chunk
fails a check, its lines are checked again one record at a time, which
raises the first bad record's error with its line number. A chunk whose ``:``
count shows no room for a repeated key skips a second decode that looks for one.
The JSONL writers format `CHUNK_LINES` instances at a time, each distinct value
of a chunk once, and a path sink is written to a temporary file that replaces
it only when complete (`atomic_write`).
"""

from __future__ import annotations

import io
import itertools
import json
import math
import operator
import os
import warnings
from collections.abc import Iterable, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import cached_property
from json.encoder import encode_basestring_ascii
from json.scanner import make_scanner
from pathlib import Path
from types import MappingProxyType, SimpleNamespace
from typing import IO, Iterator, NamedTuple, NoReturn, Sequence

import numpy as np

from . import _EXPORTS
from .errors import CorpusFormatError, ValidationError

__all__ = list(_EXPORTS["corpus"])

_RAGGED_WARNING = getattr(np, "exceptions", np).VisibleDeprecationWarning  # np.exceptions: 1.25+


def as_number(name: str, value, kind: type[int] | type[float]) -> int | float:
    """``value`` as a Python ``kind``, int or float, or a ValidationError naming ``name``: an
    integer is a Python or numpy int within the 64-bit range, a real is one within the float
    range or a Python or numpy float, and a bool is neither; an int too large is not printed."""
    shown = None
    if not isinstance(value, bool) and isinstance(
            value, (int, np.integer) if kind is int else (int, float, np.integer, np.floating)):
        try:
            if kind is float or -2**63 <= value < 2**63:
                return kind(value)
            shown = "an integer beyond the 64-bit range"
        except OverflowError:  # float() of an int beyond the float range
            shown = "an integer beyond the float range"
    noun = "an integer" if kind is int else "a real number"
    raise ValidationError(f"{name} must be {noun}, got {shown or repr(value)}")


def as_array(name: str, values, kind: type[int] | type[float]) -> np.ndarray:
    """``values`` as an array, the column form of `as_number`: unless it is empty, the dtype
    numpy gives the whole column must be an integer one, or for ``kind`` float also a floating
    one, or a ValidationError names ``name``. A bool, complex, str or object dtype is neither,
    and neither is a ragged nesting, whose rows differ in length."""
    noun = "integer indices" if kind is int else "real numbers"
    try:
        with warnings.catch_warnings():  # numpy < 1.24 warns and makes an object array
            warnings.simplefilter("error", _RAGGED_WARNING)
            array = np.asarray(values)
    except (ValueError, _RAGGED_WARNING):
        raise ValidationError(f"{name} must be {noun}, got a ragged sequence") from None
    if array.size and array.dtype.kind not in ("iu" if kind is int else "iuf"):
        raise ValidationError(f"{name} must be {noun}, got dtype {array.dtype}")
    return array


def read_numbers(settings) -> None:
    """Store each field of a dataclass annotated "int" or "float" (a string, under
    ``from __future__ import annotations``) as `as_number` reads it."""
    for f in fields(settings):
        kind = {"int": int, "float": float}.get(f.type)
        if kind is not None:
            object.__setattr__(settings, f.name, as_number(f.name, getattr(settings, f.name), kind))


# The one table from a gender code in `Corpus.gender` to its letter in the JSONL files.
GENDER_TAGS = ("-", "M", "W")
UNGENDERED_CODE, MALE_CODE, FEMALE_CODE = range(len(GENDER_TAGS))
_CODE_OF_VALUE = {tag: code for code, tag in enumerate(GENDER_TAGS)}
_CANDIDATE_FIELDS = tuple(map(operator.itemgetter, ("activity", "gender", "score")))
# json.loads is this scanner plus whitespace skipping around the value.
_SCAN_JSON = make_scanner(json.JSONDecoder())
_JSON_WHITESPACE = " \t\n\r"

# Lines `load_corpus` decodes and checks at a time, and instances the JSONL
# writers format at a time. Large enough that per-chunk numpy calls cost
# little, small enough that one chunk's Python objects stay a few MB.
CHUNK_LINES = 256


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _names(field_name: str, noun: str, values) -> tuple[str, ...]:
    """``values`` as a tuple of nonempty, distinct strs, or a ValidationError naming
    the first bad one; a bare str or a mapping is refused, not read as its items."""
    if isinstance(values, (str, Mapping)) or not isinstance(values, Iterable):
        raise ValidationError(f"{field_name} must be a sequence of {noun}s, got {values!r}")
    names = tuple(values)
    if not (set(map(type, names)) <= {str} and all(names) and len(set(names)) == len(names)):
        seen: set[str] = set()
        for name in names:
            if not isinstance(name, str) or not name:
                raise ValidationError(f"{noun} must be a nonempty string, got {name!r}")
            if name in seen:
                raise ValidationError(f"duplicate {noun} {name!r}")
            seen.add(name)
    return names


@dataclass(frozen=True, eq=False, init=False)
class Corpus:
    """An immutable corpus: one flat row per candidate plus the activity vocabulary.

    Instance i, named ``ids[i]``, owns rows ``offsets[i]:offsets[i + 1]``;
    row r holds the candidate's ``activity`` id, ``gender`` code (0
    ungendered, 1 male, 2 female; see `GENDER_TAGS`) and ``score``.
    ``gold`` holds one index per instance, -1 where the instance has none.
    ``activities`` holds the activity names in id order, so an id is a position in
    it. Every array is read-only, and two corpora are equal when their fields are.

    The constructor takes these fields in this order, reads its columns with `as_array`, checks
    every corpus rule over the whole arrays and raises ValidationError, naming the instance.
    """

    activities: tuple[str, ...]
    ids: tuple[str, ...]
    offsets: np.ndarray
    activity: np.ndarray
    gender: np.ndarray
    score: np.ndarray
    gold: np.ndarray

    def __init__(self, activities: Sequence[str], ids: Sequence[str], offsets, activity,
                 gender, score, gold):
        activities = _names("activities", "activity name", activities)
        ids = _names("ids", "instance id", ids)
        offsets, activity, gender, gold, score = map(
            as_array, ("offsets", "activity", "gender", "gold", "score"),
            (offsets, activity, gender, gold, score), (int, int, int, int, float))
        if not (offsets.shape == (len(ids) + 1,) and offsets[0] == 0 and offsets[-1] == score.size
                and (offsets[1:] >= offsets[:-1]).all() and gold.shape == (len(ids),)
                and score.shape == activity.shape == gender.shape == (score.size,)):
            raise ValidationError("corpus offsets do not match its ids, rows and gold")
        n = len(activities)
        sizes = np.diff(offsets)
        for bad, per_row, message in (  # message(i) for the first bad instance or row i
            (sizes == 0, False, lambda i: "candidate list is empty"),
            ((gold < -1) | (gold >= sizes), False,
             lambda i: f"gold index {gold[i]} out of range for {sizes[i]} candidates"),
            ((gender < 0) | (gender >= len(GENDER_TAGS)), True,
             lambda r: f"gender code {gender[r]} is not 0, 1 or 2"),
            (~np.isfinite(score), True,
             lambda r: f"candidate score must be finite, got {float(score[r])!r}"),
            ((activity < 0) | (activity >= n), True,
             lambda r: f"activity_id {activity[r]} not in vocabulary of size {n}"),
        ):
            hits = np.flatnonzero(bad)
            if hits.size:
                inst = np.searchsorted(offsets, hits[0], side="right") - 1 if per_row else hits[0]
                raise ValidationError(f"instance {ids[inst]!r}: {message(hits[0])}")
        self.__dict__.update(  # astype copies, so no caller's array is shared
            activities=activities, ids=ids, offsets=_read_only(offsets.astype(np.int64)),
            score=_read_only(score.astype(np.float64)),
            activity=_read_only(activity.astype(np.int64)),
            gold=_read_only(gold.astype(np.int64)), gender=_read_only(gender.astype(np.int8)))

    def __reduce__(self):  # a copied or unpickled corpus is built, so checked and read-only, again
        return Corpus, (self.activities, self.ids, self.offsets, self.activity,
                        self.gender, self.score, self.gold)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (self.activities == other.activities and self.ids == other.ids
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in ("offsets", "activity", "gender", "score", "gold")))

    @property
    def instances(self) -> list[SimpleNamespace]:
        """Not API: ``SimpleNamespace(candidates=range(lo, hi))`` over each instance's rows.
        Its one reader is ``bench/run.py``, which counts candidates with it; it goes when
        that line reads `n_rows`."""
        bounds = self.offsets.tolist()
        return [SimpleNamespace(candidates=range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]

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
    """Per-activity male/female label counts from the training set: Python ints, read-only."""

    counts: Mapping[str, GenderCount] = field(default_factory=dict)

    def __post_init__(self):
        for name, count in self.counts.items():
            if len(count) != len(GenderCount._fields):
                raise ValidationError(f"activity {name!r}: count must be a (male, female) pair, "
                                      f"got {count!r}")
            for key, value in zip(GenderCount._fields, count):
                if as_number(f"activity {name!r}: {key} count", value, int) < 0:
                    raise ValidationError(f"activity {name!r}: {key} count must be nonnegative")
        object.__setattr__(self, "counts", MappingProxyType(
            {name: GenderCount._make(map(int, count)) for name, count in self.counts.items()}))

    def __reduce__(self):  # a mapping proxy does not pickle; a copy is built and checked again
        return TrainingStats, (dict(self.counts),)


@contextmanager
def _open_for_read(source) -> Iterator[IO[str]]:
    """A text stream over ``source``, a path or an `io` stream, read as it is iterated.

    A path is opened and closed again. A text or binary stream is read in
    place and left open: a binary one through a UTF-8 wrapper that is
    detached, not closed, afterwards.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as stream:
            yield stream
    elif isinstance(source, io.TextIOBase):
        yield source
    elif isinstance(source, (io.BufferedIOBase, io.RawIOBase)):
        stream = io.TextIOWrapper(source, encoding="utf-8")
        try:
            yield stream
        finally:
            stream.detach()
    else:
        raise TypeError(f"unsupported source type {type(source)!r}")


@contextmanager
def atomic_write(path: str | Path) -> Iterator[IO[str]]:
    """A text stream whose contents replace ``path`` only if the block completes.

    The stream is a fresh file next to ``path``, renamed over it by
    `os.replace` on success and removed on failure, so a reader sees either
    the previous file or the whole new one, never a partial write.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    stream = open(temporary, "x", encoding="utf-8")
    try:
        with stream:
            yield stream
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


@contextmanager
def _open_for_write(sink) -> Iterator[IO[str]]:
    """A path sink is written atomically; a stream sink is written and left open."""
    if isinstance(sink, (str, Path)):
        with atomic_write(sink) as stream:
            yield stream
    elif hasattr(sink, "write"):
        yield sink
    else:
        raise TypeError(f"unsupported sink type {type(sink)!r}")


def dump_json(payload, sink) -> None:
    """Write ``payload`` as an indented JSON document and a newline, the format
    of every JSON output, to a path (atomically) or to a stream (left open)."""
    with _open_for_write(sink) as stream:
        stream.write(json.dumps(payload, indent=2) + "\n")


def _unique_keys(error: type[ValueError], where: str):
    """A ``json`` ``object_pairs_hook`` that builds each object as a dict and raises
    ``error``, ``where`` naming the place, for a key repeated within one object, which
    ``json`` would keep the last of."""
    def unique(pairs):
        obj = dict(pairs)
        if len(obj) != len(pairs):
            seen: set[str] = set()
            for key, _ in pairs:
                if key in seen:
                    raise error(f"{where} repeats key {key!r}")
                seen.add(key)
        return obj
    return unique


# `_SCAN_JSON`, raising ValueError for a key repeated within an object.
_SCAN_UNIQUE_KEYS = make_scanner(json.JSONDecoder(
    object_pairs_hook=_unique_keys(CorpusFormatError, "a corpus line")))


def load_json(stream: IO[str], error: type[ValueError], what: str):
    """The JSON value in ``stream``; ``error`` is raised for invalid JSON and
    for a key repeated within an object (`_unique_keys`)."""
    try:
        return json.load(stream, object_pairs_hook=_unique_keys(error, f"{what} file"))
    except json.JSONDecodeError as exc:
        raise error(f"invalid {what} JSON at line {exc.lineno}: {exc.msg}") from None


def _check_candidate(raw, where: str) -> None:
    """Raise the error of one raw candidate record, if it has one."""
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
    if not isinstance(gender, str) or gender not in _CODE_OF_VALUE:
        raise CorpusFormatError(f"{where}: gender must be one of 'M', 'W', '-', got {gender!r}")
    score = as_number(f"{where}: score", score, float)
    if not math.isfinite(score):
        raise ValidationError(f"{where}: score must be finite, got {score!r}")


def _check_record(line: str, lineno: int) -> None:
    """Raise the error of one nonblank corpus line, if it has one."""
    try:
        record = json.loads(line, object_pairs_hook=_unique_keys(CorpusFormatError,
                                                                 f"line {lineno}:"))
    except CorpusFormatError:
        raise
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        message = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
        raise CorpusFormatError(f"line {lineno}: invalid JSON ({message})") from None
    except RecursionError:
        raise CorpusFormatError(f"line {lineno}: invalid JSON (nested too deeply)") from None
    if not isinstance(record, dict):
        raise CorpusFormatError(f"line {lineno}: instance must be an object")
    inst_id = record.get("id")
    if not isinstance(inst_id, str) or not inst_id:
        raise CorpusFormatError(f"line {lineno}: 'id' must be a nonempty string")
    raw_candidates = record.get("candidates")
    if not isinstance(raw_candidates, list) or not raw_candidates:
        raise ValidationError(f"line {lineno}: instance {inst_id!r} has no candidates")
    where = f"line {lineno}: instance {inst_id!r}"
    for raw in raw_candidates:
        _check_candidate(raw, where)
    gold = record.get("gold")
    if gold is not None:
        if not (0 <= as_number(f"{where}: gold", gold, int) < len(raw_candidates)):
            raise ValidationError(
                f"{where}: gold index {gold} out of range for {len(raw_candidates)} candidates"
            )


def _raise_first_error(lines: list[str], first_lineno: int) -> NoReturn:
    """Raise the error of the first bad record among a chunk's lines."""
    for lineno, line in enumerate(lines, start=first_lineno):
        if line.strip():
            _check_record(line, lineno)
    raise RuntimeError(f"lines {first_lineno}+: a chunk check failed but no record check did")


def _decoded(lines: list[str], scan=_SCAN_JSON) -> list | None:
    """The JSON value of each nonblank line, or None when a line is not exactly
    one JSON value: what ``json.loads`` accepts, without its per-call cost."""
    values = []
    for line in lines:
        text = line.strip(_JSON_WHITESPACE)
        if text and not text.isspace():
            try:
                value, end = scan(text, 0)
            # also an integer past the digit limit, or nesting past the recursion limit
            except (StopIteration, ValueError, RecursionError):
                return None
            if end != len(text):
                return None
            values.append(value)
    return values


def _chunk_columns(lines: list[str], vocab: dict[str, int]) -> tuple | None:
    """(ids, sizes, activity, gender, score, gold) of a chunk of corpus lines.

    Every check of `_check_record` is made on the whole chunk at once; the
    result is None when any record fails one. New activity names join
    ``vocab`` in order of first appearance, and only once the chunk passed.
    """
    records = _decoded(lines)
    if records is None or not set(map(type, records)) <= {dict}:
        return None
    ids = [record.get("id") for record in records]
    raw_candidates = [record.get("candidates") for record in records]
    golds = [record.get("gold") for record in records]
    if not (set(map(type, ids)) <= {str} and all(ids)
            and set(map(type, raw_candidates)) <= {list} and all(raw_candidates)
            and set(map(type, golds)) <= {int, type(None)}):
        return None
    candidates = list(itertools.chain.from_iterable(raw_candidates))
    if not set(map(type, candidates)) <= {dict}:
        return None
    try:
        names, genders, scores = (list(map(field, candidates)) for field in _CANDIDATE_FIELDS)
        if not (set(map(type, names)) <= {str} and all(names)
                and set(map(type, scores)) <= {int, float}):
            return None
        gender = np.array(list(map(_CODE_OF_VALUE.__getitem__, genders)), np.int8)
        score = np.array(scores, np.float64)
        gold = np.array(golds, np.float64)  # None becomes NaN, which no range test fails
    except (KeyError, TypeError, OverflowError):  # missing key, bad gender, huge integer
        return None
    # Each key/value pair puts one ":" outside strings, and each candidate has at least its
    # three fields, so this count leaves no room for a repeated key. Any other chunk (a ":"
    # in a string, an extra key) is decoded again, refusing one. The ":" are counted as
    # UTF-8 bytes, where no other character holds one, by numpy: str.count is slower.
    colons = np.count_nonzero(np.frombuffer(
        "".join(lines).encode("utf-8", "surrogatepass"), np.uint8) == ord(":"))
    if (colons != sum(map(len, records)) + len(_CANDIDATE_FIELDS) * len(candidates)
            and _decoded(lines, _SCAN_UNIQUE_KEYS) is None):
        return None
    sizes = np.array(list(map(len, raw_candidates)), np.int64)
    if not np.isfinite(score).all() or ((gold < 0) | (gold >= sizes)).any():
        return None
    vocab.update(zip([name for name in dict.fromkeys(names) if name not in vocab],
                     itertools.count(len(vocab))))
    activity = np.array(list(map(vocab.__getitem__, names)), np.int64)
    return ids, sizes, activity, gender, score, np.nan_to_num(gold, nan=-1).astype(np.int64)


def load_corpus(source) -> Corpus:
    """Load and validate a corpus from JSONL: a path, or an `io` text or
    binary stream, which is left open.

    Raises CorpusFormatError on malformed records (with line number) and
    ValidationError on invariant violations (naming the instance).
    """
    vocab: dict[str, int] = {}
    chunks = []
    first_lineno = 1
    with _open_for_read(source) as stream:
        while lines := list(itertools.islice(stream, CHUNK_LINES)):
            columns = _chunk_columns(lines, vocab)
            if columns is None:
                _raise_first_error(lines, first_lineno)
            chunks.append(columns)
            first_lineno += len(lines)
    ids, *columns = zip(*chunks) if chunks else ((),) * 6
    sizes, *rows = (np.concatenate(parts) if parts else () for parts in columns)
    return Corpus(tuple(vocab), tuple(itertools.chain.from_iterable(ids)),
                  np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))), *rows)


def _write_records(corpus: Corpus, key: str, values: np.ndarray, sink) -> None:
    """One corpus-schema JSONL record per instance, ``key`` holding each row's value.

    The bytes are those of one ``json.dumps`` per record: each candidate is its
    (activity, gender) prefix, each name in it escaped once as ``json.dumps`` escapes
    a str, as ids are, then the value's ``float.__repr__``, which is how ``json.dumps``
    writes a finite float (the values were checked finite when built).
    Many rows repeat a value of their chunk (a synth corpus's fillers share one
    score, and each instance's keep one probability after calibration), so each
    distinct value of a chunk is formatted once. Values are told apart by their
    bits, not by ``==``, so that ``-0.0`` keeps its own text beside ``0.0``. A
    chunk's text is one ``"".join`` over a (rows, 3) object array of separator,
    prefix and value text, where an instance's first separator closes the record
    before it and opens its own.
    """
    tails = [f', "gender": {encode_basestring_ascii(tag)}, {encode_basestring_ascii(key)}: '
             for tag in GENDER_TAGS]
    prefixes = np.array([f'{{"activity": {name}{tail}' for name in map(
        encode_basestring_ascii, corpus.activities) for tail in tails], dtype=object)
    prefix_of_row = corpus.activity * len(GENDER_TAGS) + corpus.gender
    with _open_for_write(sink) as stream:
        for start in range(0, corpus.n_instances, CHUNK_LINES):
            chunk = slice(start, start + CHUNK_LINES)
            bounds = corpus.offsets[start:start + CHUNK_LINES + 1]
            rows = slice(bounds[0], bounds[-1])
            bits, where = np.unique(values[rows].view(np.int64), return_inverse=True)
            texts = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), object)
            ids = map(encode_basestring_ascii, corpus.ids[chunk])
            heads = np.array([f'{{"id": {inst_id}, "gold": {gold}, "candidates": [' if gold >= 0
                              else f'{{"id": {inst_id}, "candidates": ['
                              for inst_id, gold in zip(ids, corpus.gold[chunk].tolist())], object)
            heads[1:] = "}]}\n" + heads[1:]
            cells = np.empty((where.size, 3), object)
            cells[:, 0] = "}, "  # one str for the column: np.full would copy it into each cell
            cells[bounds[:-1] - bounds[0], 0] = heads
            cells[:, 1] = prefixes[prefix_of_row[rows]]
            cells[:, 2] = texts[where]
            stream.write("".join(cells.ravel().tolist()) + "}]}\n")


def dump_corpus(corpus: Corpus, sink) -> None:
    """Write a corpus back to JSONL; round-trips exactly through load_corpus."""
    _write_records(corpus, "score", corpus.score, sink)


def load_training_stats(source) -> TrainingStats:
    """Load per-activity male/female label counts from a JSON object."""
    with _open_for_read(source) as stream:
        raw = load_json(stream, CorpusFormatError, "stats")
    if not isinstance(raw, dict):
        raise CorpusFormatError("stats file must be a JSON object")
    counts: dict[str, GenderCount] = {}
    for name, entry in raw.items():
        if not isinstance(entry, dict):
            raise CorpusFormatError(f"activity {name!r}: counts must be an object")
        for key in entry:
            if key not in GenderCount._fields:
                raise CorpusFormatError(f"activity {name!r}: unknown key {key!r}")
        for key in GenderCount._fields:
            if key not in entry:
                raise CorpusFormatError(f"activity {name!r}: missing {key!r} count")
        counts[name] = GenderCount(entry["male"], entry["female"])
    return TrainingStats(counts)


def dump_training_stats(stats: TrainingStats, sink) -> None:
    dump_json({
        name: {"male": count.male, "female": count.female}
        for name, count in stats.counts.items()
    }, sink)


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
        aid for aid, name in enumerate(corpus.activities)
        if name in stats.counts and stats.counts[name].total > 0 and has_gendered_mass[aid]
    ]


def excluded_activities(stats: TrainingStats, corpus: Corpus) -> list[str]:
    """Vocabulary entries that cannot carry a constraint, by name.

    The complement of `constrained_activities`; exposed so front ends can
    report exclusions instead of dropping them silently.
    """
    keep = set(constrained_activities(stats, corpus))
    return [name for aid, name in enumerate(corpus.activities) if aid not in keep]
