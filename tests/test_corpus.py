"""Loading, validation, and round-trip of corpora and training stats."""

import copy
import dataclasses
import io
import json
import os
import pickle
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biascal as bc
import biascal.corpus
import loop_reference as ref
from biascal.corpus import CHUNK_LINES, GENDER_TAGS, _write_records, atomic_write
from biascal.distribution import dump_posteriors
from conftest import INT64_SHOWN, INT_DIGIT_LIMIT, make_corpus, take_instances
from test_flat_reference import corpora

ARRAYS = ("offsets", "activity", "gender", "score", "gold", "sizes", "segment_ids", "male",
          "gendered")

def corpus_of(*lines):
    return bc.load_corpus(io.StringIO("\n".join(lines)))


def stats_of(payload):
    return bc.load_training_stats(io.StringIO(json.dumps(payload)))


VALID = '{"id":"%s","candidates":[{"activity":"x","gender":"M","score":1.0}]}'


class TestLoadCorpus:
    def test_minimal_corpus(self):
        corpus = corpus_of(
            '{"id":"a","candidates":[{"activity":"cooking","gender":"M","score":1.0}]}'
        )
        assert len(corpus) == 1
        assert corpus.activities == ("cooking",)
        assert corpus.ids == ("a",)
        assert corpus.gold.tolist() == [-1]
        assert corpus.offsets.tolist() == [0, 1]
        assert corpus.activity.tolist() == [0]
        assert GENDER_TAGS[corpus.gender[0]] == "M"
        assert corpus.score.tolist() == [1.0]

    def test_nan_score_string_rejected(self):
        with pytest.raises(bc.ValidationError, match="a"):
            corpus_of('{"id":"a","candidates":[{"activity":"x","gender":"M","score":"NaN"}]}')

    def test_nan_score_literal_rejected(self):
        # bare NaN is valid for Python's json parser but violates finiteness
        with pytest.raises(bc.ValidationError, match="finite"):
            corpus_of('{"id":"a","candidates":[{"activity":"x","gender":"M","score":NaN}]}')

    def test_infinite_score_rejected(self):
        with pytest.raises(bc.ValidationError, match="finite"):
            corpus_of('{"id":"a","candidates":[{"activity":"x","gender":"M","score":1e999}]}')

    def test_vocabulary_dedup(self):
        corpus = corpus_of(
            '{"id":"a","candidates":[{"activity":"cooking","gender":"M","score":1.0}]}',
            '{"id":"b","candidates":[{"activity":"cooking","gender":"W","score":0.5}]}',
        )
        assert len(corpus) == 2
        assert corpus.activities == ("cooking",)

    def test_duplicate_id_rejected(self):
        with pytest.raises(bc.ValidationError, match="duplicate"):
            corpus_of(
                '{"id":"a","candidates":[{"activity":"x","gender":"M","score":1.0}]}',
                '{"id":"a","candidates":[{"activity":"x","gender":"W","score":1.0}]}',
            )

    def test_malformed_json_reports_line(self):
        with pytest.raises(bc.CorpusFormatError, match="line 2"):
            corpus_of(
                '{"id":"a","candidates":[{"activity":"x","gender":"M","score":1.0}]}',
                '{"id":"b", not json',
            )

    def test_bad_gender_rejected(self):
        with pytest.raises(bc.CorpusFormatError, match="gender"):
            corpus_of('{"id":"a","candidates":[{"activity":"x","gender":"male","score":1.0}]}')

    def test_gold_out_of_range(self):
        with pytest.raises(bc.ValidationError, match="gold"):
            corpus_of(
                '{"id":"a","gold":3,"candidates":[{"activity":"x","gender":"M","score":1.0}]}'
            )

    def test_gold_roundtrip(self):
        corpus = corpus_of(
            '{"id":"a","gold":1,"candidates":['
            '{"activity":"x","gender":"M","score":1.0},'
            '{"activity":"x","gender":"W","score":0.0}]}'
        )
        assert corpus.gold.tolist() == [1]

    def test_empty_candidates_rejected(self):
        with pytest.raises(bc.ValidationError, match="candidates"):
            corpus_of('{"id":"a","candidates":[]}')

    def test_blank_lines_skipped(self):
        corpus = corpus_of(
            '{"id":"a","candidates":[{"activity":"x","gender":"M","score":1.0}]}',
            "",
            "   ",
        )
        assert len(corpus) == 1

    def test_vocabulary_order_is_first_appearance(self):
        corpus = corpus_of(
            '{"id":"a","candidates":[{"activity":"zeta","gender":"M","score":0.0}]}',
            '{"id":"b","candidates":[{"activity":"alpha","gender":"W","score":0.0}]}',
        )
        assert corpus.activities == ("zeta", "alpha")

    @pytest.mark.parametrize("lines, error, message", [
        pytest.param(
            [VALID % f"i{k}" for k in range(200)] + [""] * 56
            + ['{"id":"late","candidates":[]}'],
            bc.ValidationError, f"line {CHUNK_LINES + 1}: instance 'late' has no candidates",
            id="first_line_of_second_chunk_after_blank_lines"),
        pytest.param([VALID % "a" + " " + VALID % "b"], bc.CorpusFormatError,
                     "line 1: invalid JSON (Extra data)", id="two_objects_space"),
        pytest.param([VALID % "a" + "," + VALID % "b"], bc.CorpusFormatError,
                     "line 1: invalid JSON (Extra data)", id="two_objects_comma"),
        pytest.param(['{"id":"a","gold":-1,"candidates":[{"activity":"x","gender":"M","score":1}]}'],
                     bc.ValidationError,
                     "line 1: instance 'a': gold index -1 out of range for 1 candidates",
                     id="gold_minus_one"),
        pytest.param(['{"id":"a","gold":true,"candidates":[{"activity":"x","gender":"M","score":1}]}'],
                     bc.ValidationError, "line 1: instance 'a': gold must be an integer, got True",
                     id="gold_true"),
        pytest.param(['{"id":"a","gold":%d,"candidates":[{"activity":"x","gender":"M","score":1}]}'
                      % 2**64],
                     bc.ValidationError, f"line 1: instance 'a': gold must be an integer, got "
                     f"{INT64_SHOWN}", id="gold_beyond_int64"),
        pytest.param(['{"id":"a","candidates":[{"activity":"x","gender":[],"score":1}]}'],
                     bc.CorpusFormatError,
                     "line 1: instance 'a': gender must be one of 'M', 'W', '-', got []",
                     id="unhashable_gender"),
        pytest.param(['{"id":"a","candidates":[{"activity":"x","gender":"M","score":1%s}]}'
                      % ("0" * 400)],
                     bc.ValidationError, "line 1: instance 'a': score must be a real number, "
                     "got an integer beyond the float range",
                     id="integer_score_beyond_float_range"),
        pytest.param([VALID % "a", "[" * 100_000], bc.CorpusFormatError,
                     "line 2: invalid JSON (nested too deeply)", id="nested_past_recursion_limit"),
    ])
    def test_rejected_line_is_reported_exactly(self, lines, error, message):
        with pytest.raises(error) as caught:
            corpus_of(*lines)
        assert str(caught.value) == message
        with pytest.raises(error) as caught:
            ref.load_corpus("\n".join(lines))
        assert str(caught.value) == message

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="no integer digit limit in this interpreter")
    def test_integer_score_past_the_digit_limit_is_invalid_json(self):
        digits = "9" * (INT_DIGIT_LIMIT + 1)
        line = '{"id":"a","candidates":[{"activity":"x","gender":"M","score":%s}]}' % digits
        with pytest.raises(bc.CorpusFormatError, match=r"^line 2: invalid JSON \(Exceeds the limit"):
            corpus_of(VALID % "first", line)


class TestFileObjects:
    def test_text_and_binary_streams_load_as_the_path_and_stay_open(self, tmp_path):
        corpus, stats = bc.generate(bc.SynthConfig(
            n_activities=3, instances_per_activity=2 * CHUNK_LINES, seed=4))
        path, stats_path = tmp_path / "corpus.jsonl", tmp_path / "stats.json"
        bc.dump_corpus(corpus, path)
        bc.dump_training_stats(stats, stats_path)
        expected = bc.load_corpus(path)
        assert expected == corpus
        with open(path, encoding="utf-8") as text, open(path, "rb") as buffered, \
                open(path, "rb", buffering=0) as raw:
            for stream in (text, buffered, raw, io.BytesIO(path.read_bytes())):
                assert bc.load_corpus(stream) == expected
                assert not stream.closed
        with open(stats_path, "rb") as stream:
            assert bc.load_training_stats(stream) == bc.load_training_stats(stats_path)
            assert not stream.closed

    @pytest.mark.parametrize("source", [
        (VALID % "a").encode(), types.SimpleNamespace(read=lambda: VALID % "a"), 3,
    ], ids=["bytes", "duck_typed_reader", "int"])
    def test_a_source_that_is_no_path_or_stream_is_refused(self, source):
        for reader in (bc.load_corpus, bc.load_training_stats):
            with pytest.raises(TypeError, match="^unsupported source type"):
                reader(source)

    def test_a_sink_that_is_no_path_or_stream_is_refused(self):
        with pytest.raises(TypeError, match="^unsupported sink type"):
            bc.dump_training_stats(bc.TrainingStats(), 3)


class TestRoundTrip:
    def test_hand_corpus(self):
        corpus = corpus_of(
            '{"id":"a","gold":0,"candidates":[{"activity":"x","gender":"M","score":1.25}]}',
            '{"id":"b","candidates":[{"activity":"y","gender":"-","score":-0.5}]}',
        )
        buffer = io.StringIO()
        bc.dump_corpus(corpus, buffer)
        again = bc.load_corpus(io.StringIO(buffer.getvalue()))
        assert again == corpus

    def test_posteriors_written_in_corpus_schema(self):
        corpus = corpus_of(
            '{"id":"a","gold":0,"candidates":[{"activity":"x","gender":"M","score":1.25},'
            '{"activity":"y","gender":"W","score":0.0}]}',
            '{"id":"b","candidates":[{"activity":"y","gender":"-","score":-0.5}]}',
        )
        buffer = io.StringIO()
        dump_posteriors(bc.PosteriorTable(corpus, [0.75, 0.25, 1.0]), buffer)
        assert [json.loads(line) for line in buffer.getvalue().splitlines()] == [
            {"id": "a", "gold": 0, "candidates": [
                {"activity": "x", "gender": "M", "prob": 0.75},
                {"activity": "y", "gender": "W", "prob": 0.25}]},
            {"id": "b", "candidates": [{"activity": "y", "gender": "-", "prob": 1.0}]},
        ]

    def test_generated_corpora(self):
        # serialize(load(x)) must reload equal to load(x): activity ids are
        # assigned by first appearance, so one load normalizes them and the
        # cycle is a fixed point from there on
        for seed in (0, 1, 2):
            corpus, stats = bc.generate(
                bc.SynthConfig(n_activities=3, instances_per_activity=5, seed=seed)
            )
            text = io.StringIO()
            bc.dump_corpus(corpus, text)
            first = bc.load_corpus(io.StringIO(text.getvalue()))
            text_again = io.StringIO()
            bc.dump_corpus(first, text_again)
            assert text_again.getvalue() == text.getvalue()
            assert bc.load_corpus(io.StringIO(text_again.getvalue())) == first
            stats_buffer = io.StringIO()
            bc.dump_training_stats(stats, stats_buffer)
            assert bc.load_training_stats(io.StringIO(stats_buffer.getvalue())) == stats


    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(case=corpora())
    def test_random_corpora(self, case):
        corpus, _ = case
        text = io.StringIO()
        bc.dump_corpus(corpus, text)
        loaded = bc.load_corpus(io.StringIO(text.getvalue()))
        again = io.StringIO()
        bc.dump_corpus(loaded, again)
        assert again.getvalue() == text.getvalue()
        rebuilt = bc.Corpus(**fields_of(loaded))
        assert rebuilt.ids == loaded.ids
        for name in ARRAYS:
            assert np.array_equal(getattr(rebuilt, name), getattr(loaded, name))
            assert getattr(rebuilt, name).dtype == getattr(loaded, name).dtype


class TestAtomicWrite:
    def test_failed_block_leaves_the_previous_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("previous\n")
        with pytest.raises(RuntimeError, match="midway"):
            with atomic_write(target) as stream:
                stream.write("partial")
                raise RuntimeError("midway")
        assert target.read_bytes() == b"previous\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_dump_failing_after_a_chunk_leaves_the_previous_file(self, tmp_path, monkeypatch):
        corpus, _ = bc.generate(bc.SynthConfig(n_activities=3, instances_per_activity=200))
        target = tmp_path / "corpus.jsonl"
        bc.dump_corpus(corpus, target)
        previous = target.read_bytes()
        escaped = []

        def failing_escape(text):
            if len(escaped) > CHUNK_LINES:
                raise OSError("disk full")
            escaped.append(text)
            return json.dumps(text)

        monkeypatch.setattr(biascal.corpus, "encode_basestring_ascii", failing_escape)
        with pytest.raises(OSError, match="disk full"):
            dump_posteriors(bc.instance_posterior(corpus), target)
        assert len(escaped) == CHUNK_LINES + 1
        assert target.read_bytes() == previous
        assert os.listdir(tmp_path) == ["corpus.jsonl"]


# one instance with one male candidate of the activity "cooking"
COOKING = make_corpus([("i0", [(0, "M", 0.0)])], names=["cooking"])


class TestLoadTrainingStats:
    def test_single_activity(self):
        stats = stats_of({"cooking": {"male": 30, "female": 70}})
        assert stats.counts["cooking"] == bc.GenderCount(30, 70)
        assert bc.constrained_activities(stats, COOKING) == [0]

    def test_zero_counts_unconstrained(self):
        stats = stats_of({"cooking": {"male": 0, "female": 0}})
        assert bc.constrained_activities(stats, COOKING) == []

    def test_negative_count_rejected(self):
        with pytest.raises(bc.ValidationError, match="nonnegative"):
            stats_of({"cooking": {"male": -1, "female": 5}})

    def test_float_count_rejected(self):
        with pytest.raises(bc.ValidationError, match="integer"):
            stats_of({"cooking": {"male": 1.5, "female": 5}})

    def test_missing_key_rejected(self):
        with pytest.raises(bc.CorpusFormatError, match="female"):
            stats_of({"cooking": {"male": 1}})

    @pytest.mark.parametrize("entry, key", [
        ({"male": 1, "female": 2, "mael": 3}, "mael"),
        ({"mael": 1, "female": 2}, "mael"),  # named before the missing 'male'
        ({"male": 1, "female": 2, "unknown": 0, "other": 0}, "unknown"),
    ])
    def test_unknown_key_rejected(self, entry, key):
        # a misspelt count would otherwise be dropped without a word
        with pytest.raises(bc.CorpusFormatError, match=f"^activity 'cooking': unknown key '{key}'$"):
            stats_of({"cooking": entry})

    @pytest.mark.parametrize("female, message", [
        (True, "female count must be an integer, got True"),
        (5.0, "female count must be an integer, got 5.0"),
        (-2, "female count must be nonnegative"),
        pytest.param(2**64, f"female count must be an integer, got {INT64_SHOWN}",
                     id="beyond_int64"),
    ])
    def test_count_checked_once_with_the_same_message(self, female, message):
        # the loader and the constructor share one check, in TrainingStats
        with pytest.raises(bc.ValidationError, match=f"^activity 'cooking': {message}$"):
            stats_of({"cooking": {"male": 1, "female": female}})
        with pytest.raises(bc.ValidationError, match=f"^activity 'cooking': {message}$"):
            bc.TrainingStats({"cooking": bc.GenderCount(1, female)})

    def test_counts_are_read_only(self):
        stats = stats_of({"cooking": {"male": 30, "female": 70}})
        with pytest.raises(TypeError):
            stats.counts["cooking"] = (-5, "x")
        with pytest.raises(TypeError):
            del stats.counts["cooking"]
        assert stats.counts == {"cooking": bc.GenderCount(30, 70)}
        written = io.StringIO()
        bc.dump_training_stats(stats, written)
        assert json.loads(written.getvalue()) == {"cooking": {"male": 30, "female": 70}}

    def test_copies_are_built_and_read_only(self):
        stats = stats_of({"cooking": {"male": 30, "female": 70},
                          "driving": {"male": 4, "female": 1}})
        for again in (pickle.loads(pickle.dumps(stats)), copy.deepcopy(stats)):
            assert again is not stats and again == stats
            assert list(again.counts) == ["cooking", "driving"]
            with pytest.raises(TypeError):
                again.counts["cooking"] = bc.GenderCount(1, 1)

    def test_numpy_counts_are_stored_as_ints(self):
        """np.int64 counts write the same stats, report JSON and scatter CSV as ints."""
        corpus = make_corpus([("a", [(0, "M", 0.3), (0, "W", 0.0)]),
                              ("b", [(1, "W", 0.1), (1, "M", -0.2)])], names=["cooking", "driving"])
        posteriors = bc.instance_posterior(corpus)
        written = []
        for integer in (int, np.int64):
            stats = bc.TrainingStats({"cooking": bc.GenderCount(integer(3), integer(7)),
                                      "driving": bc.GenderCount(integer(5), integer(2))})
            assert {type(n) for count in stats.counts.values() for n in count} == {int}
            report = bc.build_report(corpus, stats, posteriors, bc.map_predict(posteriors), 0.05)
            files = [io.StringIO() for _ in range(3)]
            bc.dump_training_stats(stats, files[0])
            report.write_json(files[1])
            report.write_scatter_csv(files[2])
            written.append([f.getvalue() for f in files])
        assert written[0] == written[1]

    @pytest.mark.parametrize("female", [np.True_, np.float64(5.0)])
    def test_numpy_non_integers_refused(self, female):
        with pytest.raises(bc.ValidationError, match="^activity 'cooking': female count must be "
                                                     f"an integer, got {re.escape(repr(female))}$"):
            bc.TrainingStats({"cooking": bc.GenderCount(1, female)})

    @pytest.mark.parametrize("count", [(1, 2, 3), (1,)])
    def test_count_of_the_wrong_length_refused(self, count):
        with pytest.raises(bc.ValidationError,
                           match=r"^activity 'cooking': count must be a \(male, female\) pair, "
                                 rf"got {re.escape(repr(count))}$"):
            bc.TrainingStats({"cooking": count})

    @pytest.mark.parametrize("text, message", [
        ('{"cooking": {"male": 1,\n "female": }}', "invalid stats JSON at line 2"),
        ('[{"male": 1, "female": 2}]', "stats file must be a JSON object"),
        ('{"cooking": [1, 2]}', "activity 'cooking': counts must be an object"),
    ])
    def test_malformed_file_rejected(self, text, message):
        with pytest.raises(bc.CorpusFormatError, match=f"^{re.escape(message)}"):
            bc.load_training_stats(io.StringIO(text))

    def test_repeated_activity_refused(self):
        # json.load keeps the last of the two counts, which would change b*
        text = ('{"activity_000": {"male": 1, "female": 9},\n'
                ' "activity_000": {"male": 5, "female": 5}}')
        with pytest.raises(bc.CorpusFormatError,
                           match="^stats file repeats key 'activity_000'$"):
            bc.load_training_stats(io.StringIO(text))


class TestConstrainedActivities:
    def test_gendered_candidate_present(self):
        corpus = make_corpus([("a", [(0, "M", 1.0)])], names=["cooking"])
        stats = stats_of({"cooking": {"male": 30, "female": 70}})
        assert bc.constrained_activities(stats, corpus) == [0]

    def test_only_ungendered_candidates_excluded(self):
        corpus = make_corpus([("a", [(0, "-", 1.0)])], names=["cooking"])
        stats = stats_of({"cooking": {"male": 30, "female": 70}})
        assert bc.constrained_activities(stats, corpus) == []

    def test_zero_training_counts_excluded(self):
        corpus = make_corpus([("a", [(0, "M", 1.0)])], names=["cooking"])
        stats = stats_of({"cooking": {"male": 0, "female": 0}})
        assert bc.constrained_activities(stats, corpus) == []

    def test_missing_from_stats_excluded(self):
        corpus = make_corpus([("a", [(0, "M", 1.0)])], names=["cooking"])
        assert bc.constrained_activities(bc.TrainingStats({}), corpus) == []

    def test_ascending_order_and_subset_of_vocabulary(self):
        corpus = make_corpus(
            [("a", [(2, "M", 0.0), (0, "W", 0.0), (1, "-", 0.0)])],
            names=["x", "y", "z"],
        )
        stats = stats_of({"x": {"male": 1, "female": 1}, "z": {"male": 2, "female": 0}})
        ids = bc.constrained_activities(stats, corpus)
        assert ids == [0, 2]
        assert set(ids) <= set(range(corpus.n_activities))

    def test_stable_under_instance_reordering(self):
        entries = [
            ("a", [(0, "M", 0.0)]),
            ("b", [(1, "W", 0.0)]),
            ("c", [(2, "-", 0.0)]),
        ]
        stats = stats_of(
            {"x": {"male": 1, "female": 0}, "y": {"male": 0, "female": 2}, "z": {"male": 1, "female": 1}}
        )
        forward = make_corpus(entries, n_activities=3, names=["x", "y", "z"])
        backward = take_instances(forward, [2, 1, 0])
        assert bc.constrained_activities(stats, forward) == bc.constrained_activities(stats, backward)


def fields_of(corpus):
    """The corpus's fields, as its constructor takes them."""
    return {f.name: getattr(corpus, f.name) for f in dataclasses.fields(corpus)}


def two_instances(**changes):
    """The constructor's fields of a small valid corpus, with ``changes``."""
    return {"activities": ("x", "y"), "ids": ("a", "b"), "offsets": [0, 2, 3],
            "activity": [0, 1, 1], "gender": [1, 2, 0], "score": [1.0, -2.5, 0.25],
            "gold": [1, -1], **changes}


def corruptions(corpus, draw):
    """(field, value, message): each value breaks one corpus rule in one field of ``corpus``,
    and the message is what the constructor raises for it."""
    i = draw(st.integers(0, len(corpus) - 1))
    r = draw(st.integers(0, corpus.n_rows - 1))
    inst, owner = corpus.ids[i], corpus.ids[corpus.segment_ids[r]]
    size, n = int(corpus.sizes[i]), corpus.n_activities

    def put(name, index, value):
        array = getattr(corpus, name).copy()
        array[index] = value
        return array

    def renamed(value):
        return corpus.ids[:i] + (value,) + corpus.ids[i + 1:]

    cases = [
        ("ids", renamed(""), "instance id must be a nonempty string, got ''"),
        ("ids", renamed(7), "instance id must be a nonempty string, got 7"),
        ("activity", put("activity", r, -1),
         f"instance {owner!r}: activity_id -1 not in vocabulary of size {n}"),
        ("activity", put("activity", r, n),
         f"instance {owner!r}: activity_id {n} not in vocabulary of size {n}"),
        ("gender", put("gender", r, 3), f"instance {owner!r}: gender code 3 is not 0, 1 or 2"),
        ("score", put("score", r, np.nan),
         f"instance {owner!r}: candidate score must be finite, got nan"),
        ("score", put("score", r, np.inf),
         f"instance {owner!r}: candidate score must be finite, got inf"),
        ("gold", put("gold", i, size),
         f"instance {inst!r}: gold index {size} out of range for {size} candidates"),
        ("gold", put("gold", i, -2),
         f"instance {inst!r}: gold index -2 out of range for {size} candidates"),
    ]
    if i > 0:  # instance i - 1 ends where it starts
        cases.append(("offsets", put("offsets", i, corpus.offsets[i - 1]),
                      f"instance {corpus.ids[i - 1]!r}: candidate list is empty"))
    for name in ("offsets", "activity", "gender", "gold"):
        for dtype in (bool, np.float64):
            cases.append((name, getattr(corpus, name).astype(dtype),
                          f"{name} must be integer indices, got dtype {np.dtype(dtype)}"))
    return cases


class TestInvariants:
    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(case=corpora(), data=st.data())
    def test_the_constructor_is_the_one_gate(self, case, data):
        corpus, _ = case
        text = io.StringIO()
        bc.dump_corpus(corpus, text)
        loaded = bc.load_corpus(io.StringIO(text.getvalue()))
        assert bc.Corpus(*fields_of(loaded).values()) == loaded
        # what the constructor accepts comes back from a file unchanged, its
        # activity ids renumbered in order of first appearance
        assert loaded.ids == corpus.ids
        for name in ("offsets", "gender", "score", "gold"):
            assert np.array_equal(getattr(loaded, name), getattr(corpus, name))
        names = np.array(corpus.activities, dtype=object)
        assert np.array_equal(np.array(loaded.activities, dtype=object)[loaded.activity],
                              names[corpus.activity])
        for name, value, message in corruptions(corpus, data.draw):
            with pytest.raises(bc.ValidationError, match=f"^{re.escape(message)}$"):
                bc.Corpus(**{**fields_of(corpus), name: value})

    @pytest.mark.parametrize("activities, message", [
        ((1,), "activity name must be a nonempty string, got 1"),
        (("",), "activity name must be a nonempty string, got ''"),
    ])
    def test_the_vocabulary_is_what_a_file_can_hold(self, activities, message):
        # dump_corpus writes the names and load_corpus reads them back, so
        # only nonempty string names can come back from a file
        with pytest.raises(bc.ValidationError, match=f"^{re.escape(message)}$"):
            bc.Corpus(activities, ("i",), [0, 1], [0], [1], [0.0], [-1])

    @pytest.mark.parametrize("field, noun", [("ids", "instance id"),
                                             ("activities", "activity name")])
    @pytest.mark.parametrize("names, message", [
        ("xy", "{field} must be a sequence of {noun}s, got 'xy'"),
        ({"x": 0, "y": 1}, "{field} must be a sequence of {noun}s, got {{'x': 0, 'y': 1}}"),
        (2, "{field} must be a sequence of {noun}s, got 2"),
        (("x", "x"), "duplicate {noun} 'x'"),
        (("x", ""), "{noun} must be a nonempty string, got ''"),
        (["x", None], "{noun} must be a nonempty string, got None"),
        ((b"x", "y"), "{noun} must be a nonempty string, got b'x'"),
    ], ids=["str", "mapping", "int", "duplicate", "empty", "none", "bytes"])
    def test_names_are_nonempty_distinct_strings(self, field, noun, names, message):
        # ids and activity names follow one rule; a str or a mapping is not
        # read as its characters or keys
        message = message.format(field=field, noun=noun)
        with pytest.raises(bc.ValidationError, match=f"^{re.escape(message)}$"):
            bc.Corpus(**two_instances(**{field: names}))

    def test_names_may_be_any_sequence_of_strings(self):
        corpus = bc.Corpus(**two_instances(activities=iter(["x", "y"]), ids=np.array(["a", "b"])))
        assert corpus == bc.Corpus(**two_instances())
        assert corpus.activities == ("x", "y") and corpus.ids == ("a", "b")

    def test_candidate_requires_finite_score(self):
        for score in (float("nan"), float("inf"), -float("inf")):
            message = f"^instance 'a': candidate score must be finite, got {score}$"
            with pytest.raises(bc.ValidationError, match=message):
                bc.Corpus(**two_instances(score=[1.0, score, 0.25]))

    @pytest.mark.parametrize("activity_id, gender, message", [
        (0, 3, "instance 'a': gender code 3 is not 0, 1 or 2"),
        (-1, 1, "instance 'a': activity_id -1 not in vocabulary of size 1"),
        (0.9, 1, "activity must be integer indices, got dtype float64"),
        (True, 1, "activity must be integer indices, got dtype bool"),
        ("0", 1, "activity must be integer indices, got dtype <U1"),
    ])
    def test_candidate_requires_a_gender_code_and_an_activity_id(self, activity_id, gender,
                                                                 message):
        with pytest.raises(bc.ValidationError, match=f"^{re.escape(message)}$"):
            bc.Corpus(("x",), ("a",), [0, 1], [activity_id], [gender], [0.0], [-1])

    @pytest.mark.parametrize("inst_id, gold, message", [
        ("", None, "instance id must be a nonempty string, got ''"),
        (7, None, "instance id must be a nonempty string, got 7"),
        ("a", True, "gold must be integer indices, got dtype bool"),
        ("a", 1.7, "gold must be integer indices, got dtype float64"),
        ("a", 0.0, "gold must be integer indices, got dtype float64"),
    ])
    def test_instance_requires_a_nonempty_id_and_an_integer_gold(self, inst_id, gold, message):
        with pytest.raises(bc.ValidationError, match=f"^{re.escape(message)}$"):
            bc.Corpus(("x",), (inst_id,), [0, 2], [0, 0], [1, 1], [0.0, 0.0],
                      [-1 if gold is None else gold])

    def test_numpy_integers_are_integers(self):
        corpus = bc.Corpus(**two_instances(offsets=np.array([0, 2, 3], np.int32),
                                           activity=np.array([0, 1, 1], np.uint8),
                                           gender=np.array([1, 2, 0], np.int64),
                                           gold=np.array([1, -1], np.int16)))
        assert corpus == bc.Corpus(**two_instances())
        assert [array.dtype for array in (corpus.offsets, corpus.activity, corpus.gender,
                                          corpus.score, corpus.gold)] == [
            np.int64, np.int64, np.int8, np.float64, np.int64]

    def test_instance_requires_candidates(self):
        with pytest.raises(bc.ValidationError, match="^instance 'a': candidate list is empty$"):
            bc.Corpus(**two_instances(offsets=[0, 0, 3], gold=[-1, -1]))

    def test_instance_gold_indexes_a_candidate(self):
        for gold, message in [
            ([2, -1], "instance 'a': gold index 2 out of range for 2 candidates"),
            ([1, -2], "instance 'b': gold index -2 out of range for 1 candidates"),
        ]:
            with pytest.raises(bc.ValidationError, match=f"^{re.escape(message)}$"):
                bc.Corpus(**two_instances(gold=gold))

    def test_corpus_rejects_unknown_activity_id(self):
        with pytest.raises(bc.ValidationError,
                           match="^instance 'b': activity_id 2 not in vocabulary of size 2$"):
            bc.Corpus(**two_instances(activity=[0, 1, 2]))

    def test_corpus_checks_duplicate_ids_before_activity_range(self):
        with pytest.raises(bc.ValidationError, match="^duplicate instance id 'a'$"):
            bc.Corpus(**two_instances(ids=("a", "a"), activity=[5, 0, 0]))

    @pytest.mark.parametrize("changes", [
        {"offsets": [0, 3]},
        {"offsets": [1, 2, 3]},
        {"offsets": [0, 2, 4]},
        {"offsets": [0, 3, 2, 3], "ids": ("a", "b", "c"), "gold": [-1, -1, -1]},
        {"gold": [1]},
        {"gender": [1, 2]},
        {"score": [[1.0, -2.5, 0.25]]},
    ])
    def test_columns_must_fit_the_offsets(self, changes):
        with pytest.raises(bc.ValidationError,
                           match="^corpus offsets do not match its ids, rows and gold$"):
            bc.Corpus(**two_instances(**changes))

    def test_keeps_copies_of_its_columns(self):
        score = np.array([1.0, -2.5, 0.25])
        corpus = bc.Corpus(**two_instances(score=score))
        score[0] = 9.0
        assert score.flags.writeable and corpus.score[0] == 1.0

    def test_corpus_is_immutable(self):
        corpus = corpus_of(
            '{"id":"a","gold":1,"candidates":[{"activity":"x","gender":"M","score":1.0},'
            '{"activity":"y","gender":"-","score":0.0}]}'
        )
        for name in ("activities", "ids", "instances", *ARRAYS):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(corpus, name, None)
        for name in ARRAYS:
            array = getattr(corpus, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_copies_are_built_and_read_only(self):
        corpus, _ = bc.generate(bc.SynthConfig(3, 30, seed=5))
        for again in (pickle.loads(pickle.dumps(corpus)), copy.deepcopy(corpus), copy.copy(corpus)):
            assert again is not corpus and again == corpus
            # the copy is built and checked again, so its arrays are read-only too
            for name in ARRAYS:
                assert not getattr(again, name).flags.writeable
            with pytest.raises(TypeError):
                again.activities["ghost"] = 3

    def test_vocabulary_is_read_only(self):
        names = ["x", "y"]
        corpus = bc.Corpus(**two_instances(activities=names))
        names[0] = "ghost"
        with pytest.raises(TypeError):
            corpus.activities[0] = "ghost"
        assert corpus.n_activities == 2 and corpus.activities == ("x", "y")

    def test_corpus_equality_compares_rows_not_objects(self):
        text = (
            '{"id":"a","gold":0,"candidates":[{"activity":"x","gender":"W","score":-0.5}]}\n'
            '{"id":"b","candidates":[{"activity":"y","gender":"M","score":2.0},'
            '{"activity":"x","gender":"-","score":1.0}]}\n'
        )
        first, second = bc.load_corpus(io.StringIO(text)), bc.load_corpus(io.StringIO(text))
        assert first == second
        assert first == bc.Corpus(**fields_of(first))
        renamed = dataclasses.replace(first, activities=("y", "x"))
        assert renamed != first
        assert first != bc.load_corpus(io.StringIO(text.replace("2.0", "2.5")))
        assert first != bc.load_corpus(io.StringIO(text.replace('"gold":0,', "")))

    def test_instances_count_the_rows(self):
        # the benchmark counts candidates as the lengths of these row ranges
        for sizes in ([2, 1, 4, 1, 3], []):
            corpus = make_corpus([(f"i{i}", [(0, "M", 0.0)] * n) for i, n in enumerate(sizes)],
                                 names=["x"])
            assert sum(len(inst.candidates) for inst in corpus.instances) == corpus.n_rows
            bounds = corpus.offsets.tolist()
            assert [inst.candidates for inst in corpus.instances] == [
                range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


# Names and ids that json.dumps must escape: quote, backslash, non-ASCII, U+2028.
AWKWARD_TEXT = ['say "hi"', "back\\slash", "café", "line break", "tab\tnul\x00", "\U0001d11e"]
# Scores whose repr is at an edge: subnormal, exponent switch, signed zero.
EDGE_SCORES = [5e-324, 1e16, -0.0, 0.0, 1e-5, 1e22, 2.0**53, -1.5, 0.1, 123456789.0]


@st.composite
def chunked_corpora(draw):
    """A corpus over two to three chunks whose names and ids need escaping and
    whose scores include repr edge cases, normalized by the reference reader
    so that activity ids are in first-appearance order."""
    names = draw(st.lists(st.one_of(st.sampled_from(AWKWARD_TEXT), st.text(min_size=1)),
                          min_size=1, max_size=6, unique=True))
    id_stem = draw(st.one_of(st.sampled_from(AWKWARD_TEXT), st.text(max_size=4)))
    scores = EDGE_SCORES + draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                         max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(2 * CHUNK_LINES + 1, 3 * CHUNK_LINES))
    sizes = rng.integers(1, 5, n)
    rows = int(sizes.sum())
    gold = np.where(rng.random(n) < 0.5, rng.integers(sizes), -1)
    corpus = bc.Corpus(names, tuple(f"{id_stem}{i}" for i in range(n)),
                       np.concatenate(([0], np.cumsum(sizes))),
                       rng.integers(len(names), size=rows), rng.integers(3, size=rows),
                       np.array(scores)[rng.integers(len(scores), size=rows)], gold)
    return ref.load_corpus(ref.write_records(corpus, "score", corpus.score.tolist()))


def record_mutations():
    """Edits of one parsed record, each breaking or bending one field."""
    def candidate(field, value):
        def edit(record):
            record["candidates"][-1][field] = value
        return edit

    def drop_candidate_key(record):
        del record["candidates"][0]["gender"]

    def setter(field, value):
        def edit(record):
            record[field] = value
        return edit

    return [
        setter("id", ""), setter("id", 7), setter("id", None), setter("candidates", []),
        setter("candidates", {}), setter("candidates", "ab"), setter("candidates", [3]),
        setter("gold", -1), setter("gold", True), setter("gold", 1.0), setter("gold", 99),
        setter("gold", None), setter("gold", 0), setter("gold", 2**64), drop_candidate_key,
        candidate("activity", ""), candidate("activity", 5), candidate("activity", 'new "one"'),
        candidate("gender", "X"), candidate("gender", []), candidate("gender", 1),
        candidate("score", "1"), candidate("score", True), candidate("score", float("nan")),
        candidate("score", float("inf")), candidate("score", 10**400), candidate("score", 3),
        candidate("score", 2**64 + 1), candidate("score", None),
    ]


def line_mutations(draw):
    """Edits of one line's text: malformed JSON, extra values, odd blanks."""
    return [
        lambda line: line[: draw(st.integers(0, len(line) - 2))] + "\n",
        lambda line: line.rstrip("\n") + " {}\n",
        lambda line: line.rstrip("\n") + ",{}\n",
        lambda line: line.rstrip("\n") + "\x0c\n",
        lambda line: " \t" + line,
        lambda line: "\x0c" + line,
        lambda line: "\n \n" + line,
        lambda line: "\x0c\n" + line,
        lambda line: "[]\n" + line,
        lambda line: "﻿" + line,
        lambda line: line.replace('"score": ', '"score": ' + "1" * 5000, 1),
    ]


def outcome(load, text):
    try:
        return load(text)
    except (bc.BiasCalError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


def run_values(rng, pool, offsets):
    """Values drawn from ``pool``, with a run over the last two rows of each
    chunk and the first two of the next, and 0.0, -0.0, -0.0, 0.0 in a row."""
    values = np.array(pool)[rng.integers(len(pool), size=offsets[-1])]
    for boundary in offsets[CHUNK_LINES:-1:CHUNK_LINES]:
        values[boundary - 2:boundary + 2] = pool[0]
    start = rng.integers(offsets[CHUNK_LINES] - 5)
    values[start:start + 4] = 0.0, -0.0, -0.0, 0.0
    return values


def assert_writers_match(corpus, values):
    """Both writers give the reference writer's text for ``values``."""
    scored = ref.load_corpus(ref.write_records(corpus, "score", values.tolist()))
    assert np.array_equal(scored.score.view(np.int64), values.view(np.int64))
    text = io.StringIO()
    bc.dump_corpus(scored, text)
    assert text.getvalue() == ref.write_records(scored, "score", values.tolist())
    text = io.StringIO()
    _write_records(corpus, "prob", values, text)
    assert text.getvalue() == ref.write_records(corpus, "prob", values.tolist())


class TestChunkedIO:
    @settings(deadline=None, max_examples=15, derandomize=True)
    @given(corpus=chunked_corpora(), data=st.data())
    def test_writers_match_the_reference_writer(self, corpus, data):
        text = io.StringIO()
        bc.dump_corpus(corpus, text)
        assert text.getvalue() == ref.write_records(corpus, "score", corpus.score.tolist())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        probs = rng.random(corpus.n_rows)
        edges = rng.random(corpus.n_rows) < 0.2
        probs[edges] = rng.choice(EDGE_SCORES, edges.sum())
        text = io.StringIO()
        _write_records(corpus, "prob", probs, text)
        assert text.getvalue() == ref.write_records(corpus, "prob", probs.tolist())
        # a table is written as its corpus and probabilities are
        table = bc.instance_posterior(corpus)
        text, expected = io.StringIO(), io.StringIO()
        dump_posteriors(table, text)
        _write_records(table.corpus, "prob", table.probs, expected)
        assert text.getvalue() == expected.getvalue()

    @settings(deadline=None, max_examples=15, derandomize=True)
    @given(corpus=chunked_corpora(), data=st.data())
    def test_runs_of_repeated_values_match_the_reference_writer(self, corpus, data):
        # the writer formats each run of bit-identical values once: runs that
        # cross chunk boundaries, signed zeros side by side, one value
        # throughout, one-row instances and no instances at all
        pool = data.draw(st.lists(st.sampled_from(EDGE_SCORES), min_size=2, max_size=3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        firsts = corpus.offsets[:-1]
        singles = bc.Corpus(corpus.activities, corpus.ids, np.arange(len(corpus) + 1),
                            corpus.activity[firsts], corpus.gender[firsts], corpus.score[firsts],
                            np.minimum(corpus.gold, 0))
        for case in (corpus, singles):
            assert_writers_match(case, run_values(rng, pool, case.offsets))
            assert_writers_match(case, np.full(case.n_rows, pool[0]))
        assert_writers_match(bc.Corpus((), (), [0], [], [], [], []), np.zeros(0))

    @settings(deadline=None, max_examples=15, derandomize=True)
    @given(corpus=chunked_corpora(), data=st.data())
    def test_load_inverts_dump_and_matches_the_reference_reader(self, corpus, data):
        text = io.StringIO()
        bc.dump_corpus(corpus, text)
        assert bc.load_corpus(io.StringIO(text.getvalue())) == corpus
        # integer scores, including ones a float rounds, read as the reference reads them
        values = corpus.score.tolist()
        for row in data.draw(st.lists(st.integers(0, corpus.n_rows - 1), max_size=20)):
            values[row] = data.draw(st.integers(-2**70, 2**70))
        text = ref.write_records(corpus, "score", values)
        assert bc.load_corpus(io.StringIO(text)) == ref.load_corpus(text)

    @settings(deadline=None, max_examples=8, derandomize=True)
    @given(corpus=chunked_corpora(), data=st.data())
    def test_broken_line_raises_what_the_reference_raises(self, corpus, data):
        lines = ref.write_records(corpus, "score", corpus.score.tolist()).splitlines(True)
        edits = [(True, edit) for edit in record_mutations()]
        edits += [(False, edit) for edit in line_mutations(data.draw)]
        for of_record, edit in edits:
            broken = list(lines)
            where = data.draw(st.integers(0, len(lines) - 1))
            if of_record:
                record = json.loads(broken[where])
                edit(record)
                broken[where] = json.dumps(record) + "\n"
            else:
                broken[where] = edit(broken[where])
            text = "".join(broken)
            assert (outcome(lambda t: bc.load_corpus(io.StringIO(t)), text)
                    == outcome(ref.load_corpus, text))
