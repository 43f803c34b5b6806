from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgreport.dataset import (
    FrameAnnotation,
    Triplet,
    VideoRecord,
    duration_rows_from_counts,
    minutes_from_frames,
    parse_annotations,
    phase_duration_table,
    serialize_annotations,
    split_dataset,
    split_labels,
)
from surgreport.errors import AnnotationError, RecordError
from surgreport.jsonl import iter_jsonl
from surgreport.vocab import NULL_TARGET_NAME, NULL_TOKEN, NULL_VERB_NAME, Vocabulary, default_vocabulary

from conftest import frame, make_corpus

SINGLE_FRAME = (
    '{"video_id": "VID01", "frame": 0, "phase": "preparation",'
    ' "triplets": [["grasper", "grasp", "gallbladder"]]}\n'
)


def test_parse_single_frame_round_trip(vocab):
    records = parse_annotations(SINGLE_FRAME, vocab)
    assert len(records) == 1
    record = records[0]
    assert record.video_id == "VID01"
    assert len(record.frames) == 1
    f = record.frames[0]
    assert vocab.phases[f.phase] == "preparation"
    assert f.triplets == (Triplet(0, 0, 0),)
    assert parse_annotations(serialize_annotations(records, vocab), vocab) == records


def test_parse_null_verb_and_target(vocab):
    line = '{"video_id": "V", "frame": 0, "phase": "preparation", "triplets": [["hook", "null", "null"]]}'
    records = parse_annotations(line, vocab)
    assert records[0].frames[0].triplets == (Triplet(vocab.index_of("instruments", "hook")),)


def test_parse_null_sentinel_names_normalize(vocab):
    line = (
        '{"video_id": "V", "frame": 0, "phase": "preparation",'
        ' "triplets": [["hook", "null_verb", "null_target"]]}'
    )
    records = parse_annotations(line, vocab)
    assert records[0].frames[0].triplets[0].verb is None
    assert records[0].frames[0].triplets[0].target is None


def test_parse_unknown_label_reports_line(vocab):
    bad = SINGLE_FRAME + '{"video_id": "VID01", "frame": 1, "phase": "preparation", "triplets": [["grasper", "levitate", "gallbladder"]]}\n'
    with pytest.raises(AnnotationError, match="unknown verb label 'levitate'") as exc:
        parse_annotations(bad, vocab)
    assert exc.value.line == 2


def test_parse_malformed_line_reports_line(vocab):
    with pytest.raises(AnnotationError, match="malformed record") as exc:
        parse_annotations(SINGLE_FRAME + "not json\n", vocab)
    assert exc.value.line == 2


def test_parse_duplicate_frame_index(vocab):
    with pytest.raises(AnnotationError, match="duplicate frame index 0"):
        parse_annotations(SINGLE_FRAME + SINGLE_FRAME, vocab)


def test_parse_non_contiguous_frames(vocab):
    line = '{"video_id": "V", "frame": 5, "phase": "preparation", "triplets": []}'
    with pytest.raises(AnnotationError, match="contiguous"):
        parse_annotations(line, vocab)


def test_parse_target_without_verb_rejected(vocab):
    line = '{"video_id": "V", "frame": 0, "phase": "preparation", "triplets": [["hook", "null", "liver"]]}'
    with pytest.raises(AnnotationError, match="null verb"):
        parse_annotations(line, vocab)


def test_parse_synthetic_corpus_counts(vocab):
    records = make_corpus(vocab, n_videos=3, n_frames=100, seed=11)
    text = serialize_annotations(records, vocab)
    parsed = parse_annotations(text, vocab)
    assert len(parsed) == 3
    assert sum(len(r.frames) for r in parsed) == 300
    assert parsed == records


def test_video_record_requires_contiguity(vocab):
    frames = (frame(vocab, "V", 0, "preparation"), frame(vocab, "V", 2, "preparation"))
    with pytest.raises(ValueError, match="contiguous"):
        VideoRecord("V", frames)


def _record_of(vocab, n, video_id="V"):
    frames = tuple(
        FrameAnnotation(video_id, i, (), i % len(vocab.phases)) for i in range(n)
    )
    return VideoRecord(video_id, frames)


def test_split_exact_division(vocab):
    split = split_dataset([_record_of(vocab, 10)], (0.8, 0.1, 0.1), seed=3)
    assert split.sizes() == (8, 1, 1)


def test_split_large_corpus_sizes(vocab):
    total = 89927
    split = split_dataset([_record_of(vocab, total)], (0.8, 0.1, 0.1), seed=5)
    sizes = split.sizes()
    assert sum(sizes) == total
    for size, exact in zip(sizes, (71941.6, 8992.7, 8992.7)):
        assert abs(size - exact) <= 1.0


def test_split_deterministic(vocab):
    records = make_corpus(vocab, 2, 50, seed=1)
    a = split_dataset(records, seed=42)
    b = split_dataset(records, seed=42)
    assert (a.train, a.test, a.validation) == (b.train, b.test, b.validation)
    c = split_dataset(records, seed=43)
    assert a.train != c.train


def test_split_bad_ratios(vocab):
    with pytest.raises(ValueError, match="sum to 1"):
        split_dataset([_record_of(vocab, 10)], (0.8, 0.1, 0.2))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=10_000), seed=st.integers(0, 2**16))
def test_split_partitions_frames(n, seed):
    from surgreport.vocab import default_vocabulary

    vocab = default_vocabulary()
    record = _record_of(vocab, n)
    split = split_dataset([record], seed=seed)
    union = split.train | split.test | split.validation
    assert len(split.train) + len(split.test) + len(split.validation) == n
    assert union == {("V", i) for i in range(n)}


def test_split_video_granularity_keeps_videos_whole(vocab):
    records = make_corpus(vocab, 6, 40, seed=9)
    split = split_dataset(records, seed=2, granularity="video")
    for part in (split.train, split.test, split.validation):
        videos = {ref[0] for ref in part}
        for video in videos:
            assert {ref for ref in part if ref[0] == video} == {
                (video, i) for i in range(40)
            }


def _split_oracle(records, ratios, seed, granularity):
    """The frozenset split drawn from the shuffled (video_id, frame) refs themselves."""
    rng = random.Random(seed)
    if granularity == "frame":
        refs = sorted((rec.video_id, f.frame_index) for rec in records for f in rec.frames)
        rng.shuffle(refs)
        total = len(refs)
        exact = [r * total for r in ratios]
        counts = [int(x) for x in exact]
        for i in sorted(range(3), key=lambda i: (-(exact[i] - counts[i]), i))[: total - sum(counts)]:
            counts[i] += 1
        n_train, n_test = counts[0], counts[1]
        parts = (refs[:n_train], refs[n_train : n_train + n_test], refs[n_train + n_test :])
    else:
        videos = sorted(records, key=lambda r: r.video_id)
        rng.shuffle(videos)
        targets = [r * sum(len(v) for v in videos) for r in ratios]
        filled = [0, 0, 0]
        parts = ([], [], [])
        for video in videos:
            slot = max(range(3), key=lambda i: (targets[i] - filled[i], -i))
            parts[slot].extend((video.video_id, f.frame_index) for f in video.frames)
            filled[slot] += len(video)
    return tuple(frozenset(part) for part in parts)


@st.composite
def _split_cases(draw):
    lengths = draw(st.lists(st.integers(1, 60), min_size=1, max_size=6))
    names = draw(st.permutations([f"V{i}" for i in range(len(lengths))]))
    records = [_record_of(default_vocabulary(), n, name) for n, name in zip(lengths, names)]
    a = draw(st.floats(0.0, 1.0))
    b = draw(st.floats(0.0, 1.0 - a))
    return records, (a, b, 1.0 - a - b), draw(st.integers(0, 2**32))


@settings(max_examples=200, deadline=None)
@given(_split_cases(), st.sampled_from(["frame", "video"]))
def test_split_labels_equal_the_shuffled_refs_oracle(case, granularity):
    records, ratios, seed = case
    expected = _split_oracle(records, ratios, seed, granularity)
    split = split_dataset(records, ratios, seed, granularity)
    assert (split.train, split.test, split.validation) == expected
    videos = sorted(records, key=lambda r: r.video_id)
    labels = split_labels([len(rec) for rec in videos], ratios, seed, granularity)
    rows = [(rec.video_id, f.frame_index) for rec in videos for f in rec.frames]
    assert tuple(frozenset(ref for ref, label in zip(rows, labels) if label == part)
                 for part in range(3)) == expected


def test_minutes_half_up_rounding():
    assert minutes_from_frames(2806) == 46.8
    assert minutes_from_frames(60) == 1.0
    # 39 frames = 0.65 minutes exactly; half-up rounds to 0.7
    assert minutes_from_frames(39) == 0.7


REFERENCE_PHASE_COUNTS = [2806, 38808, 7790, 26789, 3790, 6986, 2858]
REFERENCE_PHASE_MINUTES = [46.8, 646.8, 129.8, 446.5, 63.2, 116.4, 47.6]


def test_duration_rows_reference_counts(vocab):
    rows = duration_rows_from_counts(REFERENCE_PHASE_COUNTS, vocab)
    assert [r[2] for r in rows[:-1]] == REFERENCE_PHASE_MINUTES
    assert rows[-1][0] == "total"
    assert rows[-1][1] == sum(REFERENCE_PHASE_COUNTS)
    # The published total row (89927 frames -> 1498.8 min) is arithmetic on
    # its own count; the seven listed counts sum to 89827.
    assert minutes_from_frames(89927) == 1498.8


def test_phase_duration_table_from_records(vocab):
    rng = random.Random(7)
    counts = [rng.randint(1, 50) for _ in vocab.phases]
    frames = []
    i = 0
    for phase, count in enumerate(counts):
        for _ in range(count):
            frames.append(FrameAnnotation("V", i, (), phase))
            i += 1
    rows = phase_duration_table([VideoRecord("V", tuple(frames))], vocab)
    assert [r[1] for r in rows[:-1]] == counts
    assert rows[-1][1] == sum(counts)
    for name, count, minutes in rows:
        assert minutes == minutes_from_frames(count)


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
def test_round_trip_keeps_unicode_line_separators_in_video_ids(vocab, separator):
    records = parse_annotations(SINGLE_FRAME.replace("VID01", "VID" + separator + "01"), vocab)
    text = serialize_annotations(records, vocab)
    assert separator in text
    parsed = parse_annotations(text, vocab)
    assert parsed == records
    assert parsed[0].video_id == "VID" + separator + "01"


@pytest.mark.parametrize(
    ("field", "bad", "message"),
    [
        ('"frame": 0', '"frame": true', "frame must be a nonnegative integer, got bool"),
        ('"frame": 0', '"frame": 0.0', "frame must be a nonnegative integer, got float"),
        ('"frame": 0', '"frame": -1', "frame must be a nonnegative integer, got -1"),
        ('"video_id": "VID01"', '"video_id": ""', "video_id must be a non-empty string"),
        ('"video_id": "VID01"', '"video_id": 1', "video_id must be a string, got int"),
    ],
)
def test_parse_bad_field_reports_line(vocab, field, bad, message):
    text = SINGLE_FRAME.replace("VID01", "VID02") + SINGLE_FRAME.replace(field, bad)
    with pytest.raises(AnnotationError, match=message) as exc:
        parse_annotations(text, vocab, "a.jsonl")
    assert (exc.value.source, exc.value.line) == ("a.jsonl", 2)


def test_annotation_error_is_record_error():
    assert AnnotationError is RecordError


# The parser before triplets were parsed once per distinct list, kept
# verbatim (only its entry point renamed) as the oracle of the new one.
def _component_index(
    raw: object, category: str, null_name: str, vocab: Vocabulary
) -> int | None:
    if raw is None or raw in (NULL_TOKEN, null_name):
        return None
    return vocab.index_of(category, raw)


def _parse_triplet(raw: object, vocab: Vocabulary) -> Triplet:
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise KeyError(f"triplet must be a [instrument, verb, target] list, got {raw!r}")
    instrument_name, verb_raw, target_raw = raw
    instrument = vocab.index_of("instruments", instrument_name)
    verb = _component_index(verb_raw, "verbs", NULL_VERB_NAME, vocab)
    target = _component_index(target_raw, "targets", NULL_TARGET_NAME, vocab)
    if verb is None and target is not None:
        raise KeyError("triplet has a target but a null verb")
    return Triplet(instrument=instrument, verb=verb, target=target)


_ANNOTATION_FIELDS = {"video_id": str, "frame": int, "phase": str, "triplets": list}


def _parse_annotations_oracle(
    source: bytes | str, vocab: Vocabulary, source_name: str = "<annotations>"
) -> list[VideoRecord]:
    """Parse line-delimited annotation records into validated video records.

    Records may arrive in any order; frames are sorted per video. Malformed
    records, unknown label names, and duplicate frame indices raise
    RecordError with the offending line number.
    """
    text = source.decode("utf-8") if isinstance(source, bytes) else source
    frames_by_video: dict[str, dict[int, FrameAnnotation]] = {}
    for lineno, obj in iter_jsonl(text, source_name, _ANNOTATION_FIELDS):
        video_id, frame_index = obj["video_id"], obj["frame"]
        if not video_id:
            raise RecordError("video_id must be a non-empty string", source_name, lineno)
        try:
            phase = vocab.index_of("phases", obj["phase"])
            triplets = tuple(_parse_triplet(raw, vocab) for raw in obj["triplets"])
        except KeyError as exc:
            raise RecordError(str(exc).strip('"'), source_name, lineno) from None
        frames = frames_by_video.setdefault(video_id, {})
        if frame_index in frames:
            raise RecordError(
                f"duplicate frame index {frame_index} for video {video_id}",
                source_name,
                lineno,
            )
        frames[frame_index] = FrameAnnotation(video_id, frame_index, triplets, phase)

    records = []
    for video_id, frames in frames_by_video.items():
        ordered = tuple(frames[i] for i in sorted(frames))
        try:
            records.append(VideoRecord(video_id, ordered))
        except ValueError as exc:
            raise RecordError(str(exc), source_name) from None
    return records


# One-letter names, so a string such as "agq" has the tuple() of a valid key.
_LETTERS = Vocabulary(
    instruments=tuple("abcdef"),
    verbs=tuple("ghijklmno") + (NULL_VERB_NAME,),
    targets=tuple("qrstuvwxyzABCD") + (NULL_TARGET_NAME,),
    phases=tuple("FGHIJKL"),
)
_VALID_TRIPLETS = [
    ["a", "g", "q"], ["a", "null", "null"], ["b", None, None], ["c", NULL_VERB_NAME, "null"],
    ["d", "h", NULL_TARGET_NAME], ["f", "o", "D"], ["a", "g", "r"],
]
_INVALID_TRIPLETS = [
    "agq",                                # tuple() is a valid key
    {"a": 0, "g": 0, "q": 0},             # so is this dict's
    ("a", "g", "q"),                      # a list in JSON again; valid
    ["a", "g"], ["a", "g", "q", "r"], [], None, 7,
    ["a", ["g"], "q"], ["a", "g", {"q": 1}],  # unhashable components
    ["z", "g", "q"], ["a", "p", "q"], ["a", "g", "E"],
    ["a", "null", "q"],                   # a target with a null verb
    [True, "g", "q"], ["a", 1, "q"], [1.0, None, None],
]


def _annotation_outcome(parse, text):
    try:
        return parse(text, _LETTERS, "ann.jsonl")
    except RecordError as exc:
        return ("RecordError", str(exc))


@settings(max_examples=300, deadline=None)
@given(
    frames=st.lists(
        st.lists(st.sampled_from(_VALID_TRIPLETS * 12 + _INVALID_TRIPLETS), max_size=3),
        min_size=1,
        max_size=12,
    ),
    order=st.randoms(use_true_random=False),
)
def test_parse_annotations_matches_oracle(frames, order):
    lines = [
        json.dumps({"video_id": "V", "frame": i, "phase": "F", "triplets": triplets})
        for i, triplets in enumerate(frames)
    ]
    order.shuffle(lines)
    text = "\n".join(lines) + "\n"
    assert _annotation_outcome(parse_annotations, text) == _annotation_outcome(
        _parse_annotations_oracle, text
    )


def test_parse_annotations_shares_one_triplet_per_distinct_list():
    lines = [{"video_id": "V", "frame": i, "phase": "F", "triplets": [["a", "g", "q"]]} for i in range(3)]
    text = "".join(json.dumps(line) + "\n" for line in lines)
    frames = parse_annotations(text, _LETTERS)[0].frames
    assert frames[0].triplets[0] is frames[1].triplets[0] is frames[2].triplets[0]
    assert parse_annotations(text, _LETTERS) == _parse_annotations_oracle(text, _LETTERS)


@pytest.mark.parametrize("raw", ["agq", {"a": 0, "g": 0, "q": 0}])
def test_a_string_or_dict_spelling_a_seen_triplet_is_rejected_at_its_line(raw):
    lines = [
        {"video_id": "V", "frame": 0, "phase": "F", "triplets": [["a", "g", "q"]]},
        {"video_id": "V", "frame": 1, "phase": "F", "triplets": [raw]},
    ]
    text = "".join(json.dumps(line) + "\n" for line in lines)
    with pytest.raises(RecordError, match="^ann.jsonl:2: triplet must be a") as caught:
        parse_annotations(text, _LETTERS, "ann.jsonl")
    with pytest.raises(RecordError) as expected:
        _parse_annotations_oracle(text, _LETTERS, "ann.jsonl")
    assert str(caught.value) == str(expected.value)
