from __future__ import annotations

import random
from typing import NoReturn

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgreport.captions import (
    NO_INSTRUMENT_CLAUSE,
    ClipCaption,
    PhaseSegment,
    VERB_FORMS,
    _grammar,
    parse_clip_caption,
    read_clip_captions,
    read_frame_captions,
    render_clip_text,
    segments_from_frames,
    synthesize_clip_caption,
    synthesize_frame_caption,
    write_clip_captions,
    write_frame_captions,
)
from surgreport.dataset import FrameAnnotation, Triplet
from surgreport.errors import GrammarError
from surgreport.vocab import NULL_VERB_NAME, Vocabulary, default_vocabulary
from surgreport.windowing import ClipWindow

from conftest import frame, triplet

# The documented two-phase clip narration: 22 s of preparation (grasper
# holding the gallbladder, hook present) then 10 s of Calot-triangle
# dissection with the same actions carried over.
TWO_PHASE_CLIP_TEXT = (
    "First, during the 22-second preparation phase, the grasper holds the "
    "gallbladder while the hook is present. Then, during the 10-second "
    "calot-triangle-dissection phase, the grasper continues to hold the "
    "gallbladder while the hook remains present."
)


def two_phase_frames(vocab):
    actions = (triplet(vocab, "grasper", "grasp", "gallbladder"), triplet(vocab, "hook"))
    frames = [frame(vocab, "VID01", i, "preparation", actions) for i in range(22)]
    frames += [frame(vocab, "VID01", 22 + i, "calot-triangle-dissection", actions) for i in range(10)]
    return frames


def clip_for(frames):
    return ClipWindow(frames[0].video_id, frames[0].frame_index, tuple(f.frame_index for f in frames))


def test_frame_caption_with_action_and_presence(vocab):
    f = frame(
        vocab,
        "V",
        0,
        "calot-triangle-dissection",
        [("grasper", "retract", "gallbladder"), ("hook",)],
    )
    assert synthesize_frame_caption(f, vocab).text == (
        "During phase calot-triangle-dissection, the grasper is retracting the "
        "gallbladder, the hook is present"
    )


def test_frame_caption_single_action(vocab):
    f = frame(vocab, "V", 0, "gallbladder-dissection", [("hook", "dissect", "gallbladder")])
    assert synthesize_frame_caption(f, vocab).text == (
        "During phase gallbladder-dissection, the hook is dissecting the gallbladder"
    )


def test_frame_caption_empty_triplets(vocab):
    f = frame(vocab, "V", 0, "preparation")
    assert synthesize_frame_caption(f, vocab).text == (
        "During phase preparation, no instrument is active"
    )


def test_frame_caption_underscore_targets(vocab):
    f = frame(
        vocab,
        "V",
        0,
        "calot-triangle-dissection",
        [("bipolar", "dissect", "cystic_artery"), ("grasper", "grasp", "gallbladder")],
    )
    assert synthesize_frame_caption(f, vocab).text == (
        "During phase calot-triangle-dissection, the bipolar is dissecting the "
        "cystic_artery, the grasper is grasping the gallbladder"
    )


def test_verb_forms_cover_the_vocabulary(vocab):
    assert set(VERB_FORMS) == set(vocab.verbs)
    assert len(VERB_FORMS) == 10


def test_two_phase_clip_caption_text_and_segments(vocab):
    frames = two_phase_frames(vocab)
    caption = synthesize_clip_caption(clip_for(frames), frames, vocab)
    assert [(vocab.phases[s.phase], s.duration_seconds) for s in caption.segments] == [
        ("preparation", 22),
        ("calot-triangle-dissection", 10),
    ]
    assert caption.text == TWO_PHASE_CLIP_TEXT
    assert caption.text.startswith(
        "First, during the 22-second preparation phase, the grasper holds the "
        "gallbladder while the hook is present. Then, during the 10-second "
        "calot-triangle-dissection phase,"
    )


def test_constant_clip_single_segment(vocab):
    actions = (triplet(vocab, "hook", "dissect", "gallbladder"),)
    frames = [frame(vocab, "V", i, "gallbladder-dissection", actions) for i in range(32)]
    caption = synthesize_clip_caption(clip_for(frames), frames, vocab)
    assert len(caption.segments) == 1
    assert caption.segments[0].duration_seconds == 32


def test_alternating_phase_runs(vocab):
    frames = []
    for i in range(10):
        frames.append(frame(vocab, "V", i, "preparation"))
    for i in range(12):
        frames.append(frame(vocab, "V", 10 + i, "cleaning-and-coagulation"))
    for i in range(10):
        frames.append(frame(vocab, "V", 22 + i, "preparation"))
    caption = synthesize_clip_caption(clip_for(frames), frames, vocab)
    assert [s.duration_seconds for s in caption.segments] == [10, 12, 10]
    phases = [vocab.phases[s.phase] for s in caption.segments]
    assert phases == ["preparation", "cleaning-and-coagulation", "preparation"]


def test_segments_match_run_length_encoding_oracle(vocab):
    rng = random.Random(5)
    for _ in range(50):
        phases = [rng.randrange(len(vocab.phases)) for _ in range(rng.randint(1, 40))]
        frames = [FrameAnnotation("V", i, (), p) for i, p in enumerate(phases)]
        segments = segments_from_frames(frames)
        # independent run-length encoding
        runs = []
        for p in phases:
            if runs and runs[-1][0] == p:
                runs[-1][1] += 1
            else:
                runs.append([p, 1])
        assert [(s.phase, s.duration_seconds) for s in segments] == [tuple(r) for r in runs]


def _segments_from_frames_oracle(frames):
    """The run-variable grouping of frames into phase segments, kept as an oracle."""
    segments = []
    run_phase = None
    run_length = 0
    run_actions = {}
    for frame in frames:
        if frame.phase != run_phase:
            if run_phase is not None:
                segments.append(PhaseSegment(run_phase, run_length, tuple(run_actions)))
            run_phase = frame.phase
            run_length = 0
            run_actions = {}
        run_length += 1
        for action in frame.triplets:
            run_actions.setdefault(action)
    if run_phase is not None:
        segments.append(PhaseSegment(run_phase, run_length, tuple(run_actions)))
    return segments


def test_segments_match_oracle_with_actions(vocab):
    rng = random.Random(11)
    actions = [triplet(vocab, name) for name in vocab.instruments[:4]]
    actions.append(triplet(vocab, "grasper", "retract", "gallbladder"))
    for _ in range(300):
        frames = [
            FrameAnnotation("V", i, tuple(rng.sample(actions, rng.randint(0, 3))), rng.randrange(3))
            for i in range(rng.randint(0, 40))
        ]
        assert segments_from_frames(frames) == _segments_from_frames_oracle(frames)


def test_clip_caption_missing_frames(vocab):
    frames = two_phase_frames(vocab)
    with pytest.raises(ValueError, match="missing frames"):
        synthesize_clip_caption(clip_for(frames), frames[:-1], vocab)


def test_segment_durations_sum_to_clip_size(vocab):
    frames = two_phase_frames(vocab)
    caption = synthesize_clip_caption(clip_for(frames), frames, vocab)
    assert caption.size == 32


def test_parse_two_phase_reference_text(vocab):
    segments = parse_clip_caption(TWO_PHASE_CLIP_TEXT, vocab)
    assert [(vocab.phases[s.phase], s.duration_seconds) for s in segments] == [
        ("preparation", 22),
        ("calot-triangle-dissection", 10),
    ]
    grasp = triplet(vocab, "grasper", "grasp", "gallbladder")
    hook = triplet(vocab, "hook")
    assert segments[0].actions == (grasp, hook)
    assert segments[1].actions == (grasp, hook)


def test_parse_single_segment(vocab):
    text = "First, during the 32-second preparation phase, no instrument is active."
    segments = parse_clip_caption(text, vocab)
    assert segments == [PhaseSegment(vocab.index_of("phases", "preparation"), 32, ())]


def test_parse_inverts_synthesis_exactly(vocab):
    frames = two_phase_frames(vocab)
    caption = synthesize_clip_caption(clip_for(frames), frames, vocab)
    assert tuple(parse_clip_caption(caption.text, vocab)) == caption.segments


@pytest.mark.parametrize(
    "text, offset_hint",
    [
        ("Second, during the 22-second preparation phase, no instrument is active.", "First"),
        ("First, during the x-second preparation phase, no instrument is active.", "duration"),
        ("First, during the 22-second resection phase, no instrument is active.", "phase"),
        ("First, during the 22-second preparation phase, the drill is present.", "instrument"),
        ("First, during the 22-second preparation phase, the grasper levitates.", "verb"),
        ("First, during the 22-second preparation phase, the grasper holds the moon.", "target"),
    ],
)
def test_parse_grammar_violations(vocab, text, offset_hint):
    with pytest.raises(GrammarError) as exc:
        parse_clip_caption(text, vocab)
    assert exc.value.offset >= 0
    assert exc.value.offset <= len(text)


def test_parse_reports_character_offset(vocab):
    text = "First, during the 22-second preparation phase, the drill is present."
    with pytest.raises(GrammarError) as exc:
        parse_clip_caption(text, vocab)
    assert exc.value.offset == text.index("drill")


def _action_strategy():
    verbs = st.one_of(st.none(), st.integers(0, 8))

    def build(instrument, verb, target):
        if verb is None:
            return Triplet(instrument)
        return Triplet(instrument, verb, target)

    return st.builds(
        build,
        instrument=st.integers(0, 5),
        verb=verbs,
        target=st.one_of(st.none(), st.integers(0, 13)),
    )


@st.composite
def _segment_lists(draw):
    n = draw(st.integers(1, 4))
    segments = []
    previous_phase = None
    for _ in range(n):
        choices = [p for p in range(7) if p != previous_phase]
        phase = draw(st.sampled_from(choices))
        previous_phase = phase
        duration = draw(st.integers(1, 60))
        actions = draw(
            st.lists(_action_strategy(), min_size=0, max_size=3, unique=True)
        )
        segments.append(PhaseSegment(phase, duration, tuple(actions)))
    return segments


@settings(max_examples=150, deadline=None)
@given(segments=_segment_lists())
def test_render_parse_round_trip_property(segments):
    vocab = default_vocabulary()
    text = render_clip_text(segments, vocab)
    assert parse_clip_caption(text, vocab) == segments


def test_render_parse_round_trip_thousand_cases(vocab):
    rng = random.Random(77)
    action_verbs = list(range(9))
    for _ in range(1000):
        segments = []
        previous_phase = None
        for _ in range(rng.randint(1, 5)):
            phase = rng.choice([p for p in range(7) if p != previous_phase])
            previous_phase = phase
            actions = {}
            for _ in range(rng.randint(0, 3)):
                instrument = rng.randrange(6)
                if rng.random() < 0.3:
                    actions.setdefault(Triplet(instrument))
                else:
                    target = None if rng.random() < 0.2 else rng.randrange(14)
                    actions.setdefault(Triplet(instrument, rng.choice(action_verbs), target))
            segments.append(PhaseSegment(phase, rng.randint(1, 90), tuple(actions)))
        text = render_clip_text(segments, vocab)
        assert parse_clip_caption(text, vocab) == segments


def test_frame_caption_grammar_is_total(vocab):
    # every valid annotation yields a non-empty, well-formed sentence
    rng = random.Random(13)
    for _ in range(300):
        triplets = {}
        for _ in range(rng.randint(0, 4)):
            instrument = rng.randrange(6)
            if rng.random() < 0.3:
                triplets.setdefault(Triplet(instrument))
            else:
                target = None if rng.random() < 0.2 else rng.randrange(14)
                triplets.setdefault(Triplet(instrument, rng.randrange(9), target))
        annotation = FrameAnnotation("V", 0, tuple(triplets), rng.randrange(7))
        annotation.validate(vocab)
        text = synthesize_frame_caption(annotation, vocab).text
        assert text.startswith("During phase ")
        assert len(text) > len("During phase ")


def test_caption_file_round_trip(tmp_path, vocab):
    frames = two_phase_frames(vocab)
    clip_caption = synthesize_clip_caption(clip_for(frames), frames, vocab)
    frame_captions = [synthesize_frame_caption(f, vocab) for f in frames]

    fpath = tmp_path / "frames.jsonl"
    cpath = tmp_path / "clips.jsonl"
    assert write_frame_captions(fpath, frame_captions) == 32
    assert write_clip_captions(cpath, [clip_caption]) == 1
    assert read_frame_captions(fpath) == frame_captions
    loaded = read_clip_captions(cpath, vocab)
    assert loaded == [clip_caption]
    assert read_clip_captions(cpath)[0].segments == ()


# The cursor parser that read every caption before the grammar was compiled,
# kept verbatim (only its entry point renamed) as the oracle of the new one.
_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789_-")


class _ClipCaptionParser:
    """Cursor parser for clip-caption text; errors carry character offsets."""

    def __init__(self, text: str, vocab: Vocabulary):
        self.text = text
        self.pos = 0
        self.vocab = vocab
        self.instruments = self._by_length(vocab.instruments)
        self.targets = self._by_length(vocab.targets)
        self.phases = self._by_length(vocab.phases)
        self.present_verbs = self._verb_map("present")
        self.base_verbs = self._verb_map("base")

    @staticmethod
    def _by_length(names: tuple[str, ...]) -> list[tuple[str, int]]:
        indexed = [(name, i) for i, name in enumerate(names)]
        indexed.sort(key=lambda item: -len(item[0]))
        return indexed

    def _verb_map(self, slot: str) -> list[tuple[str, int]]:
        forms = []
        for i, name in enumerate(self.vocab.verbs):
            if name == NULL_VERB_NAME or name not in VERB_FORMS:
                continue
            forms.append((getattr(VERB_FORMS[name], slot), i))
        forms.sort(key=lambda item: -len(item[0]))
        return forms

    def fail(self, message: str) -> NoReturn:
        raise GrammarError(message, self.pos)

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def take(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.take(literal):
            self.fail(f"expected {literal!r}")

    def _boundary_ok(self, end: int) -> bool:
        return end >= len(self.text) or self.text[end] not in _NAME_CHARS

    def take_name(self, candidates: list[tuple[str, int]]) -> int | None:
        for name, index in candidates:
            end = self.pos + len(name)
            if self.text.startswith(name, self.pos) and self._boundary_ok(end):
                self.pos = end
                return index
        return None

    def take_duration(self) -> int:
        start = self.pos
        while not self.at_end() and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("expected a duration in seconds")
        value = int(self.text[start : self.pos])
        if value < 1:
            self.pos = start
            self.fail("duration must be positive")
        return value

    def parse_clause(self) -> Triplet | None:
        if self.take(NO_INSTRUMENT_CLAUSE):
            return None
        self.expect("the ")
        instrument = self.take_name(self.instruments)
        if instrument is None:
            self.fail("expected an instrument name")
        self.expect(" ")
        if self.take("is present") or self.take("remains present"):
            return Triplet(instrument)
        if self.take("continues to "):
            verb = self.take_name(self.base_verbs)
        else:
            verb = self.take_name(self.present_verbs)
        if verb is None:
            self.fail("expected a verb")
        target = None
        if self.take(" the "):
            target = self.take_name(self.targets)
            if target is None:
                self.fail("expected a target name")
        return Triplet(instrument, verb, target)

    def parse_segment(self, first: bool) -> PhaseSegment:
        self.expect("First" if first else "Then")
        self.expect(", during the ")
        duration = self.take_duration()
        self.expect("-second ")
        phase = self.take_name(self.phases)
        if phase is None:
            self.fail("expected a phase name")
        self.expect(" phase, ")
        clauses = [self.parse_clause()]
        while self.take(" while "):
            clauses.append(self.parse_clause())
        self.expect(".")
        if None in clauses:
            if len(clauses) > 1:
                self.fail("the no-instrument clause cannot be combined with actions")
            actions: tuple[Triplet, ...] = ()
        else:
            actions = tuple(clauses)  # type: ignore[arg-type]
            if len(set(actions)) != len(actions):
                self.fail("duplicate action within one segment")
        return PhaseSegment(phase, duration, actions)

    def parse(self) -> list[PhaseSegment]:
        segments = [self.parse_segment(first=True)]
        while not self.at_end():
            self.expect(" ")
            segments.append(self.parse_segment(first=False))
        return segments


def _parse_clip_caption_oracle(text: str, vocab: Vocabulary) -> list[PhaseSegment]:
    """Recover the phase segments encoded in clip-caption text.

    Accepts exactly the grammar emitted by render_clip_text; violations
    raise GrammarError with the failing character offset.
    """
    return _ClipCaptionParser(text, vocab).parse()


def _outcome(parse, text, vocab):
    try:
        return parse(text, vocab)
    except GrammarError as exc:
        return ("GrammarError", str(exc), exc.offset)
    except ValueError:
        return ("ValueError",)


def _assert_parsers_agree(text, vocab):
    """The new parser gives the oracle's segments or error, except at a non-ASCII digit.

    The oracle reads any ``str.isdigit`` character into a duration: it then
    raises ValueError (``²``) or reads a wrong number (``٣`` as 3). The new
    parser takes ASCII digits only, so it stops at the first such character
    with a GrammarError wherever the oracle got past it.
    """
    expected = _outcome(_parse_clip_caption_oracle, text, vocab)
    got = _outcome(parse_clip_caption, text, vocab)
    odd = next((i for i, c in enumerate(text) if c.isdigit() and not c.isascii()), None)
    passed_odd = odd is not None and (
        isinstance(expected, list) or expected[0] == "ValueError" or expected[2] > odd
    )
    if passed_odd or expected == ("ValueError",):
        assert got[0] == "GrammarError" and got[2] == odd, (text, expected, got)
    else:
        assert got == expected, text


# "²" and "٣" pass str.isdigit but are not ASCII digits.
_MUTATION_ALPHABET = "aehilnorstw .,-_0129"
_ODD_DIGITS = "\u00b2\u0663"


@st.composite
def _mutated(draw, text):
    """``text`` unchanged, or with one character inserted, deleted or replaced."""
    kind = draw(st.sampled_from(["none", "insert", "delete", "replace"]))
    if kind == "none" or not text:
        return text
    digits = [i for i, c in enumerate(text) if c.isdigit()]
    where = draw(st.one_of(st.integers(0, len(text) - 1), st.sampled_from(digits)))
    char = draw(
        st.one_of(
            st.sampled_from(_ODD_DIGITS), st.sampled_from(_MUTATION_ALPHABET), st.sampled_from(text)
        )
    )
    if kind == "insert":
        return text[:where] + char + text[where:]
    if kind == "delete":
        return text[:where] + text[where + 1 :]
    return text[:where] + char + text[where + 1 :]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), segments=_segment_lists())
def test_parser_matches_oracle_on_rendered_and_mutated_captions(data, segments):
    vocab = default_vocabulary()
    text = data.draw(_mutated(render_clip_text(segments, vocab)))
    _assert_parsers_agree(text, vocab)


# Names that are prefixes of each other: the longer one fits and the text
# fails after it ("prep phase" in "prep phase phase"), or it does not end at
# a name boundary and the shorter one fits ("hook hold" in "hook holds",
# "x whil" in "x while"). Names holding regex metacharacters, and names that
# a name character may follow ("x" / "x-1").
_TRICKY_VOCABULARY = Vocabulary(
    instruments=("hook", "hook hold", "a.b", "a+", "(a)|b", "c\\d"),
    verbs=(
        "cut", "clip", "grasp", "retract", "dissect", "coagulate", "aspirate", "irrigate",
        "pack", NULL_VERB_NAME,
    ),
    targets=(
        "x", "x-1", "x y", "x*", "[x]", "x whil", "x{2}", "^x$", "t.t", "t", "tt", "liver",
        "liver bed", "gallbladder", "null_target",
    ),
    phases=("prep", "prep phase", "p.p", "p+", "phase", "(p)", "p|q"),
)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), segments=_segment_lists())
def test_parser_matches_oracle_on_a_tricky_vocabulary(data, segments):
    text = data.draw(_mutated(render_clip_text(segments, _TRICKY_VOCABULARY)))
    _assert_parsers_agree(text, _TRICKY_VOCABULARY)


@pytest.mark.parametrize(
    "text",
    [
        "First, during the 3-second prep phase phase, the hook is present.",
        "First, during the 3-second prep phase, the hook holds the x.",
        "First, during the 3-second prep phase, the hook hold holds the x while the a+ cuts.",
        "First, during the 3-second prep phase, the hook holdsx is present.",
        "First, during the 3-second prep phase, the a+ cuts the x while the hook is present.",
        "First, during the 3-second prep phase, the a+ cuts the x whil while the hook is present.",
        "First, during the 3-second p.p phase, the aXb is present.",
        "First, during the 3-second pXp phase, the a.b is present.",
        "First, during the 3-second p+ phase, the a+ cuts the x-1.",
        "First, during the 3-second p+ phase, the a+ cuts the x-.",
        "First, during the 3-second (p) phase, the (a)|b clips the x{2} while the c\\d packs the ^x$.",
        "First, during the 3-second (p) phase, the b clips the xx.",
        "First, during the 3-second phase phase, the a+ continues to cut the liver bed.",
        "First, during the 3-second phase phase, the a+ continues to cut the liver bedx.",
    ],
)
def test_tricky_vocabulary_parses_as_the_oracle_does(text):
    _assert_parsers_agree(text, _TRICKY_VOCABULARY)


@pytest.mark.parametrize(
    "duration, offset, message",
    [
        ("\u00b2", 18, "expected a duration in seconds"),
        ("1\u00b2", 19, "expected '-second '"),
        ("\u0663", 18, "expected a duration in seconds"),
        ("2\u0663", 19, "expected '-second '"),
        ("0", 18, "duration must be positive"),
        pytest.param("9" * 4301, 18, "duration has too many digits", id="4301-digits"),
    ],
)
def test_duration_is_ascii_digits_that_int_converts(vocab, duration, offset, message):
    text = f"First, during the {duration}-second preparation phase, {NO_INSTRUMENT_CLAUSE}."
    with pytest.raises(GrammarError) as exc:
        parse_clip_caption(text, vocab)
    assert (exc.value.offset, str(exc.value)) == (offset, f"offset {offset}: {message}")


def test_duration_with_leading_zeros_and_4300_digits(vocab):
    for duration in ("007", "9" * 4300):
        text = f"First, during the {duration}-second preparation phase, {NO_INSTRUMENT_CLAUSE}."
        assert parse_clip_caption(text, vocab) == _parse_clip_caption_oracle(text, vocab)
        assert parse_clip_caption(text, vocab)[0].duration_seconds == int(duration)


def test_each_distinct_clause_is_one_triplet(vocab):
    text = (
        "First, during the 2-second preparation phase, the hook is present. "
        "Then, during the 3-second clipping-and-cutting phase, the hook remains present."
    )
    first, then = parse_clip_caption(text, vocab)
    assert first.actions == then.actions
    again = parse_clip_caption(text, vocab)
    assert again[0].actions[0] is first.actions[0]


# Three segments of two or three clauses each. A pattern that fails past the
# first clause of a later segment hands over to the literal reader mid-caption.
_THREE_SEGMENTS = (
    "First, during the 5-second preparation phase, the grasper holds the gallbladder "
    "while the hook is present. Then, during the 10-second calot-triangle-dissection phase, "
    "the grasper continues to hold the gallbladder while the hook dissects the cystic_plate "
    "while the bipolar coagulates the liver. Then, during the 3-second clipping-and-cutting "
    "phase, the clipper clips the cystic_duct while the hook remains present."
)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize(
    "old, new",
    [
        ("the hook dissects", "the drill dissects"),
        ("the hook dissects", "the hook levitates"),
        ("dissects the cystic_plate", "dissects the moon"),
        ("dissects the cystic_plate", "dissects the cystic_platex"),
        ("coagulates the liver. Then", "coagulates the liver Then"),
        ("the liver. Then", "the liver. Than"),
        ("the liver. Then", "the liver. First"),
        ("the 3-second", "the 0-second"),
        ("the 3-second", "the 007-second"),
        ("the bipolar coagulates the liver.", "the hook dissects the cystic_plate."),
        ("the hook remains present.", "the hook remains present"),
        ("the hook remains present.", "the hook remains presently."),
        ("the hook remains present.", "the hook remains present while no instrument is active."),
    ],
)
def test_later_segment_parses_as_the_oracle_does(vocab, warm, old, new):
    """The switch from pattern to literal reading after a matched header and clauses."""
    assert old in _THREE_SEGMENTS
    text = _THREE_SEGMENTS.replace(old, new, 1)
    _grammar.cache_clear()
    if warm:
        parse_clip_caption(_THREE_SEGMENTS, vocab)
    _assert_parsers_agree(text, vocab)


def test_later_segment_with_4301_duration_digits(vocab):
    text = _THREE_SEGMENTS.replace("the 3-second", f"the {'9' * 4301}-second")
    offset = text.index("9999")
    with pytest.raises(GrammarError) as exc:
        parse_clip_caption(text, vocab)
    assert str(exc.value) == f"offset {offset}: duration has too many digits"


def test_rejected_captions_leave_only_valid_clauses_in_the_memo(vocab):
    _grammar.cache_clear()
    rejected = [
        _THREE_SEGMENTS.replace("the cystic_plate", "the cystic_platex"),
        _THREE_SEGMENTS.replace("the hook is present.", "the hook is presentt."),
        _THREE_SEGMENTS.replace("while the bipolar", "while thebipolar"),
        _THREE_SEGMENTS.replace("the hook remains present.", "the hook remains present"),
    ]
    for text in rejected:
        with pytest.raises(GrammarError):
            parse_clip_caption(text, vocab)
    assert parse_clip_caption(_THREE_SEGMENTS, vocab) == _parse_clip_caption_oracle(
        _THREE_SEGMENTS, vocab
    )
    for clause, triplet in _grammar(vocab).triplets.items():
        alone = f"First, during the 1-second preparation phase, {clause}."
        (segment,) = _parse_clip_caption_oracle(alone, vocab)
        assert segment.actions == (() if triplet is None else (triplet,)), clause
