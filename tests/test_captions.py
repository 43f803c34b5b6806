from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgreport.captions import (
    ClipCaption,
    PhaseSegment,
    VERB_FORMS,
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
from surgreport.vocab import default_vocabulary
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
