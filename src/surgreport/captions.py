"""Deterministic frame/clip caption synthesis and the inverse clip parser.

Frame captions describe one frame's actions:

    During phase calot-triangle-dissection, the grasper is retracting the
    gallbladder, the hook is present

Clip captions narrate a clip's phase timeline, one sentence per maximal
same-phase run, with ordinal connectives and durations in seconds:

    First, during the 22-second preparation phase, the grasper holds the
    gallbladder while the hook is present. Then, during the 10-second
    calot-triangle-dissection phase, the grasper continues to hold the
    gallbladder while the hook remains present.

Actions repeated from the previous run are rendered with continuation
phrasing ("continues to <verb>", "remains present"); the parser maps both
surface forms back to the same action, so parsing a rendered caption
recovers the segments exactly. The full grammar is documented in
docs/caption_grammar.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, NoReturn

from .dataset import FrameAnnotation, Triplet
from .errors import GrammarError, RecordError
from .jsonl import read_jsonl, record_line, write_jsonl
from .vocab import NULL_VERB_NAME, Vocabulary
from .windowing import ClipWindow


class VerbForms(NamedTuple):
    progressive: str  # frame captions: "is <progressive>"
    present: str      # clip captions, first mention
    base: str         # clip captions, continuation: "continues to <base>"
    past: str         # report narration


# Surface forms for the closed verb vocabulary. A lookup table beats
# algorithmic inflection here: ten verbs, zero ambiguity.
VERB_FORMS: dict[str, VerbForms] = {
    "grasp": VerbForms("grasping", "holds", "hold", "held"),
    "retract": VerbForms("retracting", "retracts", "retract", "retracted"),
    "dissect": VerbForms("dissecting", "dissects", "dissect", "dissected"),
    "coagulate": VerbForms("coagulating", "coagulates", "coagulate", "coagulated"),
    "clip": VerbForms("clipping", "clips", "clip", "clipped"),
    "cut": VerbForms("cutting", "cuts", "cut", "cut"),
    "aspirate": VerbForms("aspirating", "aspirates", "aspirate", "aspirated"),
    "irrigate": VerbForms("irrigating", "irrigates", "irrigate", "irrigated"),
    "pack": VerbForms("packing", "packs", "pack", "packed"),
    NULL_VERB_NAME: VerbForms("present", "is present", "be present", "was present"),
}

NO_INSTRUMENT_CLAUSE = "no instrument is active"

_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789_-")


@dataclass(frozen=True)
class FrameCaption:
    video_id: str
    frame_index: int
    text: str


@dataclass(frozen=True)
class PhaseSegment:
    """A maximal run of frames sharing one phase within a clip."""

    phase: int
    duration_seconds: int
    actions: tuple[Triplet, ...]

    def __post_init__(self) -> None:
        if self.duration_seconds < 1:
            raise ValueError(f"segment duration must be >= 1, got {self.duration_seconds}")
        if len(set(self.actions)) != len(self.actions):
            raise ValueError("segment actions must be deduplicated")


@dataclass(frozen=True)
class ClipCaption:
    video_id: str
    start_frame: int
    segments: tuple[PhaseSegment, ...]
    text: str

    @property
    def size(self) -> int:
        return sum(seg.duration_seconds for seg in self.segments)


def verb_forms(verb: int | None, vocab: Vocabulary) -> VerbForms:
    name = NULL_VERB_NAME if verb is None else vocab.verbs[verb]
    try:
        return VERB_FORMS[name]
    except KeyError:
        raise GrammarError(f"no surface forms registered for verb {name!r}", 0) from None


def _target_part(action: Triplet, vocab: Vocabulary) -> str:
    return "" if action.target is None else f" the {vocab.targets[action.target]}"


def frame_clause(action: Triplet, vocab: Vocabulary) -> str:
    instrument = vocab.instruments[action.instrument]
    return f"the {instrument} is {verb_forms(action.verb, vocab).progressive}" + _target_part(action, vocab)


def synthesize_frame_caption(frame: FrameAnnotation, vocab: Vocabulary) -> FrameCaption:
    """Render one frame's actions as a single sentence."""
    clauses = [frame_clause(t, vocab) for t in frame.triplets]
    body = ", ".join(clauses) if clauses else NO_INSTRUMENT_CLAUSE
    text = f"During phase {vocab.phases[frame.phase]}, {body}"
    return FrameCaption(frame.video_id, frame.frame_index, text)


def clip_clause(action: Triplet, continued: bool, vocab: Vocabulary) -> str:
    instrument = vocab.instruments[action.instrument]
    if action.verb is None:
        return f"the {instrument} remains present" if continued else f"the {instrument} is present"
    forms = verb_forms(action.verb, vocab)
    if continued:
        return f"the {instrument} continues to {forms.base}" + _target_part(action, vocab)
    return f"the {instrument} {forms.present}" + _target_part(action, vocab)


def render_clip_text(segments: list[PhaseSegment] | tuple[PhaseSegment, ...], vocab: Vocabulary) -> str:
    """Render phase segments as clip-caption text (inverse of parse_clip_caption)."""
    if not segments:
        raise ValueError("cannot render an empty segment list")
    sentences = []
    previous: frozenset[Triplet] = frozenset()
    for i, segment in enumerate(segments):
        connective = "First" if i == 0 else "Then"
        phase = vocab.phases[segment.phase]
        clauses = [clip_clause(a, a in previous, vocab) for a in segment.actions]
        body = " while ".join(clauses) if clauses else NO_INSTRUMENT_CLAUSE
        sentences.append(
            f"{connective}, during the {segment.duration_seconds}-second {phase} phase, {body}."
        )
        previous = frozenset(segment.actions)
    return " ".join(sentences)


def segments_from_frames(frames: list[FrameAnnotation]) -> list[PhaseSegment]:
    """Group ordered frames into maximal same-phase runs with merged actions."""
    segments = []
    for phase, run in groupby(frames, key=attrgetter("phase")):
        run = list(run)
        actions = dict.fromkeys(chain.from_iterable(f.triplets for f in run))
        segments.append(PhaseSegment(phase, len(run), tuple(actions)))
    return segments


def synthesize_clip_caption(
    clip: ClipWindow, frames: list[FrameAnnotation], vocab: Vocabulary
) -> ClipCaption:
    """Build the phase-timeline caption for one clip window.

    The frames must cover exactly the clip's indices (any order accepted).
    """
    by_index = {f.frame_index: f for f in frames}
    missing = [i for i in clip.frame_indices if i not in by_index]
    if missing:
        raise ValueError(
            f"clip {clip.video_id}@{clip.start_frame}: missing frames for indices {missing[:5]}"
        )
    extra = set(by_index) - set(clip.frame_indices)
    if extra:
        raise ValueError(
            f"clip {clip.video_id}@{clip.start_frame}: frames outside the clip: {sorted(extra)[:5]}"
        )
    ordered = [by_index[i] for i in clip.frame_indices]
    segments = tuple(segments_from_frames(ordered))
    return ClipCaption(clip.video_id, clip.start_frame, segments, render_clip_text(segments, vocab))


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


def parse_clip_caption(text: str, vocab: Vocabulary) -> list[PhaseSegment]:
    """Recover the phase segments encoded in clip-caption text.

    Accepts exactly the grammar emitted by render_clip_text; violations
    raise GrammarError with the failing character offset.
    """
    return _ClipCaptionParser(text, vocab).parse()


def write_frame_captions(path: str | Path, captions: list[FrameCaption]) -> int:
    return write_jsonl(
        path,
        ({"video_id": c.video_id, "frame": c.frame_index, "text": c.text} for c in captions),
    )


def read_frame_captions(path: str | Path) -> list[FrameCaption]:
    fields = {"video_id": str, "frame": int, "text": str}
    return [FrameCaption(o["video_id"], o["frame"], o["text"]) for o in read_jsonl(path, fields)]


def write_clip_captions(path: str | Path, captions: list[ClipCaption]) -> int:
    return write_jsonl(
        path,
        (
            {"video_id": c.video_id, "start_frame": c.start_frame, "text": c.text}
            for c in captions
        ),
    )


def read_clip_captions(path: str | Path, vocab: Vocabulary | None = None) -> list[ClipCaption]:
    """Load clip captions; segments are reparsed from text when a vocabulary is given."""
    captions = []
    fields = {"video_id": str, "start_frame": int, "text": str}
    for index, obj in enumerate(read_jsonl(path, fields)):
        try:
            segments = tuple(parse_clip_caption(obj["text"], vocab)) if vocab is not None else ()
        except GrammarError as exc:
            raise RecordError(str(exc), str(path), record_line(path, index)) from None
        captions.append(ClipCaption(obj["video_id"], obj["start_frame"], segments, obj["text"]))
    return captions
