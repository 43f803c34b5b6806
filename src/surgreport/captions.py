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
recovers the segments exactly. The parser reads a caption once, with a
cursor: a compiled pattern takes each well-formed header and clause whole,
and text a pattern does not match is read one literal at a time, so an
error names its character offset. The full grammar is documented in
docs/caption_grammar.md.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, groupby
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, NoReturn

from .dataset import FrameAnnotation, Triplet
from .errors import GrammarError, RecordError
# ``read_jsonl`` is unused here; bench/tracer.py patches it in this module by name.
from .jsonl import read_jsonl, stream_jsonl, write_jsonl  # noqa: F401
from .vocab import NULL_TARGET_NAME, NULL_VERB_NAME, Vocabulary
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

_NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_-")  # what may not follow a name
_NAME_END = f"(?![{re.escape(''.join(sorted(_NAME_CHARS)))}])"
_DIGITS = re.compile("[0-9]*")


@dataclass(frozen=True, slots=True)
class FrameCaption:
    video_id: str
    frame_index: int
    text: str


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


def _by_length(pairs: Iterable[tuple[str, int]]) -> list[tuple[str, int]]:
    """(name, index) pairs, longest name first: the order names are tried in."""
    return sorted(pairs, key=lambda item: -len(item[0]))


def _name_slot(group: str, names: list[tuple[str, int]]) -> str:
    """A pattern that takes the first of ``names`` that ends at a name boundary.

    Lookahead then backreference makes the choice atomic, as ``take_name``'s
    is: a later mismatch never backtracks into a shorter name.
    """
    alternation = "|".join(f"{re.escape(name)}{_NAME_END}" for name, _ in names)
    # No names: a slot that matches nothing, as ``take_name`` on an empty table.
    alternation = alternation or "(?!)"
    return f"(?=(?P<{group}>{alternation}))(?P={group})"


class _Grammar:
    """The clip-caption grammar of one vocabulary: name tables and compiled patterns.

    ``_Parser`` tries the header and clause patterns first and reads text
    they do not match from the name tables, one literal at a time.
    """

    def __init__(self, vocab: Vocabulary):
        self.instruments = _by_length((name, i) for i, name in enumerate(vocab.instruments))
        # A clause with no target leaves it out; none names the null target.
        self.targets = _by_length((n, i) for i, n in enumerate(vocab.targets) if n != NULL_TARGET_NAME)
        self.phases = _by_length((name, i) for i, name in enumerate(vocab.phases))
        self.phase_index = dict(self.phases)
        verbs = [
            (VERB_FORMS[name], i)
            for i, name in enumerate(vocab.verbs)
            if name != NULL_VERB_NAME and name in VERB_FORMS
        ]
        self.present_verbs = _by_length((forms.present, i) for forms, i in verbs)
        self.base_verbs = _by_length((forms.base, i) for forms, i in verbs)
        self.header = re.compile(
            r"(?P<connective>First|Then), during the (?P<duration>[0-9]+)-second "
            f"{_name_slot('phase', self.phases)} phase, "
        )
        self.clause = re.compile(
            f"(?P<clause>{NO_INSTRUMENT_CLAUSE}"
            f"|the {_name_slot('instrument', self.instruments)} "
            "(?:is present|remains present"
            f"|(?:continues to {_name_slot('base', self.base_verbs)}"
            f"|{_name_slot('present', self.present_verbs)})"
            f"(?: the {_name_slot('target', self.targets)})?))"
            r"(?P<end> while |\.)"
        )
        # One Triplet per distinct clause text the pattern matched; None for
        # the no-instrument clause.
        self.triplets: dict[str, Triplet | None] = {NO_INSTRUMENT_CLAUSE: None}


@lru_cache(maxsize=16)
def _grammar(vocab: Vocabulary) -> _Grammar:
    return _Grammar(vocab)


class _Parser:
    """Cursor parser for clip-caption text; errors carry character offsets.

    At each segment header and each clause it takes a match of the
    grammar's compiled pattern whole. From where a pattern does not match,
    it reads one literal and one name at a time, and fails at the first
    violation.
    """

    def __init__(self, text: str, grammar: _Grammar):
        self.text = text
        self.pos = 0
        self.grammar = grammar

    def fail(self, message: str) -> NoReturn:
        raise GrammarError(message, self.pos)

    def take(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.take(literal):
            self.fail(f"expected {literal!r}")

    def take_name(self, candidates: list[tuple[str, int]]) -> int | None:
        text, pos = self.text, self.pos
        for name, index in candidates:
            end = pos + len(name)
            if text.startswith(name, pos) and (end >= len(text) or text[end] not in _NAME_CHARS):
                self.pos = end
                return index
        return None

    def take_duration(self) -> int:
        start = self.pos
        self.pos = _DIGITS.match(self.text, start).end()
        if self.pos == start:
            self.fail("expected a duration in seconds")
        try:
            value = int(self.text[start : self.pos])
        except ValueError:
            self.pos = start
            self.fail("duration has too many digits")
        if value < 1:
            self.pos = start
            self.fail("duration must be positive")
        return value

    def take_clause(self) -> Triplet | None:
        if self.take(NO_INSTRUMENT_CLAUSE):
            return None
        self.expect("the ")
        instrument = self.take_name(self.grammar.instruments)
        if instrument is None:
            self.fail("expected an instrument name")
        self.expect(" ")
        if self.take("is present") or self.take("remains present"):
            return Triplet(instrument)
        if self.take("continues to "):
            verb = self.take_name(self.grammar.base_verbs)
        else:
            verb = self.take_name(self.grammar.present_verbs)
        if verb is None:
            self.fail("expected a verb")
        target = None
        if self.take(" the "):
            target = self.take_name(self.grammar.targets)
            if target is None:
                self.fail("expected a target name")
        return Triplet(instrument, verb, target)

    def take_segment(self, connective: str) -> PhaseSegment:
        text, grammar = self.text, self.grammar
        header = grammar.header.match(text, self.pos)
        if header is not None and header["connective"] == connective:
            self.pos = header.start("duration")
            duration = self.take_duration()
            phase = grammar.phase_index[header["phase"]]
            self.pos = header.end()
        else:
            self.expect(connective)
            self.expect(", during the ")
            duration = self.take_duration()
            self.expect("-second ")
            phase = self.take_name(grammar.phases)
            if phase is None:
                self.fail("expected a phase name")
            self.expect(" phase, ")
        triplets, match = grammar.triplets, grammar.clause.match
        actions = []
        while clause := match(text, self.pos):
            try:
                actions.append(triplets[clause["clause"]])
            except KeyError:  # a clause text not seen before, read once from the tables
                actions.append(triplets.setdefault(clause["clause"], self.take_clause()))
            self.pos = clause.end()
            if clause["end"] == ".":
                break
        else:
            actions.append(self.take_clause())
            while self.take(" while "):
                actions.append(self.take_clause())
            self.expect(".")
        if None in actions:
            if len(actions) > 1:
                self.fail("the no-instrument clause cannot be combined with actions")
            actions = []
        try:
            return PhaseSegment(phase, duration, tuple(actions))
        except ValueError:  # a repeated action: the duration is checked above
            self.fail("duplicate action within one segment")

    def parse(self) -> list[PhaseSegment]:
        segments = [self.take_segment("First")]
        while self.pos < len(self.text):
            self.expect(" ")
            segments.append(self.take_segment("Then"))
        return segments


def parse_clip_caption(text: str, vocab: Vocabulary) -> list[PhaseSegment]:
    """Recover the phase segments encoded in clip-caption text.

    Accepts exactly the grammar emitted by render_clip_text; violations
    raise GrammarError with the failing character offset. The grammar is
    compiled once per vocabulary, on its first parse.
    """
    return _Parser(text, _grammar(vocab)).parse()


def write_frame_captions(path: str | Path, captions: Iterable[FrameCaption]) -> int:
    """One record per caption; ``captions`` is iterated once, so it may be a generator."""
    return write_jsonl(
        path,
        ({"video_id": c.video_id, "frame": c.frame_index, "text": c.text} for c in captions),
    )


def read_frame_captions(path: str | Path) -> list[FrameCaption]:
    fields = {"video_id": str, "frame": int, "text": str}
    return [FrameCaption(o["video_id"], o["frame"], o["text"]) for _, o in stream_jsonl(path, fields)]


def write_clip_captions(path: str | Path, captions: Iterable[ClipCaption]) -> int:
    """One record per caption; ``captions`` is iterated once, so it may be a generator."""
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
    for lineno, obj in stream_jsonl(path, fields):
        try:
            segments = tuple(parse_clip_caption(obj["text"], vocab)) if vocab is not None else ()
        except GrammarError as exc:
            raise RecordError(str(exc), str(path), lineno) from None
        captions.append(ClipCaption(obj["video_id"], obj["start_frame"], segments, obj["text"]))
    return captions
