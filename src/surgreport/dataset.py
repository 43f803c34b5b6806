"""Annotation data model: triplet-labelled frames, videos, splits, durations.

Annotation files are UTF-8 line-delimited JSON, one object per line:

    {"video_id": "VID01", "frame": 0, "phase": "preparation",
     "triplets": [["grasper", "grasp", "gallbladder"], ["hook", "null", "null"]]}

Verb and target slots accept the literal token ``"null"`` (or the explicit
null category names) to mark an instrument that is merely present. Parsed
triplets always carry ``None`` for absent components, so downstream code
sees a single representation.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from itertools import accumulate
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .errors import RecordError
from .jsonl import dump_jsonl, iter_jsonl, stream_jsonl, write_jsonl
from .vocab import NULL_TARGET_NAME, NULL_TOKEN, NULL_VERB_NAME, Vocabulary

# One annotated frame per second of video.
FRAMES_PER_SECOND = 1

FrameRef = tuple[str, int]


class Triplet(NamedTuple):
    """One (instrument, verb, target) action; verb/target may be absent.

    A tuple, so the parser's per-clause equality and hashing run in C.
    """

    instrument: int
    verb: int | None = None
    target: int | None = None


@dataclass(frozen=True, slots=True)
class FrameAnnotation:
    """Labels for one video frame: action triplets plus the phase."""

    video_id: str
    frame_index: int
    triplets: tuple[Triplet, ...]
    phase: int


@dataclass(frozen=True)
class VideoRecord:
    """All frames of one video, ordered and contiguous from index 0."""

    video_id: str
    frames: tuple[FrameAnnotation, ...]

    def __post_init__(self) -> None:
        for expected, frame in enumerate(self.frames):
            if frame.frame_index != expected:
                raise ValueError(
                    f"video {self.video_id}: frame indices must be contiguous from 0, "
                    f"found {frame.frame_index} at position {expected}"
                )
            if frame.video_id != self.video_id:
                raise ValueError(f"video {self.video_id}: frame belongs to {frame.video_id}")

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint train/test/validation frame-reference sets."""

    train: frozenset[FrameRef]
    test: frozenset[FrameRef]
    validation: frozenset[FrameRef]
    ratios: tuple[float, float, float]

    def sizes(self) -> tuple[int, int, int]:
        return len(self.train), len(self.test), len(self.validation)


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


def parse_annotations(
    source: bytes | str, vocab: Vocabulary, source_name: str = "<annotations>"
) -> list[VideoRecord]:
    """Parse line-delimited annotation records into validated video records.

    Records may arrive in any order; frames are sorted per video. Malformed
    records, unknown label names, and duplicate frame indices raise
    RecordError with the offending line number.
    """
    return _video_records(iter_jsonl(source, source_name, _ANNOTATION_FIELDS), vocab, source_name)


def _video_records(
    records: Iterable[tuple[int, dict]], vocab: Vocabulary, source_name: str
) -> list[VideoRecord]:
    """Validated video records from numbered annotation records, consumed one at a time."""
    frames_by_video: dict[str, dict[int, FrameAnnotation]] = {}
    # One Triplet per distinct [instrument, verb, target] list in this source.
    # Only a list is looked up: a dict or a string whose tuple() equals a key
    # must still reach _parse_triplet and be rejected there.
    parsed: dict[tuple, Triplet] = {}

    def triplet_of(raw: object) -> Triplet:
        if type(raw) is not list or len(raw) != 3:
            return _parse_triplet(raw, vocab)
        key = tuple(raw)
        try:
            return parsed[key]
        except KeyError:
            return parsed.setdefault(key, _parse_triplet(raw, vocab))
        except TypeError:  # an unhashable component, which names no label
            return _parse_triplet(raw, vocab)

    for lineno, obj in records:
        video_id, frame_index = obj["video_id"], obj["frame"]
        if not video_id:
            raise RecordError("video_id must be a non-empty string", source_name, lineno)
        try:
            phase = vocab.index_of("phases", obj["phase"])
            triplets = tuple(map(triplet_of, obj["triplets"]))
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


def load_annotations(path: str | Path, vocab: Vocabulary) -> list[VideoRecord]:
    """Load one annotation file, or every ``*.jsonl`` file in a directory.

    A video id found in two files is an error, not a merge.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.jsonl"))
        if not files:
            raise RecordError("no annotation files found", str(path))
        records: list[VideoRecord] = []
        source: dict[str, Path] = {}  # video id -> its file
        for file in files:
            for record in _load_file(file, vocab):
                earlier = source.setdefault(record.video_id, file)
                if earlier != file:
                    raise RecordError(f"video {record.video_id} is already in {earlier}", str(file))
                records.append(record)
        return records
    return _load_file(path, vocab)


def _load_file(path: Path, vocab: Vocabulary) -> list[VideoRecord]:
    return _video_records(stream_jsonl(path, _ANNOTATION_FIELDS), vocab, str(path))


def annotation_record(frame: FrameAnnotation, vocab: Vocabulary) -> dict:
    triplets = []
    for t in frame.triplets:
        triplets.append(
            [
                vocab.instruments[t.instrument],
                NULL_TOKEN if t.verb is None else vocab.verbs[t.verb],
                NULL_TOKEN if t.target is None else vocab.targets[t.target],
            ]
        )
    return {
        "video_id": frame.video_id,
        "frame": frame.frame_index,
        "phase": vocab.phases[frame.phase],
        "triplets": triplets,
    }


def _annotation_records(records: list[VideoRecord], vocab: Vocabulary) -> Iterator[dict]:
    return (annotation_record(frame, vocab) for record in records for frame in record.frames)


def serialize_annotations(records: list[VideoRecord], vocab: Vocabulary) -> str:
    """Inverse of parse_annotations; parse(serialize(x)) == x."""
    return dump_jsonl(_annotation_records(records, vocab))


def write_annotations(path: str | Path, records: list[VideoRecord], vocab: Vocabulary) -> None:
    write_jsonl(path, _annotation_records(records, vocab))


def _largest_remainder_counts(total: int, ratios: tuple[float, float, float]) -> list[int]:
    exact = [r * total for r in ratios]
    counts = [int(x) for x in exact]
    remainders = sorted(
        range(len(ratios)), key=lambda i: (-(exact[i] - counts[i]), i)
    )
    for i in remainders[: total - sum(counts)]:
        counts[i] += 1
    return counts


def by_video_id(records: Iterable[VideoRecord]) -> list[VideoRecord]:
    """The records sorted by video id; their frames in turn run in (video_id, frame) order."""
    return sorted(records, key=attrgetter("video_id"))


def split_labels(
    records: list[VideoRecord],
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
    granularity: str = "frame",
) -> bytearray:
    """The part of every frame, 0 train, 1 test or 2 validation, in (video_id, frame) order.

    Frame granularity shuffles individual frames, matching the upstream
    80/10/10 protocol; set sizes land within one frame of the exact ratios.
    Video granularity keeps each video whole (no near-duplicate frames
    shared across sets) and approximates the ratios greedily by frame count.
    Deterministic for a given seed.
    """
    if any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must be nonnegative and sum to 1, got {ratios}")
    if granularity not in ("frame", "video"):
        raise ValueError(f"granularity must be 'frame' or 'video', got {granularity!r}")

    rng = random.Random(seed)
    videos = by_video_id(records)
    labels = bytearray(sum(len(v) for v in videos))
    if granularity == "frame":
        # A shuffle's swaps depend only on the length, so the row numbers are
        # permuted as the sorted (video_id, frame) refs would be.
        rows = list(range(len(labels)))
        rng.shuffle(rows)
        n_train, n_test, _ = _largest_remainder_counts(len(rows), ratios)
        for row in rows[n_train : n_train + n_test]:
            labels[row] = 1
        for row in rows[n_train + n_test :]:
            labels[row] = 2
    else:
        starts = list(accumulate((len(v) for v in videos), initial=0))
        order = list(range(len(videos)))
        rng.shuffle(order)
        targets = [r * len(labels) for r in ratios]
        filled = [0, 0, 0]
        for v in order:
            deficits = [targets[i] - filled[i] for i in range(3)]
            slot = max(range(3), key=lambda i: (deficits[i], -i))
            labels[starts[v] : starts[v + 1]] = bytes([slot]) * len(videos[v])
            filled[slot] += len(videos[v])
    return labels


def split_dataset(
    records: list[VideoRecord],
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
    granularity: str = "frame",
) -> DatasetSplit:
    """Partition all frames into train/test/validation sets, as ``split_labels`` labels them."""
    labels = split_labels(records, ratios, seed, granularity)
    refs = ((rec.video_id, f.frame_index) for rec in by_video_id(records) for f in rec.frames)
    parts: tuple[list[FrameRef], list[FrameRef], list[FrameRef]] = ([], [], [])
    for ref, label in zip(refs, labels):
        parts[label].append(ref)
    return DatasetSplit(*map(frozenset, parts), ratios=ratios)


def minutes_from_frames(frame_count: int) -> float:
    """Convert a frame count (1 fps) to minutes, half-up at one decimal."""
    minutes = Decimal(frame_count) / Decimal(60 * FRAMES_PER_SECOND)
    return float(minutes.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def duration_rows_from_counts(counts: list[int], vocab: Vocabulary) -> list[tuple[str, int, float]]:
    """Per-phase (name, frame count, minutes) rows, in vocabulary order, plus a total row."""
    if len(counts) != len(vocab.phases):
        raise ValueError(f"expected {len(vocab.phases)} phase counts, got {len(counts)}")
    rows = [(name, count, minutes_from_frames(count)) for name, count in zip(vocab.phases, counts)]
    total = sum(counts)
    rows.append(("total", total, minutes_from_frames(total)))
    return rows


def phase_duration_table(
    records: list[VideoRecord], vocab: Vocabulary
) -> list[tuple[str, int, float]]:
    """Tally frames per phase across all videos and report durations."""
    counts = [0] * len(vocab.phases)
    for record in records:
        for frame in record.frames:
            counts[frame.phase] += 1
    return duration_rows_from_counts(counts, vocab)
