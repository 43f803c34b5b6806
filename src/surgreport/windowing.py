"""Fixed-size overlapping clip windows over a video's frame sequence.

Videos are segmented into clips of 32 consecutive frames with a stride of
16, so consecutive clips share 16 frames. Tail frames that do not fill a
final window are dropped; padding would fabricate annotations.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .dataset import VideoRecord
from .jsonl import write_jsonl

CLIP_SIZE = 32
CLIP_STRIDE = 16


@dataclass(frozen=True, slots=True)
class ClipWindow:
    """A run of consecutive frame indices belonging to one video."""

    video_id: str
    start_frame: int
    frame_indices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.frame_indices)


def window_starts(n_frames: int, size: int = CLIP_SIZE, stride: int = CLIP_STRIDE) -> list[int]:
    """Start offsets of every full window; empty when the video is too short.

    Emits floor((n_frames - size) / stride) + 1 starts for n_frames >= size.
    """
    if size <= 0:
        raise ValueError(f"window size must be positive, got {size}")
    if not 0 < stride <= size:
        raise ValueError(f"stride must be in (0, size], got {stride}")
    if n_frames < size:
        return []
    return list(range(0, n_frames - size + 1, stride))


def window_video(
    record: VideoRecord, size: int = CLIP_SIZE, stride: int = CLIP_STRIDE
) -> list[ClipWindow]:
    """Segment one video into ordered, overlapping clip windows."""
    return [
        ClipWindow(record.video_id, start, tuple(range(start, start + size)))
        for start in window_starts(len(record), size, stride)
    ]


def write_clip_manifest(path: str | Path, clips: Iterable[ClipWindow]) -> int:
    """One record per clip; ``clips`` is iterated once."""
    return write_jsonl(
        path,
        (
            {"video_id": c.video_id, "start_frame": c.start_frame, "size": c.size}
            for c in clips
        ),
    )
