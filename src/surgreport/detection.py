"""Detection-side numerics: patch grids, logit squashing, thresholds, loss.

The detection class space has 21 entries: the 6 instruments followed by the
15 targets. Logits come from an external trained model; this module maps
them to probabilities, applies thresholded multi-label detection, and
evaluates the class-weighted binary cross-entropy.

A logits file loads into one columnar ``LogitsTable``: ``names``, the
sorted distinct video ids; per row, ``codes`` (an index into ``names``) and
``frames``; and ``values``, a float matrix of shape (N, 21). ``read_logits``
fills those columns one record at a time, checking row width and numbers as
it goes, then checks the whole table at once (finiteness, duplicate (video,
frame) keys); it reports the first bad record with its file and line.
``rank_keys`` encodes the keys of logits and caption files alike, ranking
ids in Python's string order, so ``"V"`` and ``"V\\0"`` are two videos.
``probabilities_from_logits`` is the only squashing function, and
``bernoulli_log_likelihood`` the only clamped likelihood (the loss's and
``calibration.nll``'s). Squashing and ``threshold_detect`` work on any array
whose last axis is the class axis, so the pipeline makes one call of each
per table, and ``threshold_detect`` returns a boolean mask of the same
shape. Squashing makes one float copy of its input, or takes the array to
write into, and runs each step in place there. ``write_detections`` turns
the columns into Python values one block of ``DETECTION_BLOCK_ROWS`` rows at
a time, so no list of the whole table is built.

The annotations the scoring commands join against load into one columnar
``AnnotationTable``: rows in (video_id, frame) order, each video's first
row, and a boolean (N, 21) truth matrix. ``AnnotationTable.read`` decodes the
annotation lines straight into those columns; it is the second consumer of
the one per-line parser, ``dataset.frame_lines`` (the ``VideoRecord`` path
of ``load_annotations`` is the first), and finds repeats and gaps from the
key columns with ``rank_keys``, with ``load_annotations``' messages, lines
and order. A logits row finds its frame's row by arithmetic on those
offsets (``rows_of``), with no per-frame key.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from pathlib import Path

import numpy as np

from .dataset import ANNOTATION_FIELDS, FrameAnnotation, frame_lines, gap_message, per_file, repeat_message
from .errors import RecordError
# ``read_jsonl`` is unused here; bench/tracer.py patches it in this module by name.
from .jsonl import read_jsonl, record_line, stream_jsonl, write_jsonl  # noqa: F401
from .vocab import N_INSTRUMENTS, N_TARGETS, Vocabulary

N_DETECTION_CLASSES = N_INSTRUMENTS + N_TARGETS

# Keeps log() finite in the cross-entropy and likelihood computations.
PROBABILITY_FLOOR = 1e-12

# Rows of the detection columns turned into Python values at a time when
# writing: a few hundred keep the per-row loop fast and the lists small.
DETECTION_BLOCK_ROWS = 256


@dataclass(frozen=True)
class PatchSequence:
    """Row-major patch grid of one image, each patch flattened.

    Patches are enumerated row-major over the patch grid and flattened
    row-major within the patch with channels interleaved last. Position
    indices are 1-based, 1..N with no gaps.
    """

    patch_size: int
    height: int
    width: int
    channels: int
    vectors: np.ndarray  # shape (N, patch_size * patch_size * channels)

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.vectors) + 1))

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class LogitsRecord:
    """Raw per-frame scores over the 21 detection classes."""

    video_id: str
    frame_index: int
    logits: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.logits) != N_DETECTION_CLASSES:
            raise ValueError(f"expected {N_DETECTION_CLASSES} logits, got {len(self.logits)}")
        if not np.all(np.isfinite(self.logits)):
            raise ValueError(f"non-finite logit for {self.video_id}@{self.frame_index}")


@dataclass(frozen=True, eq=False)
class LogitsTable:
    """Logits of many frames as columns: row i is frame (names[codes[i]], frames[i])."""

    names: tuple[str, ...]  # distinct video ids, sorted
    codes: np.ndarray  # int64, shape (N,)
    frames: np.ndarray  # int64, shape (N,)
    values: np.ndarray  # float64, shape (N, 21)

    def __len__(self) -> int:
        return len(self.frames)

    def keys(self, rows: np.ndarray | slice = slice(None)) -> list[tuple[str, int]]:
        """(video_id, frame) of the given rows (every row by default), in row order."""
        return [(self.names[c], f) for c, f in zip(self.codes[rows].tolist(), self.frames[rows].tolist())]

    def select(self, rows: np.ndarray) -> "LogitsTable":
        """The rows picked by a boolean mask or an index array."""
        return LogitsTable(self.names, self.codes[rows], self.frames[rows], self.values[rows])


@dataclass(frozen=True, eq=False)
class AnnotationTable:
    """Annotated frames as columns, one row per frame in (video_id, frame) order.

    Video ``video_ids[v]`` (sorted) holds rows ``starts[v]`` to
    ``starts[v + 1]``; as a video's frames run from 0 with no gaps, its
    frame f is row ``starts[v] + f``. ``truth`` holds each row's
    ``truth_bits`` as booleans.
    """

    video_ids: tuple[str, ...]  # sorted
    starts: np.ndarray  # int64, shape (V + 1,)
    truth: np.ndarray  # bool, shape (N, 21)

    @classmethod
    def read(cls, path: str | Path, vocab: Vocabulary) -> "AnnotationTable":
        """The table of an annotation file, or of every ``*.jsonl`` file in a directory.

        Each line goes through ``dataset.frame_lines`` and into columns: the
        video id, the frame, and the row's classes as bits of one integer. No
        ``FrameAnnotation`` is made. Every error is ``load_annotations``' own.
        """
        tables = per_file(path, lambda file: _read_annotation_file(file, vocab), itemgetter(1))
        if len(tables) == 1:
            return tables[0][0]
        blocks = [(table, v) for table, _ in tables for v in range(len(table.video_ids))]
        return _of_videos(tables[0][0].truth[:0], sorted(blocks, key=lambda b: b[0].video_ids[b[1]]))

    def select(self, video_ids: Iterable[str]) -> "AnnotationTable":
        """The table of the videos named in ``video_ids``, each video's rows as one range."""
        wanted = set(video_ids)
        blocks = [(self, v) for v, name in enumerate(self.video_ids) if name in wanted]
        return _of_videos(self.truth[:0], blocks)

    def __len__(self) -> int:
        return len(self.truth)

    def keys(self, rows: np.ndarray) -> list[tuple[str, int]]:
        """(video_id, frame) of the given rows, in the order given."""
        video = np.searchsorted(self.starts, rows, side="right") - 1
        return [(self.video_ids[v], f) for v, f in zip(video.tolist(), (rows - self.starts[video]).tolist())]

    def rows_of(self, table: LogitsTable) -> np.ndarray:
        """The row of the frame behind each logits row, or -1 where none is annotated."""
        index = {video_id: v for v, video_id in enumerate(self.video_ids)}
        # Each row's video; a video not annotated is V, whose start is N and whose size is 0.
        video = np.array([index.get(name, len(index)) for name in table.names], dtype=np.int64)[table.codes]
        frames = table.frames
        inside = (frames >= 0) & (frames < np.append(np.diff(self.starts), 0)[video])
        return np.where(inside, self.starts[video] + frames, -1)


def _of_videos(empty: np.ndarray, blocks: list[tuple[AnnotationTable, int]]) -> AnnotationTable:
    """A table of the given (table, video index) blocks in order; ``empty`` is a (0, K) truth."""
    sizes = [int(t.starts[v + 1] - t.starts[v]) for t, v in blocks]
    starts = np.zeros(len(blocks) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    truth = np.concatenate([empty, *(t.truth[t.starts[v] : t.starts[v + 1]] for t, v in blocks)])
    return AnnotationTable(tuple(t.video_ids[v] for t, v in blocks), starts, truth)


def _read_annotation_file(path: Path, vocab: Vocabulary) -> tuple[AnnotationTable, list[str]]:
    """One file's table, and its video ids in the order they first appear.

    The rows are checked as ``load_annotations`` checks them: the first
    faulty line, unless an earlier line repeats a frame; then a repeated
    frame; then a video whose frames do not run from 0 without gaps.
    """
    source = str(path)
    n_instruments = len(vocab.instruments)
    first_seen: dict[str, str] = {}  # each video id once, in the order it first appears
    ids: list[str] = []
    frames = array("q")
    classes = array("q")  # per row, bit c set for each detection class c in its truth

    def ranked() -> tuple[list[str], np.ndarray, np.ndarray]:
        names, codes, order, repeat = rank_keys(ids, np.frombuffer(frames, dtype=np.int64))
        if repeat is not None:
            raise RecordError(repeat_message(ids[repeat], frames[repeat]), source, record_line(path, repeat))
        return names, codes, order

    lines = frame_lines(stream_jsonl(path, ANNOTATION_FIELDS), vocab, source)
    try:
        for _, video_id, frame, _, triplets in lines:
            ids.append(first_seen.setdefault(video_id, video_id))
            frames.append(frame)
            bits = 0
            for triplet in triplets:
                bits |= 1 << triplet.instrument
                if triplet.target is not None:
                    bits |= 1 << (n_instruments + triplet.target)
            classes.append(bits)
    except RecordError:
        ranked()  # a frame repeated before the faulty line is the first fault
        raise
    names, codes, order = ranked()
    del ids
    counts = np.bincount(codes, minlength=len(names))
    del codes
    starts = np.zeros(len(names) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    # With no repeat, a video's frames run from 0 without gaps when its last is its count - 1.
    column = np.frombuffer(frames, dtype=np.int64)
    broken = {names[v] for v in np.flatnonzero(column[order[starts[1:] - 1]] != counts - 1).tolist()}
    if broken:
        video_id = next(v for v in first_seen if v in broken)  # as a VideoRecord list runs
        v = names.index(video_id)
        found = column[order[starts[v] : starts[v + 1]]]
        position = int(np.flatnonzero(found != np.arange(len(found)))[0])
        raise RecordError(gap_message(video_id, int(found[position]), position), source)
    # The class bits, least significant first, of each row in table order.
    as_bytes = np.frombuffer(classes, dtype=np.int64)[order].astype("<i8", copy=False).view(np.uint8)
    width = len(vocab.detection_classes)
    truth = np.unpackbits(as_bytes.reshape(-1, 8), axis=1, count=width, bitorder="little").view(bool)
    return AnnotationTable(tuple(names), starts, truth), list(first_seen)


@dataclass(frozen=True)
class ClassWeights:
    """Inverse-frequency class weights, normalized to sum to one."""

    weights: tuple[float, ...]
    epsilon: float

    def __post_init__(self) -> None:
        if any(w < 0 for w in self.weights):
            raise ValueError("class weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError(f"class weights must sum to 1, got {sum(self.weights)!r}")


def patch_count(height: int, width: int, patch_size: int) -> int:
    """Number of non-overlapping patches tiling an image: H*W / p^2."""
    if patch_size <= 0:
        raise ValueError(f"patch size must be positive, got {patch_size}")
    if height % patch_size or width % patch_size:
        raise ValueError(
            f"patch size {patch_size} must divide image dimensions {height}x{width}"
        )
    return (height * width) // (patch_size * patch_size)


def patchify(image: np.ndarray, patch_size: int) -> PatchSequence:
    """Split an (H, W) or (H, W, C) image into flattened patches."""
    arr = np.asarray(image)
    if arr.ndim == 2:
        arr = arr[:, :, np.newaxis]
    if arr.ndim != 3:
        raise ValueError(f"image must be 2-D or 3-D, got shape {arr.shape}")
    height, width, channels = arr.shape
    n = patch_count(height, width, patch_size)
    grid = arr.reshape(
        height // patch_size, patch_size, width // patch_size, patch_size, channels
    )
    vectors = grid.transpose(0, 2, 1, 3, 4).reshape(n, patch_size * patch_size * channels)
    return PatchSequence(patch_size, height, width, channels, vectors)


def unpatchify(patches: PatchSequence) -> np.ndarray:
    """Reassemble the original image; exact inverse of patchify."""
    p, h, w, c = patches.patch_size, patches.height, patches.width, patches.channels
    grid = patches.vectors.reshape(h // p, w // p, p, p, c)
    image = grid.transpose(0, 2, 1, 3, 4).reshape(h, w, c)
    return image[:, :, 0] if c == 1 else image


def _sigmoid_in_place(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), written over ``z``; the same ufuncs in the same order."""
    # exp overflow for very negative z rounds to p = 0.0, which downstream
    # clamping handles; silencing the warning keeps the canonical form.
    with np.errstate(over="ignore"):
        np.negative(z, out=z)
        np.exp(z, out=z)
        np.add(1.0, z, out=z)
        np.divide(1.0, z, out=z)
    return z


def _softmax_in_place(z: np.ndarray) -> np.ndarray:
    """exp(z - max) / sum over the last axis, written over ``z``; the same ufuncs in the same order."""
    # A shift that overflows (finite logits near +-1e308) goes to -inf, whose
    # exp is exactly 0.0, the limit the softmax tends to.
    with np.errstate(over="ignore"):
        np.subtract(z, z.max(axis=-1, keepdims=True), out=z)
    np.exp(z, out=z)
    np.divide(z, z.sum(axis=-1, keepdims=True), out=z)
    return z


def probabilities_from_logits(
    logits: np.ndarray,
    mode: str = "sigmoid",
    temperature: float = 1.0,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Map raw scores to [0, 1] after dividing by the temperature.

    Sigmoid yields independent per-class probabilities (the multi-label
    default); softmax yields a distribution summing to one. The division
    writes into ``out``, by default the one copy of the matrix, and the
    squashing runs in place there. ``out=logits`` (a float array) squashes
    the logits themselves, for a caller that needs them no more.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if mode not in ("sigmoid", "softmax"):
        raise ValueError(f"mode must be 'sigmoid' or 'softmax', got {mode!r}")
    z = np.asarray(logits, dtype=float)
    scaled = np.divide(z, temperature, out=np.empty_like(z) if out is None else out)
    squash = _sigmoid_in_place(scaled) if mode == "sigmoid" else _softmax_in_place(scaled)
    return squash[()] if squash.ndim == 0 else squash  # a 0-d result as a numpy scalar


def threshold_detect(
    probabilities: np.ndarray, threshold: float | np.ndarray = 0.5
) -> np.ndarray:
    """Boolean mask of the classes whose probability is strictly above the threshold.

    Works on one frame's vector or on an (N, K) matrix, class axis last.
    Ties at the threshold are excluded. A per-class threshold vector is
    accepted; the default is a single 0.5.
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.min(initial=0.0) < 0.0 or probs.max(initial=0.0) > 1.0:
        raise ValueError("probabilities must lie in [0, 1]")
    return probs > np.asarray(threshold, dtype=float)


def class_weights(frequencies: np.ndarray, epsilon: float = 1e-6) -> ClassWeights:
    """Weights proportional to 1 / (frequency + epsilon), normalized to sum 1.

    epsilon guards zero counts; it may be zero when every count is positive.
    """
    freq = np.asarray(frequencies, dtype=float)
    if freq.min(initial=0.0) < 0:
        raise ValueError("frequencies must be nonnegative")
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    if epsilon == 0 and np.any(freq == 0):
        raise ValueError("epsilon must be positive when a frequency is zero")
    raw = 1.0 / (freq + epsilon)
    normalized = raw / raw.sum()
    return ClassWeights(weights=tuple(float(w) for w in normalized), epsilon=epsilon)


def weighted_bce(
    labels: np.ndarray, logits: np.ndarray, weights: ClassWeights | np.ndarray
) -> float:
    """Class-weighted binary cross-entropy of logits against 0/1 labels.

    -sum_i w_i * (y_i log p_i + (1 - y_i) log(1 - p_i)), p = sigmoid(z) clamped.
    """
    y = np.asarray(labels, dtype=float)
    z = np.asarray(logits, dtype=float)
    w = np.asarray(weights.weights if isinstance(weights, ClassWeights) else weights, dtype=float)
    if not (y.shape == z.shape == w.shape):
        raise ValueError(f"shape mismatch: labels {y.shape}, logits {z.shape}, weights {w.shape}")
    return float(-(w * bernoulli_log_likelihood(y, z)).sum())


def bernoulli_log_likelihood(labels: np.ndarray, logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Per element, y log p + (1 - y) log(1 - p) for p = sigmoid(z / T) clamped
    to [PROBABILITY_FLOOR, 1 - PROBABILITY_FLOOR], so both logs are finite."""
    # In place, by the ufuncs of labels * log(p) + (1 - labels) * log(1 - p) in
    # their order: at most three matrices at once, not five.
    p = probabilities_from_logits(logits, "sigmoid", temperature)
    np.clip(p, PROBABILITY_FLOOR, 1.0 - PROBABILITY_FLOOR, out=p)
    terms = np.log(p)
    np.multiply(labels, terms, out=terms)
    others = np.subtract(1.0, labels)
    np.subtract(1.0, p, out=p)
    np.log(p, out=p)
    np.multiply(others, p, out=others)
    return np.add(terms, others, out=terms)


def truth_bits(frame: FrameAnnotation, vocab: Vocabulary) -> np.ndarray:
    """Ground-truth 0/1 vector over the detection class space for one frame.

    An instrument class is positive when any triplet uses the instrument; a
    target class is positive when any triplet acts on the target.
    """
    bits = np.zeros(len(vocab.detection_classes))
    for triplet in frame.triplets:
        bits[triplet.instrument] = 1.0
        if triplet.target is not None:
            bits[len(vocab.instruments) + triplet.target] = 1.0
    return bits


_LOGITS_FIELDS = {"video_id": str, "frame": int, "logits": list}


def read_logits(path: str | Path) -> LogitsTable:
    """Load a line-delimited logits file (video_id, frame, 21 floats per record).

    The file is read one record at a time: field types, row width and that
    the logits are JSON numbers (not bools or strings) are checked as each
    record is read; then every row at once: finiteness, and that no
    (video_id, frame) key repeats. The first failing record raises
    RecordError with the file name and its line number.
    """
    source = str(path)
    interned: dict[str, str] = {}  # one str per video id, not one per row
    ids: list[str] = []
    frames = array("q")
    lineno = 0

    def rows() -> Iterator[list]:
        nonlocal lineno
        for lineno, obj in stream_jsonl(path, _LOGITS_FIELDS):
            row = obj["logits"]
            if len(row) != N_DETECTION_CLASSES:
                message = f"expected {N_DETECTION_CLASSES} logits, got {len(row)}"
                raise RecordError(message, source, lineno)
            if not set(map(type, row)) <= {int, float}:  # a bool or a string is not a logit
                raise RecordError("logits must be numbers", source, lineno)
            video_id = obj["video_id"]
            ids.append(interned.setdefault(video_id, video_id))
            frames.append(obj["frame"])
            yield row

    try:
        # Each row is converted as it is read, into one growing float matrix.
        values = np.fromiter(rows(), dtype=np.dtype((float, N_DETECTION_CLASSES)))
    except OverflowError:  # an integer beyond the float range
        raise RecordError("logits must be numbers", source, lineno) from None

    def fail(index: int, message: str) -> RecordError:
        return RecordError(message, source, record_line(path, index))

    nonfinite = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if nonfinite.size:
        i = int(nonfinite[0])
        raise fail(i, f"non-finite logit for {ids[i]}@{frames[i]}")
    frame_column = np.array(frames, dtype=np.int64)
    names, codes, _, repeat = rank_keys(ids, frame_column)
    if repeat is not None:
        raise fail(repeat, f"duplicate logits row for {ids[repeat]}@{frames[repeat]}")
    return LogitsTable(tuple(names), codes, frame_column, values)


def rank_keys(
    video_ids: Sequence[str], frames: np.ndarray
) -> tuple[list[str], np.ndarray, np.ndarray, int | None]:
    """The (video_id, frame) keys of some rows, with video ids ranked in Python's order.

    Returns the distinct video ids sorted, each row's rank among them
    (int64), the row indices in (video_id, frame) order, rows of one key in
    index order, and the first row whose key an earlier row already holds
    (None when no key repeats).
    """
    names = sorted(set(video_ids))
    rank = {name: k for k, name in enumerate(names)}
    codes = np.fromiter((rank[v] for v in video_ids), np.int64, len(video_ids))
    order = np.lexsort((frames, codes))  # stable: within a key, rows keep their index order
    repeats = (np.diff(codes[order]) == 0) & (np.diff(frames[order]) == 0)
    # Each repeat follows an earlier row of its key, so the least is the first repeat.
    return names, codes, order, int(order[1:][repeats].min()) if repeats.any() else None


def write_logits(path: str | Path, records: list[LogitsRecord]) -> int:
    return write_jsonl(
        path,
        (
            {"video_id": r.video_id, "frame": r.frame_index, "logits": list(r.logits)}
            for r in records
        ),
    )


def _detection_records(
    table: LogitsTable, probabilities: np.ndarray, detected: np.ndarray, names: tuple[str, ...]
) -> Iterator[dict]:
    """One record per row; the columns become Python values a block of rows at a time."""
    for start in range(0, len(table), DETECTION_BLOCK_ROWS):
        block = slice(start, start + DETECTION_BLOCK_ROWS)
        for code, frame, probs, hits in zip(
            table.codes[block].tolist(),
            table.frames[block].tolist(),
            probabilities[block].tolist(),
            detected[block].tolist(),
        ):
            yield {
                "video_id": table.names[code],
                "frame": frame,
                "probabilities": probs,
                "detected": list(compress(names, hits)),
            }


def write_detections(
    path: str | Path,
    table: LogitsTable,
    probabilities: np.ndarray,
    detected: np.ndarray,
    vocab: Vocabulary,
) -> int:
    """One record per table row: the logits keys, probabilities and detected class names."""
    records = _detection_records(table, probabilities, detected, vocab.detection_classes)
    return write_jsonl(path, records)
