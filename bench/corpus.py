"""Deterministic synthetic inputs for one benchmark workload.

Run as its own process, so the launcher that times the CLI commands never
imports numpy or holds the corpus (a forked child inherits its parent's RSS
high-water mark):

    python bench/corpus.py --workload detect_calibrate --seed 3 --out DIR [--smoke]

Every input file is written through the library's own writers. The same
seed gives byte-identical files. ``DIR/inputs.json`` records the input
properties the benchmark reports and the facts its correctness checks need
(video lengths, class names, the generating temperature).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import zlib
from pathlib import Path

import numpy as np

import surgreport.cli  # noqa: F401  (compiles every module the timed commands import)
from surgreport.captions import (
    synthesize_clip_caption,
    synthesize_frame_caption,
    write_clip_captions,
    write_frame_captions,
)
from surgreport.dataset import FrameAnnotation, Triplet, VideoRecord, write_annotations
from surgreport.detection import LogitsRecord, write_logits
from surgreport.embeddings import EmbeddingTable, deterministic_token_embeddings
from surgreport.metrics import tokenize
from surgreport.vocab import NULL_TARGET_NAME, NULL_VERB_NAME, default_vocabulary
from surgreport.windowing import window_video

# Video lengths (frames at 1 fps) per workload: evenly spaced over the range and
# shuffled by the seed, so the total work is the same for every seed.
# preprocess_report keeps the CholecT50 shape of 50 videos of varied length,
# at a quarter of its ~100k frames, so about ten sequences fit in one run.
SIZES = {
    "caption_eval": {"videos": 4, "frames": (400, 700)},
    "detect_calibrate": {"videos": 8, "frames": (800, 1200)},
    "preprocess_report": {"videos": 50, "frames": (250, 750)},
}
SMOKE_SIZES = {
    "caption_eval": {"videos": 2, "frames": (60, 120)},
    "detect_calibrate": {"videos": 4, "frames": (400, 600)},
    "preprocess_report": {"videos": 4, "frames": (40, 160)},
}

# Calibrated logits multiplied by this scale have their optimal temperature here.
TRUE_TEMPERATURE = 2.0
EMBEDDING_DIM = 16
# Noise in the annotation copy that generated captions are made from. Only the
# first 16-frame block of every 64 frames is perturbed: one triplet re-drawn and
# each phase boundary in the block moved by up to 3 frames, inside the block.
# A 32-frame clip window at stride 16 covers two consecutive blocks, so about
# half of the clip pairs differ, and nearly the same half for every seed.
BLOCK = 16
BLOCKS_PER_PERTURBED = 4
MAX_BOUNDARY_SHIFT = 3


def make_videos(vocab, rng: random.Random, n_videos: int, frame_range) -> list[VideoRecord]:
    """Annotated videos with phase runs averaging ~16 frames and 0-2 instruments per frame.

    Every block of three frames holds 0, 1 and 2 instruments in a shuffled
    order, so each clip window carries nearly the same number of actions and
    the caption lengths, which set the cost of the text metrics, vary little
    from seed to seed.
    """
    action_verbs = [i for i, n in enumerate(vocab.verbs) if n != NULL_VERB_NAME]
    real_targets = [i for i, n in enumerate(vocab.targets) if n != NULL_TARGET_NAME]
    lo, hi = frame_range
    lengths = [lo + (hi - lo) * v // max(n_videos - 1, 1) for v in range(n_videos)]
    rng.shuffle(lengths)
    records = []
    for v, length in enumerate(lengths):
        video_id = f"VID{v + 1:02d}"
        phase = rng.randrange(len(vocab.phases))
        frames = []
        for i in range(length):
            if i % 3 == 0:
                per_frame = [0, 1, 2]
                rng.shuffle(per_frame)
            if rng.random() < 0.06:
                phase = rng.randrange(len(vocab.phases))
            triplets = []
            for instrument in rng.sample(range(len(vocab.instruments)), per_frame[i % 3]):
                if rng.random() < 0.25:
                    triplets.append(Triplet(instrument))
                else:
                    triplets.append(
                        Triplet(instrument, rng.choice(action_verbs), rng.choice(real_targets))
                    )
            frames.append(FrameAnnotation(video_id, i, tuple(triplets), phase))
        records.append(VideoRecord(video_id, tuple(frames)))
    return records


def perturb(records: list[VideoRecord], vocab, rng: random.Random) -> list[VideoRecord]:
    """A noisy copy: triplets re-drawn and phase boundaries shifted in some blocks."""
    action_verbs = [i for i, n in enumerate(vocab.verbs) if n != NULL_VERB_NAME]
    real_targets = [i for i, n in enumerate(vocab.targets) if n != NULL_TARGET_NAME]
    noisy = []
    for record in records:
        n = len(record.frames)
        phases = [f.phase for f in record.frames]
        triplets = [list(f.triplets) for f in record.frames]
        for lo in range(0, n, BLOCK * BLOCKS_PER_PERTURBED):
            hi = min(lo + BLOCK, n)
            busy = [i for i in range(lo, hi) if triplets[i]]
            if busy:
                i = rng.choice(busy)
                k = rng.randrange(len(triplets[i]))
                old = triplets[i][k]
                new = old
                while new == old:
                    new = Triplet(old.instrument, rng.choice(action_verbs), rng.choice(real_targets))
                triplets[i][k] = new
            original = phases[lo:hi]
            for b in range(lo + 1, hi):
                if original[b - lo] == original[b - lo - 1]:
                    continue
                shift = rng.choice([s for s in range(-MAX_BOUNDARY_SHIFT, MAX_BOUNDARY_SHIFT + 1)
                                    if s and lo <= b + s <= hi])
                changed, fill = (range(b + shift, b), phases[b]) if shift < 0 else (
                    range(b, b + shift), phases[b - 1])
                for j in changed:
                    phases[j] = fill
        frames = tuple(
            FrameAnnotation(record.video_id, i, tuple(t), p)
            for i, (t, p) in enumerate(zip(triplets, phases))
        )
        noisy.append(VideoRecord(record.video_id, frames))
    return noisy


def calibrated_logits(records, vocab, seed: int, scale: float) -> list[LogitsRecord]:
    """Logits whose sigmoid is calibrated at T = 1, multiplied by ``scale``.

    Per class, values are N(+1, 2) on positive cells and N(-1, 2) on negative
    ones, shifted by the class log-odds, so the posterior of the label given
    the value is sigmoid(value) and the optimal temperature is ``scale``.
    """
    frames = [f for record in records for f in record.frames]
    n_inst = len(vocab.instruments)
    bits = np.zeros((len(frames), len(vocab.detection_classes)))
    for row, frame in enumerate(frames):
        for t in frame.triplets:
            bits[row, t.instrument] = 1.0
            if t.target is not None:
                bits[row, n_inst + t.target] = 1.0
    n = len(frames)
    rate = np.clip(bits.mean(axis=0), 0.5 / n, 1 - 0.5 / n)
    offsets = np.log(rate / (1 - rate))
    noise = np.random.default_rng(seed).normal(0.0, math.sqrt(2), bits.shape)
    values = scale * (2 * bits - 1 + noise + offsets)
    return [
        LogitsRecord(frame.video_id, frame.frame_index, tuple(row))
        for frame, row in zip(frames, values.tolist())
    ]


def captions_for(records, vocab):
    frame_captions = [synthesize_frame_caption(f, vocab) for rec in records for f in rec.frames]
    clip_captions = [
        synthesize_clip_caption(clip, [rec.frames[i] for i in clip.frame_indices], vocab)
        for rec in records
        for clip in window_video(rec)
    ]
    return frame_captions, clip_captions


def scope_properties(generated, reference) -> dict:
    pairs = list(zip(generated, reference))
    tokens = [len(tokenize(c.text)) for pair in pairs for c in pair]
    return {
        "pairs": len(pairs),
        "mean_tokens": sum(tokens) / len(tokens),
        "identical_share": sum(g.text == r.text for g, r in pairs) / len(pairs),
    }


def embedding_table(texts: list[str]) -> EmbeddingTable:
    """Per-token vectors for every text, from the library's deterministic provider."""
    token_lists = [tokenize(text) for text in texts]
    vocabulary = sorted({tok for tokens in token_lists for tok in tokens})
    vectors = deterministic_token_embeddings(vocabulary, dim=EMBEDDING_DIM)
    row = {tok: i for i, tok in enumerate(vocabulary)}
    table = EmbeddingTable()
    for tokens in token_lists:
        table.put(tokens, vectors[[row[tok] for tok in tokens]])
    return table


def generate(workload: str, seed: int, out: Path, smoke: bool) -> dict:
    vocab = default_vocabulary()
    size = (SMOKE_SIZES if smoke else SIZES)[workload]
    # Each workload draws from its own stream, so one seed gives each a distinct corpus.
    rng = random.Random(zlib.crc32(f"{workload}:{seed}".encode()))
    records = make_videos(vocab, rng, size["videos"], size["frames"])
    out.mkdir(parents=True, exist_ok=True)
    files: list[Path] = []
    meta: dict = {
        "workload": workload,
        "seed": seed,
        "videos": {rec.video_id: len(rec) for rec in records},
        "frames": sum(len(rec) for rec in records),
        "clips": sum(len(window_video(rec)) for rec in records),
        "class_names": list(vocab.detection_classes),
        "phase_names": list(vocab.phases),
    }
    if workload == "caption_eval":
        ref_frames, ref_clips = captions_for(records, vocab)
        gen_frames, gen_clips = captions_for(perturb(records, vocab, rng), vocab)
        for name, writer, captions in (
            ("frame_captions.gen.jsonl", write_frame_captions, gen_frames),
            ("frame_captions.ref.jsonl", write_frame_captions, ref_frames),
            ("clip_captions.gen.jsonl", write_clip_captions, gen_clips),
            ("clip_captions.ref.jsonl", write_clip_captions, ref_clips),
        ):
            writer(out / name, captions)
            files.append(out / name)
        embedding_table([c.text for c in gen_clips + ref_clips]).save(out / "embeddings.jsonl")
        files.append(out / "embeddings.jsonl")
        meta["scopes"] = {
            "frame_captions": scope_properties(gen_frames, ref_frames),
            "clip_captions": scope_properties(gen_clips, ref_clips),
        }
    else:
        write_annotations(out / "annotations.jsonl", records, vocab)
        files.append(out / "annotations.jsonl")
    if workload == "detect_calibrate":
        logits = calibrated_logits(records, vocab, rng.randrange(2**32), TRUE_TEMPERATURE)
        write_logits(out / "logits.jsonl", logits)
        files.append(out / "logits.jsonl")
        meta["logits_rows"] = len(logits)
        meta["temperature"] = TRUE_TEMPERATURE
    meta["input_bytes"] = {p.name: p.stat().st_size for p in files}
    (out / "inputs.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
    return meta


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs for the self-test")
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out, args.smoke)


if __name__ == "__main__":
    main()
