"""Golden bytes of `evaluate` on a small corpus of perturbed captions.

The digests pin every float the command writes, so a refactor of the text
metrics that changes any score, even in the last bit, fails here. They were
recorded with the two-row dynamic-program ROUGE-L and per-metric n-gram
counting; the bit-parallel LCS and shared n-gram counts reproduce them.
"""

from __future__ import annotations

import hashlib
import json
import random

import yaml

from surgreport.cli import main
from surgreport.dataset import write_annotations
from surgreport.embeddings import EmbeddingTable, deterministic_token_embeddings
from surgreport.jsonl import read_jsonl
from surgreport.metrics import tokenize

from conftest import make_corpus

GOLDEN_SHA256 = {
    "metrics.jsonl": "f416e072142bdb491c63e5d4cc7d177402fc0f3cefc248c992914c60b9d6cf9c",
    "metrics.csv": "12419e4eb0c16710b20aaee50a24a28039e6ccfef40f72f2d091ab5d296679ec",
}


def _perturb(text: str, rng: random.Random) -> str:
    """One word-level edit, chosen so every scoring branch is reached."""
    words = text.split()
    edit = rng.randrange(7)
    if edit == 1:
        del words[rng.randrange(len(words))]
    elif edit == 2:
        words[rng.randrange(len(words))] = rng.choice(words)
    elif edit == 3 and len(words) > 1:
        i = rng.randrange(len(words) - 1)
        words[i], words[i + 1] = words[i + 1], words[i]
    elif edit == 4:
        words = words[: rng.randint(1, 3)]  # shorter than 4 tokens: BLEU is 0
    elif edit == 5:
        i = rng.randrange(len(words))
        words[i:i] = [words[i]] * 3  # repeated n-grams exercise clipping
    elif edit == 6:
        words = words[rng.randrange(len(words)) :] + words[: rng.randrange(len(words))]
    return " ".join(words)


def _perturbed_copy(source, target, rng: random.Random) -> None:
    rows = read_jsonl(source)
    for row in rows:
        row["text"] = _perturb(row["text"], rng)
    target.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def test_evaluate_output_bytes_are_pinned(tmp_path, vocab):
    annotations = tmp_path / "annotations.jsonl"
    write_annotations(annotations, make_corpus(vocab, n_videos=2, n_frames=112, seed=19), vocab)
    out = tmp_path / "out"
    paths = {"annotations": str(annotations), "output_dir": str(out)}
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({"paths": paths}), encoding="utf-8")
    assert main(["preprocess", "--config", str(config)]) == 0

    rng = random.Random(2504)
    generated = {}
    for kind in ("frame", "clip"):
        generated[kind] = tmp_path / f"generated_{kind}_captions.jsonl"
        _perturbed_copy(out / f"{kind}_captions.jsonl", generated[kind], rng)
    table = EmbeddingTable()
    for path in (*generated.values(), out / "frame_captions.jsonl", out / "clip_captions.jsonl"):
        for row in read_jsonl(path):
            tokens = tokenize(row["text"])
            table.put(tokens, deterministic_token_embeddings(tokens, dim=32, mode="basis"))
    table.save(tmp_path / "embeddings.jsonl")
    config.write_text(
        yaml.safe_dump(
            {
                "paths": {**paths, "embeddings": str(tmp_path / "embeddings.jsonl")},
                "evaluate": {
                    "generated_frame_captions": str(generated["frame"]),
                    "generated_clip_captions": str(generated["clip"]),
                },
            }
        ),
        encoding="utf-8",
    )
    assert main(["evaluate", "--config", str(config)]) == 0

    rows = {row["scope"]: row for row in read_jsonl(out / "metrics.jsonl")}
    for scope in ("frame_captions", "clip_captions"):
        for metric in ("bleu", "rouge1", "rouge2", "rougeL", "bert_f1"):
            assert 0.0 < rows[scope][metric] < 1.0, (scope, metric)
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256
    }
    assert digests == GOLDEN_SHA256
