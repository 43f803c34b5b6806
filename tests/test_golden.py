"""Golden bytes of the pipeline's outputs on small synthetic corpora.

The digests pin every float a command writes, so a refactor that changes
any score, even in the last bit, fails here.

- Caption scopes of `evaluate` on perturbed captions: recorded with the
  two-row dynamic-program ROUGE-L and per-metric n-gram counting; the
  bit-parallel LCS and shared n-gram counts reproduce them. The gaussian
  run was recorded with the per-pair `Counter` scoring; the columnar,
  deduplicated scoring reproduces it.
- `detect`, `calibrate` and the detection scope of `evaluate`, in sigmoid
  and softmax mode and with a threshold override: recorded with the
  per-frame detection path (one squash and one threshold call per logits
  row, per-frame `(score, bit)` lists for AP); the columnar logits table
  reproduces them. The `calibration.json` and `reliability_bins_after.csv`
  digests were re-recorded when the grid and golden-section temperature
  search gave way to the Newton solve: T moved to the exact NLL minimum
  (by under 3e-5 relative, with a lower NLL), and nothing else changed.
- The clip captions of `preprocess` and every file `report` writes, offline
  and from a stub endpoint: recorded with the run-variable phase grouping,
  the per-frame merge dicts and the retry loop with a `response = None`
  sentinel; the `groupby` grouping, the frame-owner map and the `for`/`else`
  retry reproduce them.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
import yaml

from surgreport.cli import main
from surgreport.dataset import write_annotations
from surgreport.detection import LogitsRecord, write_logits
from surgreport.embeddings import EmbeddingTable, deterministic_token_embeddings
from surgreport.jsonl import read_jsonl
from surgreport.metrics import tokenize

from conftest import StubChatServer, make_calibrated_logits, make_corpus

GOLDEN_SHA256 = {
    "metrics.jsonl": "f416e072142bdb491c63e5d4cc7d177402fc0f3cefc248c992914c60b9d6cf9c",
    "metrics.csv": "12419e4eb0c16710b20aaee50a24a28039e6ccfef40f72f2d091ab5d296679ec",
}

# The same run with gaussian token embeddings, whose cosines are inexact
# BLAS sums. A similarity product taken in float32 moves these digests but
# not the basis-vector ones above, whose cosines are exact; one-ulp changes
# to single cosines are mostly rounded away in the means.
GAUSSIAN_GOLDEN_SHA256 = {
    "metrics.jsonl": "85bb941a8c1a9b615af46b6d71217a993b985c478e0da1f59bbe1382fce67c90",
    "metrics.csv": "b44eb3c5ee92db62785e3f2c8d9cb299621c8e49313dd56b34470ee86ce41343",
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


def test_evaluate_output_bytes_are_pinned_gaussian(tmp_path, vocab):
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
            table.put(tokens, deterministic_token_embeddings(tokens, dim=32, mode="gaussian"))
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
        assert 0.0 < rows[scope]["bert_f1"] < 1.0, scope
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in GAUSSIAN_GOLDEN_SHA256
    }
    assert digests == GAUSSIAN_GOLDEN_SHA256


DETECTION_OUTPUTS = {
    "detect": ("detections.jsonl",),
    "calibrate": ("calibration.json", "reliability_bins_before.csv", "reliability_bins_after.csv"),
    "evaluate": ("metrics.jsonl", "metrics.csv"),
}

DETECTION_GOLDEN_SHA256 = {
    "sigmoid": {
        "detections.jsonl": "aa418b063d1f53e5c993ca62fdcc65f04c8a909beb85f26b081b7382353a6c08",
        "calibration.json": "9b2e0a9024a936a7d8dc11b282ca164e43736129a3886114e15224c9b9de17bf",
        "reliability_bins_before.csv": "b65ca63521c14b7449690eb95d1ed8f4222633547144d0aef458cbe41cbdff2c",
        "reliability_bins_after.csv": "f165e94875183c4846d333f6deb4be36a3e4bb1fc85f9531b9fa66196117e83c",
        "metrics.jsonl": "0782ac2876e8b1e2947eac15c1be8785a92dffe293455c6372f6ad5a5a5f1e0f",
        "metrics.csv": "59356db080abab7fef97ec46246eca80d1198dea7094f6ed7e16fa9e0bca3fee",
    },
    "sigmoid-threshold": {
        "detections.jsonl": "029c073a04c7807e77639d2a7622a8a6dc127ae547caf7d2efa6d4a3691142ca",
        "calibration.json": "9b2e0a9024a936a7d8dc11b282ca164e43736129a3886114e15224c9b9de17bf",
        "reliability_bins_before.csv": "b65ca63521c14b7449690eb95d1ed8f4222633547144d0aef458cbe41cbdff2c",
        "reliability_bins_after.csv": "f165e94875183c4846d333f6deb4be36a3e4bb1fc85f9531b9fa66196117e83c",
        "metrics.jsonl": "6256b8040df62bb444e4ff03e269de211e45c8dc8e6587de8b71ff3fb079810b",
        "metrics.csv": "211b645a17f5808d10bfbee1ac687537526f5d0096d227c042699cb9f50f98d7",
    },
    "softmax": {
        "detections.jsonl": "419fbb1d7e5e4387639667dc4410b2e9c5beec8a1fae2b99e32de6118d57c161",
        "calibration.json": "3944214f0a76b3c9fe7dfa807179da201d4ce4addaf30da45f070d178a6590f5",
        "reliability_bins_before.csv": "1417e00661411fe8f6fd1e5f215e9d487bd65c6a41ab62f0ed5b64b5eb34f48a",
        "reliability_bins_after.csv": "f8feed9bfc95c46734aee984f1c67b25c9ef3ce8ddf42f611c372e8a24950002",
        "metrics.jsonl": "f4bbd97fc9dbc96dfdbdf3f95ed1fff05b173e77034d46563b4f5905dd8918a7",
        "metrics.csv": "6d76578de4e7663a1447a55ca08d7f09b6a5131add91d2b67e691e8b8f16ecac",
    },
}


@pytest.mark.parametrize("case", sorted(DETECTION_GOLDEN_SHA256))
def test_detection_output_bytes_are_pinned(tmp_path, vocab, case):
    records = make_corpus(vocab, n_videos=3, n_frames=70, seed=23)
    annotations = tmp_path / "annotations.jsonl"
    write_annotations(annotations, records, vocab)
    # One decimal gives tied scores, so AP's tie groups are exercised; the
    # shuffle keeps the file out of (video, frame) order.
    rows = [
        LogitsRecord(r.video_id, r.frame_index, tuple(round(v, 1) for v in r.logits))
        for r in make_calibrated_logits(records, vocab, seed=31, scale=2.0)
    ]
    random.Random(37).shuffle(rows)
    logits = tmp_path / "logits.jsonl"
    write_logits(logits, rows)
    out = tmp_path / "out"
    mode, _, override = case.partition("-")
    config = tmp_path / "config.yaml"
    config.write_text(
        yaml.safe_dump(
            {
                "paths": {
                    "annotations": str(annotations),
                    "logits": str(logits),
                    "output_dir": str(out),
                },
                "detection": {"mode": mode},
            }
        ),
        encoding="utf-8",
    )
    flags = ["--threshold", "0.7"] if override else []
    for command in DETECTION_OUTPUTS:
        assert main([command, "--config", str(config), *flags]) == 0

    detections = read_jsonl(out / "detections.jsonl")
    assert len(detections) == len(rows)
    assert any(row["detected"] for row in detections)
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for names in DETECTION_OUTPUTS.values()
        for name in names
    }
    assert digests == DETECTION_GOLDEN_SHA256[case]


REPORT_GOLDEN_SHA256 = {
    "clip_captions.jsonl": "00ae09d57e6b780b6fe4df6471a1c14f60af7b19137a92d2fdb9fa5145e0c341",
    "reports/VID01.llm.timeline.json": "f031ff16927e92327a38bede96eaf74e978a1b1b46fa55e2433d4bbb8546235b",
    "reports/VID01.llm.txt": "4c7eabb7547461217c623baa7ca6cfc40a89fd938e204747a7ed3fc00aea9527",
    "reports/VID01.timeline.json": "3f03fa13e592559eb471d52ead78cabdfff9e854443a909b04645892f0e156b0",
    "reports/VID01.txt": "eabb8124f0cd3ca6b363b04a5defceacb47b1d44c0602e4721897084446b8f54",
    "reports/VID02.llm.timeline.json": "fb22f2f44140af8ffe839d4ff78072883e905eb630847a8217efb2da34319af3",
    "reports/VID02.llm.txt": "4c7eabb7547461217c623baa7ca6cfc40a89fd938e204747a7ed3fc00aea9527",
    "reports/VID02.timeline.json": "2521d29881aade92034d0915539ad488cf6c4720b568966298481755e55429b6",
    "reports/VID02.txt": "b6cf8d7453e8394a34000caa512c74fcec25b0d9d5c4663765f347ce9806f1f8",
    "reports/VID03.llm.timeline.json": "6eec25f38b0493d340069907827f4c1751d33fd369d7397b51ec5d11db349b80",
    "reports/VID03.llm.txt": "4c7eabb7547461217c623baa7ca6cfc40a89fd938e204747a7ed3fc00aea9527",
    "reports/VID03.timeline.json": "ab07c259f908d427e91f68ebdb887d02c6f55b3214392706a4d424a22359ef6d",
    "reports/VID03.txt": "19da049c301e4fdf9a15021880a5d9e4162d49e247182b2fe4bd9b9efc187bea",
}


def test_report_output_bytes_are_pinned(tmp_path, vocab, monkeypatch):
    # Two video lengths, so the videos differ in clip count.
    records = [
        *make_corpus(vocab, n_videos=2, n_frames=150, seed=43),
        *make_corpus(vocab, n_videos=3, n_frames=97, seed=47)[2:],
    ]
    annotations = tmp_path / "annotations.jsonl"
    write_annotations(annotations, records, vocab)
    out = tmp_path / "out"
    paths = {"annotations": str(annotations), "output_dir": str(out)}
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({"paths": paths}), encoding="utf-8")
    assert main(["preprocess", "--config", str(config)]) == 0

    monkeypatch.setenv("SURGREPORT_API_KEY", "k")
    with StubChatServer(completion="Report from the stub.", statuses=[503]) as stub:
        endpoint = {"base_url": stub.url, "model": "stub", "backoff_seconds": 0.01}
        config.write_text(
            yaml.safe_dump({"paths": paths, "report": {"offline": False, "endpoint": endpoint}}),
            encoding="utf-8",
        )
        assert main(["report", "--config", str(config)]) == 0
    assert len(stub.requests) == len(records) + 1

    files = [out / "clip_captions.jsonl", *sorted((out / "reports").iterdir())]
    digests = {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest() for path in files
    }
    assert digests == REPORT_GOLDEN_SHA256
