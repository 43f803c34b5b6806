from __future__ import annotations

import ast
import hashlib
import importlib
import json
import logging
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import surgreport.cli
import surgreport.report
from surgreport.captions import synthesize_clip_caption, synthesize_frame_caption
from surgreport.cli import COMMANDS, main
from surgreport.config import load_config
from surgreport.dataset import VideoRecord, load_annotations, split_dataset, write_annotations
from surgreport.detection import LogitsRecord, truth_bits, write_logits
from surgreport.embeddings import EmbeddingTable, deterministic_token_embeddings, embedding_key
from surgreport.jsonl import read_jsonl
from surgreport.metrics import tokenize
from surgreport.windowing import window_video

from conftest import (
    StubChatServer, frame, make_calibrated_logits, make_corpus, make_logits, traced_peak, triplet,
)


def write_config(path, **sections):
    path.write_text(yaml.safe_dump(sections), encoding="utf-8")
    return str(path)


@pytest.fixture
def workspace(tmp_path, vocab):
    records = make_corpus(vocab, n_videos=2, n_frames=80, seed=3)
    annotations = tmp_path / "annotations.jsonl"
    write_annotations(annotations, records, vocab)
    out = tmp_path / "out"
    config = write_config(
        tmp_path / "config.yaml",
        paths={"annotations": str(annotations), "output_dir": str(out)},
    )
    return tmp_path, records, annotations, out, config


def test_preprocess_counts_match_corpus(workspace, vocab, caplog):
    tmp_path, records, annotations, out, config = workspace
    with caplog.at_level(logging.INFO, logger="surgreport.cli"):
        assert main(["preprocess", "--config", config]) == 0
    frames = read_jsonl(out / "frame_captions.jsonl")
    assert len(frames) == sum(len(r.frames) for r in records)
    clips = read_jsonl(out / "clip_manifest.jsonl")
    expected_clips = sum((len(r) - 32) // 16 + 1 for r in records if len(r) >= 32)
    assert len(clips) == expected_clips
    assert len(read_jsonl(out / "clip_captions.jsonl")) == expected_clips
    # The counts come from the caption writers, which are handed generators.
    assert [r.getMessage() for r in caplog.records if r.name == "surgreport.cli"] == [
        f"preprocess: {len(frames)} frames, {expected_clips} clips"
    ]
    durations = (out / "phase_durations.csv").read_text().strip().splitlines()
    assert durations[0] == "phase,frames,minutes"
    assert durations[-1].startswith("total,")
    manifest = json.loads((out / "preprocess.manifest.json").read_text())
    assert manifest["command"] == "preprocess"
    assert len(manifest["config_sha256"]) == 64


def test_preprocess_names_the_videos_too_short_for_a_clip(tmp_path, vocab, caplog):
    short = [
        VideoRecord(v, tuple(frame(vocab, v, i, "preparation") for i in range(n)))
        for v, n in (("SHORT", 20), ("EDGE", 31))
    ]
    annotations = tmp_path / "annotations.jsonl"
    write_annotations(annotations, [*make_corpus(vocab, 3, 64, seed=3), *short], vocab)
    out = tmp_path / "out"
    config = write_config(
        tmp_path / "config.yaml", paths={"annotations": str(annotations), "output_dir": str(out)}
    )
    with caplog.at_level(logging.INFO, logger="surgreport.cli"):
        assert main(["preprocess", "--config", config]) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [
        "preprocess: no clip, so no report, for videos shorter than windowing.size: "
        "['SHORT', 'EDGE']"
    ]
    assert len(read_jsonl(out / "clip_manifest.jsonl")) == 3 * 3


def test_preprocess_empty_annotation_dir_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    config = write_config(
        tmp_path / "config.yaml",
        paths={"annotations": str(empty), "output_dir": str(tmp_path / "out")},
    )
    assert main(["preprocess", "--config", config]) == 1
    assert "no annotation files" in capsys.readouterr().err


def _annotation_dir(tmp_path, vocab, records, split):
    """Write records[:split] to a.jsonl and records[split:] to b.jsonl."""
    directory = tmp_path / "annotations"
    directory.mkdir()
    write_annotations(directory / "a.jsonl", records[:split], vocab)
    write_annotations(directory / "b.jsonl", records[split:], vocab)
    return directory


def test_preprocess_annotation_dir_matches_one_file(tmp_path, vocab):
    records = make_corpus(vocab, n_videos=3, n_frames=40, seed=4)
    single = tmp_path / "all.jsonl"
    write_annotations(single, records, vocab)
    directory = _annotation_dir(tmp_path, vocab, records, 2)
    outputs = []
    for name, annotations in (("one", single), ("dir", directory)):
        out = tmp_path / name
        config = write_config(
            tmp_path / f"{name}.yaml", paths={"annotations": str(annotations), "output_dir": str(out)}
        )
        assert main(["preprocess", "--config", config]) == 0
        outputs.append(out)
    for name in ("frame_captions.jsonl", "clip_captions.jsonl", "phase_durations.csv"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
    assert len(read_jsonl(outputs[1] / "frame_captions.jsonl")) == 120


@pytest.mark.parametrize("case", ["empty", "repeated-video"])
def test_bad_annotation_dir_is_one_error_line(tmp_path, vocab, capsys, case):
    if case == "empty":
        directory = tmp_path / "annotations"
        directory.mkdir()
        message = f"{directory}: no annotation files found"
    else:
        records = make_corpus(vocab, n_videos=2, n_frames=40, seed=4)
        directory = _annotation_dir(tmp_path, vocab, [*records, records[0]], 2)
        message = f"{directory / 'b.jsonl'}: video VID01 is already in {directory / 'a.jsonl'}"
    out = tmp_path / "out"
    config = write_config(
        tmp_path / "config.yaml", paths={"annotations": str(directory), "output_dir": str(out)}
    )
    assert main(["preprocess", "--config", config]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _tree_digest(root):
    digest = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest[path.relative_to(root)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digest


def test_preprocess_is_deterministic(workspace):
    _, _, _, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    first = _tree_digest(out)
    assert main(["preprocess", "--config", config]) == 0
    assert _tree_digest(out) == first


def test_preprocess_peak_is_near_the_annotations_alone(tmp_path, vocab):
    annotations = tmp_path / "annotations.jsonl"
    write_annotations(annotations, make_corpus(vocab, 5, 2000, seed=1), vocab)
    config = load_config(
        write_config(
            tmp_path / "config.yaml",
            paths={"annotations": str(annotations), "output_dir": str(tmp_path / "out")},
        )
    )
    surgreport.cli.cmd_preprocess(config, None)  # a first run, so state made once is not counted
    load = traced_peak(lambda: load_annotations(annotations, config.vocabulary()))
    # Each caption is written as it is made: the annotations are most of the peak.
    peak = traced_peak(lambda: surgreport.cli.cmd_preprocess(config, None))
    assert peak <= 1.3 * load, (peak, load)

    # The records made once per frame or per clip carry no per-instance __dict__.
    record = load_annotations(annotations, vocab)[0]
    clip = window_video(record)[0]
    caption = synthesize_clip_caption(clip, [record.frames[i] for i in clip.frame_indices], vocab)
    frame_caption = synthesize_frame_caption(record.frames[0], vocab)
    for value in (record.frames[0], frame_caption, clip, caption, caption.segments[0]):
        assert not hasattr(value, "__dict__"), type(value).__name__


def test_detect_writes_probabilities_and_names(workspace, vocab):
    tmp_path, records, annotations, out, config = workspace
    logits_path = tmp_path / "logits.jsonl"
    write_logits(logits_path, make_logits(records, vocab, seed=5))
    config = write_config(
        tmp_path / "config.yaml",
        paths={
            "annotations": str(annotations),
            "logits": str(logits_path),
            "output_dir": str(out),
        },
    )
    assert main(["detect", "--config", config]) == 0
    rows = read_jsonl(out / "detections.jsonl")
    assert len(rows) == sum(len(r.frames) for r in records)
    assert all(len(r["probabilities"]) == 21 for r in rows)
    names = set(vocab.detection_classes)
    assert all(set(r["detected"]) <= names for r in rows)


def test_detect_threshold_override_suppresses_everything(workspace, vocab):
    tmp_path, records, annotations, out, config = workspace
    logits_path = tmp_path / "logits.jsonl"
    write_logits(logits_path, make_logits(records, vocab, seed=5))
    config = write_config(
        tmp_path / "config.yaml",
        paths={
            "annotations": str(annotations),
            "logits": str(logits_path),
            "output_dir": str(out),
        },
    )
    assert main(["detect", "--config", config, "--threshold", "1.0"]) == 0
    rows = read_jsonl(out / "detections.jsonl")
    assert all(r["detected"] == [] for r in rows)


def _logits_workspace(workspace, vocab):
    tmp_path, records, annotations, out, _ = workspace
    logits_path = tmp_path / "logits.jsonl"
    write_logits(logits_path, make_logits(records, vocab, seed=5))
    config = write_config(
        tmp_path / "config.yaml",
        paths={
            "annotations": str(annotations),
            "logits": str(logits_path),
            "output_dir": str(out),
        },
    )
    return logits_path, out, config


def test_detect_videos_filter(workspace, vocab):
    _, records, _, _, _ = workspace
    logits_path, out, config = _logits_workspace(workspace, vocab)
    assert main(["detect", "--config", config, "--videos", "VID02"]) == 0
    rows = read_jsonl(out / "detections.jsonl")
    assert [(r["video_id"], r["frame"]) for r in rows] == [
        ("VID02", f.frame_index) for f in records[1].frames
    ]


def _nul_workspace(tmp_path, vocab, logits):
    """Annotations of "V" (a grasper in every frame) and "V\\0" (a hook), and the given logits."""
    records = [
        VideoRecord(video_id, tuple(frame(vocab, video_id, i, "preparation", [(tool,)]) for i in range(4)))
        for video_id, tool in (("V", "grasper"), ("V\0", "hook"))
    ]
    write_annotations(tmp_path / "annotations.jsonl", records, vocab)
    write_logits(tmp_path / "logits.jsonl", logits)
    out = tmp_path / "out"
    paths = {name: str(tmp_path / f"{name}.jsonl") for name in ("annotations", "logits")}
    return out, write_config(tmp_path / "config.yaml", paths={**paths, "output_dir": str(out)})


def test_detect_videos_tells_an_id_from_the_id_with_a_trailing_nul(tmp_path, vocab):
    logits = [LogitsRecord(v, f, tuple([1.0] * 21)) for v, f in (("V\0", 0), ("V", 1), ("V\0", 2))]
    out, config = _nul_workspace(tmp_path, vocab, logits)
    assert main(["detect", "--config", config, "--videos", "V"]) == 0
    assert [(r["video_id"], r["frame"]) for r in read_jsonl(out / "detections.jsonl")] == [("V", 1)]


def test_evaluate_scores_logits_against_their_own_video_when_ids_differ_by_a_nul(tmp_path, vocab):
    # Each "V\0" frame's logits name its hook only: scored against "V" they would miss every class.
    hook = vocab.index_of("instruments", "hook")
    logits = [
        LogitsRecord("V\0", f, tuple(8.0 if c == hook else -8.0 for c in range(21))) for f in range(4)
    ]
    out, config = _nul_workspace(tmp_path, vocab, logits)
    assert main(["evaluate", "--config", config]) == 0
    [row] = read_jsonl(out / "metrics.jsonl")
    assert (row["precision"], row["recall"], row["accuracy"]) == (1.0, 1.0, 1.0)


def test_detect_softmax_of_logits_near_the_float_limit_is_silent(tmp_path):
    # The shift z - max overflows to -inf, whose exp is exactly 0.0.
    logits = tmp_path / "logits.jsonl"
    write_logits(logits, [LogitsRecord("VID01", 0, tuple([1e308] + [-1e308] * 20))])
    out = tmp_path / "out"
    config = write_config(
        tmp_path / "config.yaml", paths={"logits": str(logits), "output_dir": str(out)}
    )
    result = subprocess.run(
        [sys.executable, "-m", "surgreport.cli", "detect", "--config", config, "--mode", "softmax"],
        capture_output=True, text=True, env=_source_env(),
    )
    assert (result.returncode, result.stderr) == (0, "")
    [row] = read_jsonl(out / "detections.jsonl")
    assert row["probabilities"] == [1.0] + [0.0] * 20


def test_calibrate_of_logits_that_overflow_the_likelihood_ends_in_one_error_line(workspace, vocab):
    # Softmax of +-1e308 puts 0 * -inf into the NLL, which is NaN at every T.
    tmp_path, records, annotations, out, _ = workspace
    logits = tmp_path / "logits.jsonl"
    rows = [
        LogitsRecord(rec.video_id, f.frame_index, tuple(1e308 if b else -1e308 for b in truth_bits(f, vocab)))
        for rec in records
        for f in rec.frames
    ]
    write_logits(logits, rows)
    config = write_config(
        tmp_path / "config.yaml",
        paths={"annotations": str(annotations), "logits": str(logits), "output_dir": str(out)},
    )
    result = subprocess.run(
        [sys.executable, "-m", "surgreport.cli", "calibrate", "--config", config,
         "--mode", "softmax"],
        capture_output=True, text=True, env=_source_env(),
    )
    assert result.returncode == 1
    assert result.stderr == (
        f"error: {logits}: the logits overflow the likelihood: NLL nan at T = 1 and nan at T = 1\n"
    )
    assert not (out / "calibration.json").exists()
    assert not (out / "calibrate.manifest.json").exists()


def test_detect_unknown_video(workspace, vocab, capsys):
    _, out, config = _logits_workspace(workspace, vocab)
    assert main(["detect", "--config", config, "--videos", "VID01,NOPE"]) == 1
    assert "unknown video ids: ['NOPE']" in capsys.readouterr().err
    assert not (out / "detections.jsonl").exists()


def test_calibrate_videos_matches_an_annotation_file_of_those_videos(workspace, vocab):
    tmp_path, records, _, _, _ = workspace
    logits_path, out, config = _logits_workspace(workspace, vocab)
    only = tmp_path / "vid01.jsonl"
    write_annotations(only, [r for r in records if r.video_id == "VID01"], vocab)
    alone = tmp_path / "alone"
    only_config = write_config(
        tmp_path / "vid01.yaml",
        paths={"annotations": str(only), "logits": str(logits_path), "output_dir": str(alone)},
    )
    assert main(["calibrate", "--config", only_config]) == 0
    assert main(["calibrate", "--config", config]) == 0
    assert (out / "calibration.json").read_bytes() != (alone / "calibration.json").read_bytes()
    assert main(["calibrate", "--config", config, "--videos", "VID01"]) == 0
    assert (out / "calibration.json").read_bytes() == (alone / "calibration.json").read_bytes()


@pytest.mark.parametrize(
    "command, videos, message",
    [
        ("calibrate", "VID01,NOPE", "unknown video ids: ['NOPE']"),
        ("evaluate", "VID01", "evaluate scores every video and takes no --videos"),
    ],
)
def test_videos_refusal_is_one_error_line(workspace, vocab, capsys, command, videos, message):
    _, out, config = _logits_workspace(workspace, vocab)
    assert main([command, "--config", config, "--videos", videos]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


BAD_LOGITS_LINES = {
    "width": '{"video_id": "VID01", "frame": 0, "logits": [0.5, 1.5]}',
    "nan": '{"video_id": "VID01", "frame": 0, "logits": [NaN' + ", 0.0" * 20 + "]}",
    "inf": '{"video_id": "VID01", "frame": 0, "logits": [-Infinity' + ", 0.0" * 20 + "]}",
    "not-a-list": '{"video_id": "VID01", "frame": 0, "logits": {"grasper": 1.0}}',
    "truncated": '{"video_id": "VID01", "frame": 0, "logits": [0.5, 1.5',
}


@pytest.mark.parametrize("command", ["detect", "calibrate", "evaluate"])
@pytest.mark.parametrize("case", [*sorted(BAD_LOGITS_LINES), "duplicate"])
def test_bad_logits_end_in_error_line(workspace, vocab, capsys, command, case):
    logits_path, _, config = _logits_workspace(workspace, vocab)
    lines = logits_path.read_text().splitlines()
    # The bad record replaces line 5, or repeats line 2 there.
    lines[4] = lines[1] if case == "duplicate" else BAD_LOGITS_LINES[case]
    logits_path.write_text("\n".join(lines) + "\n")
    assert main([command, "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {logits_path}:5: ")
    assert len(err.splitlines()) == 1


def test_calibrate_on_calibrated_logits(tmp_path, vocab):
    records = make_corpus(vocab, n_videos=3, n_frames=400, seed=8)
    annotations = tmp_path / "annotations.jsonl"
    write_annotations(annotations, records, vocab)
    logits_path = tmp_path / "logits.jsonl"
    write_logits(logits_path, make_calibrated_logits(records, vocab, seed=9))
    out = tmp_path / "out"
    config = write_config(
        tmp_path / "config.yaml",
        paths={
            "annotations": str(annotations),
            "logits": str(logits_path),
            "output_dir": str(out),
        },
    )
    assert main(["calibrate", "--config", config]) == 0
    result = json.loads((out / "calibration.json").read_text())
    assert 0.8 <= result["temperature"] <= 1.25
    assert result["nll_after"] <= result["nll_before"] + 1e-9
    before = (out / "reliability_bins_before.csv").read_text().splitlines()
    after = (out / "reliability_bins_after.csv").read_text().splitlines()
    assert before[0] == after[0] == "bin_lo,bin_hi,count,conf,acc"
    assert len(before) == len(after) == 11


def test_calibrate_missing_logits_rows(tmp_path, vocab, capsys):
    records = make_corpus(vocab, n_videos=1, n_frames=50, seed=8)
    annotations = tmp_path / "annotations.jsonl"
    write_annotations(annotations, records, vocab)
    logits_path = tmp_path / "logits.jsonl"
    write_logits(logits_path, make_logits(records, vocab)[:10])
    config = write_config(
        tmp_path / "config.yaml",
        paths={
            "annotations": str(annotations),
            "logits": str(logits_path),
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["calibrate", "--config", config]) == 1
    split = load_config(config).split
    validation = sorted(split_dataset(records, split.ratios, split.seed, split.granularity).validation)
    missing = [ref for ref in validation if ref[1] >= 10]
    assert missing
    assert capsys.readouterr().err == (
        f"error: missing logits rows for {len(missing)} validation frames, e.g. {missing[:3]}\n"
    )


def test_evaluate_logits_rows_without_annotations(workspace, vocab, capsys):
    tmp_path, records, annotations, out, _ = workspace
    logits_path = tmp_path / "logits.jsonl"
    extra = [LogitsRecord(v, f, (0.0,) * 21) for v, f in [("VID01", 80), ("VID09", 0), ("VID02", 1000)]]
    logits = make_logits(records, vocab)
    write_logits(logits_path, logits[:5] + extra + logits[5:] + [LogitsRecord("VID03", 0, (0.0,) * 21)])
    config = write_config(
        tmp_path / "config.yaml",
        paths={"annotations": str(annotations), "logits": str(logits_path), "output_dir": str(out)},
    )
    assert main(["evaluate", "--config", config]) == 1
    assert capsys.readouterr().err == (
        "error: logits rows without annotations, e.g. [('VID01', 80), ('VID09', 0), ('VID02', 1000)]\n"
    )


def test_calibrate_missing_logits_file(workspace, capsys):
    tmp_path, _, annotations, out, _ = workspace
    config = write_config(
        tmp_path / "config.yaml",
        paths={
            "annotations": str(annotations),
            "logits": str(tmp_path / "nope.jsonl"),
            "output_dir": str(out),
        },
    )
    assert main(["calibrate", "--config", config]) == 1
    assert "does not exist" in capsys.readouterr().err


def _embeddings_for_captions(paths, out_path):
    table = EmbeddingTable()
    for path in paths:
        for row in read_jsonl(path):
            tokens = tokenize(row["text"])
            table.put(tokens, deterministic_token_embeddings(tokens, dim=32, mode="basis"))
    table.save(out_path)


def test_evaluate_identity_corpus_scores_one(workspace, vocab):
    tmp_path, records, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    embeddings = tmp_path / "embeddings.jsonl"
    _embeddings_for_captions(
        [out / "frame_captions.jsonl", out / "clip_captions.jsonl"], embeddings
    )
    config = write_config(
        tmp_path / "config.yaml",
        paths={
            "annotations": str(annotations),
            "output_dir": str(out),
            "embeddings": str(embeddings),
        },
        evaluate={
            "generated_frame_captions": str(out / "frame_captions.jsonl"),
            "generated_clip_captions": str(out / "clip_captions.jsonl"),
        },
    )
    assert main(["evaluate", "--config", config]) == 0
    rows = {r["scope"]: r for r in read_jsonl(out / "metrics.jsonl")}
    for scope in ("frame_captions", "clip_captions"):
        for metric in ("bleu", "rouge1", "rouge2", "rougeL", "bert_f1"):
            assert rows[scope][metric] == 1.0
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header.startswith("scope,")


def test_evaluate_key_mismatch(workspace, vocab, capsys):
    tmp_path, records, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    truncated = tmp_path / "generated.jsonl"
    lines = (out / "frame_captions.jsonl").read_text().splitlines()
    extra = [json.dumps({"video_id": v, "frame": f, "text": "x"}) for v, f in [("VID09", 0), ("VID01", 99)]]
    truncated.write_text("\n".join(extra + lines[:-1]) + "\n", encoding="utf-8")
    config = write_config(
        tmp_path / "config.yaml",
        paths={"annotations": str(annotations), "output_dir": str(out)},
        evaluate={"generated_frame_captions": str(truncated)},
    )
    assert main(["evaluate", "--config", config]) == 1
    assert capsys.readouterr().err == (
        "error: frame caption keys do not align: generated-only [('VID01', 99), ('VID09', 0)], "
        "reference-only [('VID02', 79)]\n"
    )


def test_evaluate_perturbed_captions_below_one(workspace, vocab):
    tmp_path, records, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    perturbed_rows = []
    for row in read_jsonl(out / "frame_captions.jsonl"):
        row["text"] = row["text"].replace("During", "Throughout")
        perturbed_rows.append(json.dumps(row))
    perturbed = tmp_path / "perturbed.jsonl"
    perturbed.write_text("\n".join(perturbed_rows) + "\n", encoding="utf-8")
    config = write_config(
        tmp_path / "config.yaml",
        paths={"annotations": str(annotations), "output_dir": str(out)},
        evaluate={"generated_frame_captions": str(perturbed)},
    )
    assert main(["evaluate", "--config", config]) == 0
    row = read_jsonl(out / "metrics.jsonl")[0]
    assert row["bleu"] < 1.0
    assert row["rouge1"] < 1.0
    assert row["rougeL"] < 1.0


def test_evaluate_detection_metrics_with_logits(workspace, vocab):
    tmp_path, records, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    logits_path = tmp_path / "logits.jsonl"
    write_logits(logits_path, make_logits(records, vocab, seed=6, signal=6.0))
    config = write_config(
        tmp_path / "config.yaml",
        paths={
            "annotations": str(annotations),
            "logits": str(logits_path),
            "output_dir": str(out),
        },
        evaluate={"generated_frame_captions": str(out / "frame_captions.jsonl")},
    )
    assert main(["evaluate", "--config", config]) == 0
    rows = {r["scope"]: r for r in read_jsonl(out / "metrics.jsonl")}
    detection = rows["detection"]
    assert detection["precision"] > 0.8
    assert detection["recall"] > 0.8
    assert detection["accuracy"] > 0.9
    assert detection["ap_instruments"] > 0.8


def test_report_offline(workspace, vocab):
    tmp_path, records, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    assert main(["report", "--config", config, "--videos", "VID01"]) == 0
    report = (out / "reports" / "VID01.txt").read_text(encoding="utf-8")
    assert "phase lasted" in report
    sidecar = json.loads((out / "reports" / "VID01.timeline.json").read_text())
    assert sidecar["timeline"]["video_id"] == "VID01"
    # rerun is byte-identical
    digest = hashlib.sha256(report.encode()).hexdigest()
    assert main(["report", "--config", config, "--videos", "VID01"]) == 0
    assert hashlib.sha256((out / "reports" / "VID01.txt").read_bytes()).hexdigest() == digest


def test_report_unknown_video(workspace, capsys):
    tmp_path, records, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    assert main(["report", "--config", config, "--videos", "VID99"]) == 1
    assert "unknown video ids" in capsys.readouterr().err


def test_report_with_stub_endpoint(workspace, vocab, monkeypatch):
    tmp_path, records, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    monkeypatch.setenv("SURGREPORT_API_KEY", "k")
    with StubChatServer(completion="Narrative from the endpoint.") as stub:
        config = write_config(
            tmp_path / "config.yaml",
            paths={"annotations": str(annotations), "output_dir": str(out)},
            report={
                "offline": False,
                "endpoint": {
                    "base_url": stub.url,
                    "model": "stub-model",
                    "backoff_seconds": 0.01,
                },
            },
        )
        assert main(["report", "--config", config, "--videos", "VID01"]) == 0
    assert (out / "reports" / "VID01.txt").exists()
    llm_text = (out / "reports" / "VID01.llm.txt").read_text(encoding="utf-8")
    assert llm_text.strip() == "Narrative from the endpoint."
    sidecar = json.loads((out / "reports" / "VID01.llm.timeline.json").read_text())
    assert sidecar["provenance"] == "llm:stub-model"


def test_report_merges_each_video_once_with_an_endpoint(workspace, monkeypatch):
    tmp_path, records, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    merged: list[str] = []
    rendered: list[str] = []

    def counting(function, calls, video_of):
        def wrapper(*args):
            calls.append(video_of(args[0]))
            return function(*args)
        return wrapper

    for module in (surgreport.cli, surgreport.report):
        merge = counting(module.merge_timeline, merged, lambda clips: clips[0].video_id)
        monkeypatch.setattr(module, "merge_timeline", merge)
        render = counting(module.render_timeline, rendered, lambda timeline: timeline.video_id)
        monkeypatch.setattr(module, "render_timeline", render)
    monkeypatch.setenv("SURGREPORT_API_KEY", "k")
    with StubChatServer() as stub:
        config = write_config(
            tmp_path / "config.yaml",
            paths={"annotations": str(annotations), "output_dir": str(out)},
            report={"offline": False, "endpoint": {"base_url": stub.url, "model": "m"}},
        )
        assert main(["report", "--config", config]) == 0
    assert sorted(merged) == sorted(rendered) == sorted(r.video_id for r in records)
    assert len(stub.requests) == len(records)


def test_an_endpoint_that_always_fails_leaves_every_offline_report(workspace, monkeypatch, capsys):
    tmp_path, records, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    monkeypatch.setenv("SURGREPORT_API_KEY", "k")
    with StubChatServer(status=400) as stub:
        config = write_config(
            tmp_path / "config.yaml",
            paths={"annotations": str(annotations), "output_dir": str(out)},
            report={"offline": False, "endpoint": {"base_url": stub.url, "model": "m", "parallelism": 1}},
        )
        capsys.readouterr()
        assert main(["report", "--config", config]) == 1
    # One job at a time: after the first failure, the jobs left send no request.
    assert len(stub.requests) == 1
    err = capsys.readouterr().err
    assert err == "error: endpoint report failed: endpoint answered status 400\n"
    expected = sorted(f"{r.video_id}{ext}" for r in records for ext in (".timeline.json", ".txt"))
    assert sorted(p.name for p in (out / "reports").iterdir()) == expected


def test_report_endpoint_failure_keeps_offline_artifact(workspace, monkeypatch, capsys):
    tmp_path, records, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    monkeypatch.setenv("SURGREPORT_API_KEY", "k")
    config = write_config(
        tmp_path / "config.yaml",
        paths={"annotations": str(annotations), "output_dir": str(out)},
        report={
            "offline": False,
            "endpoint": {
                "base_url": "http://127.0.0.1:9",
                "model": "m",
                "backoff_seconds": 0.01,
                "timeout": 0.5,
            },
        },
    )
    assert main(["report", "--config", config, "--videos", "VID01"]) == 1
    assert (out / "reports" / "VID01.txt").exists()
    assert not (out / "reports" / "VID01.llm.txt").exists()
    assert "endpoint report failed" in capsys.readouterr().err


def test_endpoint_content_with_a_lone_surrogate_is_malformed(workspace, monkeypatch, capsys):
    tmp_path, records, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    monkeypatch.setenv("SURGREPORT_API_KEY", "k")
    with StubChatServer(completion="ok \ud800 end") as stub:
        config = write_config(
            tmp_path / "config.yaml",
            paths={"annotations": str(annotations), "output_dir": str(out)},
            report={"offline": False, "endpoint": {"base_url": stub.url, "model": "m"}},
        )
        capsys.readouterr()
        assert main(["report", "--config", config, "--videos", "VID01"]) == 1
    assert len(stub.requests) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: endpoint report failed: malformed endpoint response: ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in (out / "reports").iterdir()) == ["VID01.timeline.json", "VID01.txt"]


@pytest.mark.parametrize("video_id", ["", ".", "..", "../escaped", "sub/dir", "a\\b", "nul\0"])
def test_report_rejects_a_video_id_that_is_not_a_file_name(workspace, capsys, video_id):
    tmp_path, records, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    clip_path = out / "clip_captions.jsonl"
    lines = clip_path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[2])
    row["video_id"] = video_id
    lines[2] = json.dumps(row) + "\n"
    clip_path.write_text("".join(lines), encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(["report", "--config", config]) == 1
    message = f"video_id {video_id!r} is not a plain file name"
    assert capsys.readouterr().err == f"error: {clip_path}:3: {message}\n"
    assert sorted(tmp_path.rglob("*")) == before  # no report written, inside reports/ or out of it


def test_report_file_errors_end_in_one_error_line(workspace, capsys):
    tmp_path, records, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    clip_path = out / "clip_captions.jsonl"
    lines = clip_path.read_text(encoding="utf-8").splitlines(keepends=True)
    long_id = "v" * 300  # longer than a file name may be
    clip_path.write_text(
        "".join(line.replace('"VID02"', f'"{long_id}"') for line in lines), encoding="utf-8"
    )
    capsys.readouterr()
    assert main(["report", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and "File name too long" in err
    assert err.count("\n") == 1
    assert f"'{out / 'reports' / long_id}.txt'" in err and ".tmp" not in err
    assert sorted(out.glob("reports/.*.tmp")) == []
    # An input that cannot be read: the clip-caption path names a directory.
    clip_path.unlink()
    clip_path.mkdir()
    assert main(["report", "--config", config]) == 1
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{clip_path}'\n"


def test_an_offline_report_writes_every_video_after_the_first_fails(workspace, capsys):
    tmp_path, records, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    clip_path = out / "clip_captions.jsonl"
    long_id = "A" * 300  # sorts before VID02, so its job is the first, and too long a file name
    clip_path.write_text(clip_path.read_text().replace('"VID01"', f'"{long_id}"'))
    capsys.readouterr()
    assert main(["report", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and "File name too long" in err
    assert err.count("\n") == 1
    assert f"'{out / 'reports' / long_id}.txt'" in err
    assert sorted(p.name for p in (out / "reports").iterdir()) == ["VID02.timeline.json", "VID02.txt"]


def test_report_names_why_a_short_video_has_no_clip_captions(tmp_path, vocab, capsys):
    short = VideoRecord("SHORT", tuple(frame(vocab, "SHORT", i, "preparation") for i in range(20)))
    annotations = tmp_path / "annotations.jsonl"
    write_annotations(annotations, [*make_corpus(vocab, 3, 64, seed=3), short], vocab)
    out = tmp_path / "out"
    config = write_config(
        tmp_path / "config.yaml", paths={"annotations": str(annotations), "output_dir": str(out)}
    )
    assert main(["preprocess", "--config", config]) == 0
    capsys.readouterr()
    assert main(["report", "--config", config, "--videos", "SHORT"]) == 1
    assert capsys.readouterr().err == (
        "error: unknown video ids: ['SHORT'] "
        "(no clip captions; a video shorter than windowing.size 32 gets none)\n"
    )
    assert not (out / "reports").exists()


def test_report_file_errors_with_an_endpoint_end_in_one_error_line(workspace, monkeypatch, capsys):
    tmp_path, records, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    clip_path = out / "clip_captions.jsonl"
    long_id = "v" * 300
    clip_path.write_text(clip_path.read_text().replace('"VID02"', f'"{long_id}"'))
    monkeypatch.setenv("SURGREPORT_API_KEY", "k")
    with StubChatServer() as stub:
        config = write_config(
            tmp_path / "config.yaml",
            paths={"annotations": str(annotations), "output_dir": str(out)},
            report={"offline": False, "endpoint": {"base_url": stub.url, "model": "m"}},
        )
        capsys.readouterr()
        assert main(["report", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and "File name too long" in err
    assert err.count("\n") == 1
    assert f"'{out / 'reports' / long_id}.txt'" in err and ".tmp" not in err
    assert len(stub.requests) == 1  # VID01's endpoint report; the long id fails before its request


def test_report_for_the_longest_id_the_file_system_takes(workspace):
    _, _, _, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    clip_path = out / "clip_captions.jsonl"
    # 241 + len(".timeline.json") is 255, the longest file name most file systems take.
    long_id = "v" * 241
    clip_path.write_text(clip_path.read_text().replace('"VID02"', f'"{long_id}"'))
    assert main(["report", "--config", config]) == 0
    names = sorted(p.name for p in (out / "reports").iterdir())
    assert names == ["VID01.timeline.json", "VID01.txt", f"{long_id}.timeline.json", f"{long_id}.txt"]


def test_offline_flag_suppresses_endpoint(workspace, monkeypatch):
    tmp_path, records, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    config = write_config(
        tmp_path / "config.yaml",
        paths={"annotations": str(annotations), "output_dir": str(out)},
        report={
            "offline": False,
            # unreachable on purpose; --offline must prevent any request
            "endpoint": {"base_url": "http://127.0.0.1:9", "model": "m", "timeout": 0.2},
        },
    )
    assert main(["report", "--config", config, "--videos", "VID01", "--offline"]) == 0
    assert (out / "reports" / "VID01.txt").exists()
    assert not (out / "reports" / "VID01.llm.txt").exists()


def test_vocabulary_override_via_config(tmp_path, vocab, capsys):
    import yaml as yaml_mod

    records = make_corpus(vocab, n_videos=1, n_frames=40, seed=1)
    annotations = tmp_path / "annotations.jsonl"
    write_annotations(annotations, records, vocab)
    custom = {
        "instruments": list(vocab.instruments),
        "verbs": list(vocab.verbs),
        "targets": list(vocab.targets),
        "phases": list(vocab.phases),
    }
    custom["instruments"][0] = "forceps"  # annotations still say "grasper"
    vocab_path = tmp_path / "vocab.yaml"
    vocab_path.write_text(yaml_mod.safe_dump(custom), encoding="utf-8")
    config = write_config(
        tmp_path / "config.yaml",
        paths={
            "annotations": str(annotations),
            "output_dir": str(tmp_path / "out"),
            "vocabulary": str(vocab_path),
        },
    )
    assert main(["preprocess", "--config", config]) == 1
    assert "unknown instrument label 'grasper'" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = write_config(tmp_path / "config.yaml", windowing={"sizes": 32})
    assert main(["preprocess", "--config", config]) == 1
    assert "unknown keys" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["preprocess", "--config", str(tmp_path / "none.yaml")]) == 1
    assert "config file not found" in capsys.readouterr().err


def test_seed_override_changes_split(tmp_path, vocab):
    records = make_corpus(vocab, n_videos=1, n_frames=60, seed=2)
    annotations = tmp_path / "annotations.jsonl"
    write_annotations(annotations, records, vocab)
    logits_path = tmp_path / "logits.jsonl"
    write_logits(logits_path, make_calibrated_logits(records, vocab, seed=4))
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"out{seed}"
        config = write_config(
            tmp_path / f"config{seed}.yaml",
            paths={
                "annotations": str(annotations),
                "logits": str(logits_path),
                "output_dir": str(out),
            },
        )
        assert main(["calibrate", "--config", config, "--seed", seed]) == 0
        outs.append(json.loads((out / "calibration.json").read_text()))
    assert outs[0] != outs[1]


def test_evaluate_blank_reference_caption(workspace, vocab, capsys):
    tmp_path, records, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    rows = read_jsonl(out / "frame_captions.jsonl")
    rows[3]["text"] = "  "
    reference = tmp_path / "reference.jsonl"
    reference.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    config = write_config(
        tmp_path / "config.yaml",
        paths={"annotations": str(annotations), "output_dir": str(out)},
        evaluate={
            "generated_frame_captions": str(out / "frame_captions.jsonl"),
            "reference_frame_captions": str(reference),
        },
    )
    assert main(["evaluate", "--config", config]) == 1
    err = capsys.readouterr().err
    key = (rows[3]["video_id"], rows[3]["frame"])
    assert err == f"error: frame_captions: reference caption {key} in {reference} is blank\n"


def _source_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this source tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def _python(code: str, *args: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports this source tree."""
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=_source_env(), check=True,
    )
    return result.stdout


def test_importing_the_cli_does_not_load_requests():
    assert _python("import sys, surgreport.cli; print('requests' in sys.modules)").strip() == "False"


def test_only_the_scoring_commands_load_numpy(workspace, vocab):
    _, _, config = _logits_workspace(workspace, vocab)
    code = (
        "import json, sys\n"
        "from surgreport.cli import main\n"
        "loaded = {}\n"
        "for command in ('preprocess', 'report', 'detect'):\n"
        "    assert main([command, '--config', sys.argv[1], '--offline']) == 0\n"
        "    loaded[command] = 'numpy' in sys.modules\n"
        "print(json.dumps(loaded))\n"
    )
    last_line = _python(code, config).splitlines()[-1]
    assert json.loads(last_line) == {"preprocess": False, "report": False, "detect": True}


def test_each_command_loads_only_its_own_modules(workspace, vocab):
    _, _, config = _logits_workspace(workspace, vocab)
    assert main(["preprocess", "--config", config]) == 0  # report reads its clip captions
    watched = [f"surgreport.{m}" for m in ("captions", "report", "windowing", "metrics", "calibration", "embeddings")]
    code = (
        "import json, sys\n"
        "from surgreport.cli import main\n"
        "assert main([sys.argv[1], '--config', sys.argv[2], '--offline']) == 0\n"
        f"print(json.dumps(sorted(m for m in {watched + ['concurrent.futures']!r} if m in sys.modules)))\n"
    )
    # Each command in a fresh interpreter; the config scores logits only.
    loaded = {command: json.loads(_python(code, command, config).splitlines()[-1]) for command in COMMANDS}
    assert loaded == {
        "preprocess": ["surgreport.captions", "surgreport.windowing"],
        "detect": [],
        "calibrate": ["surgreport.calibration"],
        "evaluate": ["surgreport.embeddings", "surgreport.metrics"],
        "report": ["concurrent.futures", "surgreport.captions", "surgreport.report", "surgreport.windowing"],
    }


def test_no_command_loads_openssl(workspace, vocab):
    tmp_path, _, annotations, out, _ = workspace
    logits_path, _, config = _logits_workspace(workspace, vocab)
    assert main(["preprocess", "--config", config]) == 0
    embeddings = tmp_path / "embeddings.jsonl"
    _embeddings_for_captions([out / "frame_captions.jsonl"], embeddings)
    config = write_config(
        tmp_path / "config.yaml",
        paths={"annotations": str(annotations), "logits": str(logits_path),
               "embeddings": str(embeddings), "output_dir": str(out)},
        evaluate={"generated_frame_captions": str(out / "frame_captions.jsonl")},
    )
    code = (
        "import json, sys\n"
        "from surgreport.cli import COMMANDS, main\n"
        "loaded = {}\n"
        "for command in COMMANDS:\n"
        "    assert main([command, '--config', sys.argv[1], '--offline']) == 0\n"
        "    loaded[command] = '_hashlib' in sys.modules\n"
        "print(json.dumps(loaded))\n"
    )
    last_line = _python(code, config).splitlines()[-1]
    assert json.loads(last_line) == dict.fromkeys(COMMANDS, False)


def test_every_public_name_is_its_submodule_object():
    import surgreport

    namespace: dict = {}
    exec("from surgreport import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(surgreport.__all__)
    assert set(surgreport.__all__) <= set(dir(surgreport))
    for name in set(surgreport.__all__) - {"__version__"}:
        module = importlib.import_module(f"surgreport.{surgreport._SUBMODULE[name]}")
        assert namespace[name] is getattr(surgreport, name) is getattr(module, name)
    assert not hasattr(surgreport, "no_such_name")


def test_a_wrapper_bound_on_the_cli_is_the_function_detect_calls(workspace, vocab, monkeypatch):
    import surgreport.cli as cli
    from surgreport.detection import read_logits

    logits_path, _, config = _logits_workspace(workspace, vocab)
    # As in a fresh process: no deferred name bound yet.
    for name in cli._DEFERRED:
        monkeypatch.delitem(vars(cli), name, raising=False)
    calls = []

    def wrapper(path):
        calls.append(path)
        return read_logits(path)

    monkeypatch.setattr(cli, "read_logits", wrapper, raising=False)
    assert main(["detect", "--config", config]) == 0
    assert calls == [str(logits_path)]
    assert cli.read_logits is wrapper


@pytest.mark.parametrize("command", list(COMMANDS))
def test_main_runs_the_bound_command_then_writes_its_manifest(workspace, vocab, monkeypatch, capsys, command):
    import surgreport.cli as cli

    _, out, config = _logits_workspace(workspace, vocab)
    assert main(["preprocess", "--config", config]) == 0  # report reads its clip captions
    manifest = out / f"{command}.manifest.json"
    manifest.unlink(missing_ok=True)
    run, calls = getattr(cli, f"cmd_{command}"), []

    def wrapper(config, videos):
        calls.append(videos)
        return run(config, videos)

    monkeypatch.setattr(cli, f"cmd_{command}", wrapper)
    capsys.readouterr()
    assert main([command, "--config", config]) == 0
    assert calls == [None]
    printed = capsys.readouterr().out.splitlines()
    assert printed and all(Path(path).exists() for path in printed)
    assert json.loads(manifest.read_text())["outputs"] == sorted(Path(path).name for path in printed)
    # A command that fails writes no manifest, and here nothing else either.
    manifest.unlink()
    before = _tree_digest(out)
    assert main([command, "--config", config, "--videos", "NOPE"]) == 1
    assert calls == [None, ["NOPE"]]
    assert capsys.readouterr().err.count("\n") == 1
    assert _tree_digest(out) == before


def test_declared_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    root = Path(__file__).resolve().parents[1]
    imported = set()
    for path in (root / "src" / "surgreport").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"surgreport"}
    distributions = {"yaml": "pyyaml"}  # import name -> distribution name
    declared = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    names = {re.split(r"[\s<>=!~\[;]", dep, maxsplit=1)[0].lower()
             for dep in declared["project"]["dependencies"]}
    assert {distributions.get(name, name) for name in third_party} == names


def test_the_package_imports_no_name_it_does_not_use():
    root = Path(__file__).resolve().parents[1]
    unused = set()
    for path in sorted((root / "src" / "surgreport").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        lines = source.splitlines()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import | ast.ImportFrom) and getattr(node, "module", "") != "__future__":
                # A name bound for bench/tracer.py to patch carries the comment on its line.
                exempt = lines[node.lineno - 1].endswith("# noqa: F401")
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.add((path.stem, name, exempt))
    assert unused == {
        ("captions", "read_jsonl", True),
        ("cli", "split_dataset", True),
        ("detection", "read_jsonl", True),
        ("embeddings", "read_jsonl", True),
    }


# Line 3 of each record file is replaced by the bad record. Clip captions are
# parsed against the grammar only by `report`; `evaluate` reads the others.
# (file, command, bad record, message)
BAD_RECORDS = {
    "annotations-missing-field": (
        "annotations", "preprocess",
        '{"video_id": "VID01", "frame": 2, "triplets": []}',
        "missing field(s) ['phase']",
    ),
    "annotations-bool-frame": (
        "annotations", "preprocess",
        '{"video_id": "VID01", "frame": true, "phase": "preparation", "triplets": []}',
        "frame must be a nonnegative integer, got bool",
    ),
    "annotations-not-an-object": (
        "annotations", "preprocess",
        '["VID01", 2]',
        "record must be a JSON object",
    ),
    # "\udcff" is written as the byte 0xff, which no UTF-8 text holds.
    "annotations-not-utf8": (
        "annotations", "preprocess",
        '{"video_id": "VID01", "frame": 2, "phase": "prep\udcffaration", "triplets": []}',
        "not UTF-8 text: byte 0xff (invalid start byte)",
    ),
    "logits-not-utf8": (
        "logits", "detect",
        '{"video_id": "VID01\udcff", "frame": 2, "logits": []}',
        "not UTF-8 text: byte 0xff (invalid start byte)",
    ),
    "frame-captions-missing-field": (
        "frame_captions", "evaluate",
        '{"video_id": "VID01", "frame": 2}',
        "missing field(s) ['text']",
    ),
    "frame-captions-bool-frame": (
        "frame_captions", "evaluate",
        '{"video_id": "VID01", "frame": true, "text": "x"}',
        "frame must be a nonnegative integer, got bool",
    ),
    "frame-captions-not-an-object": (
        "frame_captions", "evaluate",
        '"During phase preparation"',
        "record must be a JSON object",
    ),
    "frame-captions-not-utf8": (
        "frame_captions", "evaluate",
        '{"video_id": "VID01", "frame": 2, "text": "During phase \udcff"}',
        "not UTF-8 text: byte 0xff (invalid start byte)",
    ),
    "clip-captions-string-start": (
        "clip_captions", "evaluate",
        '{"video_id": "VID01", "start_frame": "16", "text": "x"}',
        "start_frame must be a nonnegative integer, got str",
    ),
    "clip-captions-missing-field": (
        "clip_captions", "evaluate",
        '{"video_id": "VID01", "text": "x"}',
        "missing field(s) ['start_frame']",
    ),
    "clip-captions-grammar": (
        "clip_captions", "report",
        '{"video_id": "VID01", "start_frame": 16, "text": "Later, it ends."}',
        "offset 0: expected 'First'",
    ),
    "clip-captions-superscript-duration": (
        "clip_captions", "report",
        '{"video_id": "VID01", "start_frame": 16, '
        '"text": "First, during the \u00b2-second preparation phase, no instrument is active."}',
        "offset 18: expected a duration in seconds",
    ),
    "clip-captions-arabic-indic-duration": (
        "clip_captions", "report",
        '{"video_id": "VID01", "start_frame": 16, '
        '"text": "First, during the 3\u0663-second preparation phase, no instrument is active."}',
        "offset 19: expected '-second '",
    ),
    "clip-captions-too-many-digits": (
        "clip_captions", "report",
        '{"video_id": "VID01", "start_frame": 16, '
        f'"text": "First, during the {"9" * 4301}-second preparation phase, no instrument is active."}}',
        "offset 18: duration has too many digits",
    ),
    "clip-captions-longer-than-a-clip": (
        "clip_captions", "report",
        '{"video_id": "VID01", "start_frame": 16, '
        '"text": "First, during the 1000000000000-second preparation phase, no instrument is active."}',
        "clip caption durations sum to 1000000000000 seconds, more than windowing.size 32",
    ),
    "clip-captions-segments-longer-than-a-clip": (
        "clip_captions", "report",
        '{"video_id": "VID01", "start_frame": 16, '
        '"text": "First, during the 20-second preparation phase, no instrument is active. '
        'Then, during the 13-second clipping-and-cutting phase, no instrument is active."}',
        "clip caption durations sum to 33 seconds, more than windowing.size 32",
    ),
    "embeddings-missing-field": (
        "embeddings", "evaluate",
        '{"key": "x"}',
        "missing field(s) ['dim', 'vectors']",
    ),
    "embeddings-string-vectors": (
        "embeddings", "evaluate",
        '{"key": "x", "dim": 32, "vectors": "x"}',
        "vectors must be a list, got str",
    ),
    "embeddings-dimension": (
        "embeddings", "evaluate",
        '{"key": "x", "dim": 32, "vectors": [[1.0, 0.0]]}',
        "embedding entry x: vectors must be nonzero rows of 32 numbers",
    ),
    **{
        f"embeddings-{name}": (
            "embeddings", "evaluate",
            '{"key": "x", "dim": 2, "vectors": [[1.0, 0.0], %s]}' % row,
            "embedding entry x: vectors must be nonzero rows of 2 numbers",
        )
        for name, row in [
            ("bool", "[true, 0.0]"), ("string", '["1.5", 0.0]'), ("ragged", "[1.0]"), ("number-row", "5"),
        ]
    },
    "embeddings-zero-norm": (
        "embeddings", "evaluate",
        '{"key": "x", "dim": 2, "vectors": [[1.0, 0.0], [0.0, 0.0]]}',
        "embedding entry x: vectors must be nonzero rows of 2 numbers",
    ),
    "embeddings-nan": (
        "embeddings", "evaluate",
        '{"key": "x", "dim": 2, "vectors": [[NaN, 1.0]]}',
        "embedding entry x: vectors must be finite",
    ),
    "embeddings-infinity": (
        "embeddings", "evaluate",
        '{"key": "x", "dim": 2, "vectors": [[1.0, 0.0], [-Infinity, 1.0]]}',
        "embedding entry x: vectors must be finite",
    ),
    "embeddings-mixed-dims": (
        "embeddings", "evaluate",
        '{"key": "x", "dim": 2, "vectors": [[1.0, 0.0]]}',
        "embedding entry x: dim 2 differs from the table's 32",
    ),
    "embeddings-not-an-object": (
        "embeddings", "evaluate",
        "[]",
        "record must be a JSON object",
    ),
}


def _replace_line(path, lineno, text):
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[lineno - 1] = text
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")


@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_bad_records_end_in_error_line(workspace, vocab, capsys, case):
    kind, command, bad_line, message = BAD_RECORDS[case]
    logits, _, config = _logits_workspace(workspace, vocab)
    tmp_path, _, annotations, out, _ = workspace
    assert main(["preprocess", "--config", config]) == 0
    generated = {
        name: tmp_path / f"generated_{name}.jsonl" for name in ("frame_captions", "clip_captions")
    }
    for name, path in generated.items():
        path.write_text((out / f"{name}.jsonl").read_text(encoding="utf-8"), encoding="utf-8")
    embeddings = tmp_path / "embeddings.jsonl"
    _embeddings_for_captions(generated.values(), embeddings)
    config = write_config(
        tmp_path / "config.yaml",
        paths={
            "annotations": str(annotations),
            "logits": str(logits),
            "output_dir": str(out),
            "embeddings": str(embeddings),
        },
        evaluate={f"generated_{name}": str(path) for name, path in generated.items()},
    )
    bad_file = {
        "annotations": annotations, "logits": logits, "embeddings": embeddings, **generated
    }[kind]
    if command == "report":
        bad_file = out / f"{kind}.jsonl"
    _replace_line(bad_file, 3, bad_line)
    capsys.readouterr()
    assert main([command, "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad_file}:3: ")
    assert message in err
    assert len(err.splitlines()) == 1


def test_embedding_with_a_vector_missing_names_file_and_key(workspace, capsys):
    tmp_path, _, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    captions = out / "frame_captions.jsonl"
    embeddings = tmp_path / "embeddings.jsonl"
    _embeddings_for_captions([captions], embeddings)
    tokens = tokenize(read_jsonl(captions)[0]["text"])
    table = EmbeddingTable.load(embeddings)
    table.put(tokens, deterministic_token_embeddings(tokens, dim=32, mode="basis")[:-1])
    table.save(embeddings)
    config = write_config(
        tmp_path / "config.yaml",
        paths={
            "annotations": str(annotations),
            "output_dir": str(out),
            "embeddings": str(embeddings),
        },
        evaluate={"generated_frame_captions": str(captions)},
    )
    capsys.readouterr()
    assert main(["evaluate", "--config", config]) == 1
    problem = f"{len(tokens)} tokens but {len(tokens) - 1} vectors"
    expected = f"error: {embeddings}: embedding entry {embedding_key(tokens)}: {problem}\n"
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("ratios", [[0.9, 0.1, 0.0], [1.0, 0.0, 0.0]])
def test_calibrate_on_empty_validation_split(workspace, vocab, capsys, ratios):
    logits_path, out, _ = _logits_workspace(workspace, vocab)
    tmp_path, _, annotations, _, _ = workspace
    config = write_config(
        tmp_path / "config.yaml",
        paths={
            "annotations": str(annotations),
            "logits": str(logits_path),
            "output_dir": str(out),
        },
        split={"ratios": ratios},
    )
    assert main(["calibrate", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err == f"error: split.ratios {ratios} leave no validation frames to calibrate on\n"
    assert not (out / "calibration.json").exists()


@pytest.mark.parametrize(
    "ratios",
    [[0.5, 0.5], [0.8, 0.1, 0.1, 0.0], 0.5, "0.8,0.1,0.1", [0.8, "0.1", 0.1], [True, 0, 0],
     [0.5, 0.5, 0.5], [1.2, -0.1, -0.1], [float("nan"), 0.5, 0.5]],
)
def test_bad_split_ratios_end_in_error_line(workspace, vocab, capsys, ratios):
    logits_path, out, _ = _logits_workspace(workspace, vocab)
    tmp_path, _, annotations, _, _ = workspace
    config = write_config(
        tmp_path / "config.yaml",
        paths={"annotations": str(annotations), "logits": str(logits_path), "output_dir": str(out)},
        split={"ratios": ratios},
    )
    assert main(["calibrate", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: split.ratios ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("kind", ["frame", "clip"])
@pytest.mark.parametrize("side", ["generated", "reference"])
def test_evaluate_rejects_a_repeated_caption_key(workspace, capsys, kind, side):
    tmp_path, _, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    files = {}
    for label in ("generated", "reference"):
        files[label] = tmp_path / f"{label}_{kind}_captions.jsonl"
        files[label].write_bytes((out / f"{kind}_captions.jsonl").read_bytes())
    # A row inserted as line 3 repeats the key of line 2 with other text, so
    # both files still hold the same set of keys.
    lines = files[side].read_text(encoding="utf-8").splitlines()
    repeated = {**json.loads(lines[1]), "text": json.loads(lines[2])["text"]}
    lines.insert(2, json.dumps(repeated))
    files[side].write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = write_config(
        tmp_path / "config.yaml",
        paths={"annotations": str(annotations), "output_dir": str(out)},
        evaluate={f"{label}_{kind}_captions": str(path) for label, path in files.items()},
    )
    assert main(["evaluate", "--config", config]) == 1
    key = (repeated["video_id"], repeated["frame" if kind == "frame" else "start_frame"])
    assert capsys.readouterr().err == (
        f"error: {files[side]}:3: {kind} caption {key} repeats an earlier row\n"
    )


def test_evaluate_caption_ids_that_differ_by_a_trailing_nul_are_two_keys(tmp_path):
    rows = [{"video_id": v, "frame": 0, "text": "the hook is idle"} for v in ("V", "V\0")]
    captions = tmp_path / "captions.jsonl"
    captions.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    config = write_config(
        tmp_path / "config.yaml",
        paths={"output_dir": str(tmp_path / "out")},
        evaluate={"generated_frame_captions": str(captions), "reference_frame_captions": str(captions)},
    )
    assert main(["evaluate", "--config", config]) == 0
    [row] = read_jsonl(tmp_path / "out" / "metrics.jsonl")
    assert row["bleu"] == row["rougeL"] == 1.0


def test_evaluate_reports_the_first_row_that_repeats_a_caption_key(workspace, capsys):
    tmp_path, _, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    lines = (out / "frame_captions.jsonl").read_text(encoding="utf-8").splitlines()
    # Line 4 repeats line 3's key; line 6, written after it, repeats line 1's, which sorts first.
    lines.insert(3, lines[2])
    lines.insert(5, lines[0])
    generated = tmp_path / "generated.jsonl"
    generated.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = write_config(
        tmp_path / "config.yaml",
        paths={"annotations": str(annotations), "output_dir": str(out)},
        evaluate={"generated_frame_captions": str(generated)},
    )
    assert main(["evaluate", "--config", config]) == 1
    row = json.loads(lines[2])
    key = (row["video_id"], row["frame"])
    assert capsys.readouterr().err == (
        f"error: {generated}:4: frame caption {key} repeats an earlier row\n"
    )


@pytest.mark.parametrize(
    "report, message",
    [
        ({"bogus": 1}, "unknown keys in config section 'report': ['bogus']"),
        (
            {"offline": False, "endpoint": {"base_url": "http://127.0.0.1:9", "model": "m",
                                            "max_attempts": 0}},
            "max_attempts",
        ),
        pytest.param(
            {"endpoint": [{"a": 1}]},
            "report.endpoint must be a mapping, got [{'a': 1}]",
            id="endpoint-list",
        ),
        pytest.param(
            {"endpoint": "abc"}, "report.endpoint must be a mapping, got 'abc'", id="endpoint-str"
        ),
        pytest.param(
            {"offline": False, "endpoint": {"base_url": "http://127.0.0.1:9"}},
            "missing required keys in config section 'report.endpoint': ['model']",
            id="endpoint-without-model",
        ),
        pytest.param(
            {"offline": False, "endpoint": {"model": "m", "timeout": 5}},
            "missing required keys in config section 'report.endpoint': ['base_url']",
            id="endpoint-without-base-url",
        ),
        *[
            pytest.param(
                {"offline": False, "endpoint": {"base_url": "http://127.0.0.1:9", "model": "m",
                                                "backoff_seconds": backoff}},
                f"backoff_seconds must be a finite number >= 0, got {backoff!r}",
                id=f"backoff-{backoff}",
            )
            for backoff in (-1, "0.5")
        ],
    ],
)
def test_bad_report_settings_end_in_error_line(workspace, monkeypatch, capsys, report, message):
    tmp_path, _, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    monkeypatch.setenv("SURGREPORT_API_KEY", "k")
    config = write_config(
        tmp_path / "config.yaml",
        paths={"annotations": str(annotations), "output_dir": str(out)},
        report=report,
    )
    capsys.readouterr()
    assert main(["report", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert len(err.splitlines()) == 1


def _endpoint(**fields):
    """A report section whose endpoint would fail fast if the run ever reached it."""
    endpoint = {"base_url": "http://127.0.0.1:9", "model": "m", "max_attempts": 1, **fields}
    return {"report": {"offline": False, "endpoint": endpoint}}


# (command, config sections over the workspace paths, flags, the one error line's message)
CONFIG_PROBES = {
    "threshold-abc": ("detect", {"detection": {"threshold": "abc"}}, [],
                      "detection.threshold must be a number in [0, 1], got 'abc'"),
    "threshold-true": ("detect", {"detection": {"threshold": True}}, [],
                       "detection.threshold must be a number in [0, 1], got True"),
    "threshold-nan": ("detect", {"detection": {"threshold": float("nan")}}, [],
                      "detection.threshold must be a number in [0, 1], got nan"),
    "mode-tanh": ("detect", {"detection": {"mode": "tanh"}}, [],
                  "detection.mode must be one of 'sigmoid', 'softmax', got 'tanh'"),
    "size-0": ("preprocess", {"windowing": {"size": 0}}, [],
               "windowing.size must be an integer >= 1, got 0"),
    "size-string": ("preprocess", {"windowing": {"size": "32"}}, [],
                    "windowing.size must be an integer >= 1, got '32'"),
    "size-float": ("preprocess", {"windowing": {"size": 32.5}}, [],
                   "windowing.size must be an integer >= 1, got 32.5"),
    "stride-above-size": ("preprocess", {"windowing": {"size": 16, "stride": 32}}, [],
                          "windowing.stride must be an integer in [1, size], got 32"),
    "bins-0": ("calibrate", {"calibration": {"bins": 0}}, [],
               "calibration.bins must be an integer >= 1, got 0"),
    "t_lo-above-t_hi": ("calibrate", {"calibration": {"t_lo": 5, "t_hi": 1}}, [],
                        "calibration.t_hi must be a finite number > t_lo, got 1"),
    "granularity-clip": ("calibrate", {"split": {"granularity": "clip"}}, [],
                         "split.granularity must be one of 'frame', 'video', got 'clip'"),
    "seed-string": ("calibrate", {"split": {"seed": "abc"}}, [],
                    "split.seed must be an integer, got 'abc'"),
    "seed-float": ("calibrate", {"split": {"seed": 1.5}}, [],
                   "split.seed must be an integer, got 1.5"),
    "output_dir-int": ("preprocess", {"paths": {"output_dir": 5}}, [],
                       "paths.output_dir must be a string, got 5"),
    "offline-string": ("report", {"report": {"offline": "false"}}, [],
                       "report.offline must be true or false, got 'false'"),
    # Every command loads the whole config, so preprocess refuses it too.
    **{
        f"offline-false-{name}": (
            command, {"report": {"offline": False, **report}}, [],
            "report.endpoint must be an endpoint section, or null when offline is true, got None",
        )
        for name, command, report in [
            ("without-endpoint", "preprocess", {}),
            ("without-endpoint-report", "report", {}),
            ("empty-endpoint", "report", {"endpoint": {}}),
        ]
    },
    "parallelism-0": ("report", _endpoint(parallelism=0), [],
                      "report.endpoint.parallelism must be an integer >= 1, got 0"),
    "timeout-string": ("report", _endpoint(timeout="x"), [],
                       "report.endpoint.timeout must be a finite number > 0, got 'x'"),
    "base_url-int": ("report", _endpoint(base_url=5), [],
                     "report.endpoint.base_url must be a string, got 5"),
    "temperature-nan": ("report", _endpoint(temperature=float("nan")), [],
                        "report.endpoint.temperature must be a finite number, got nan"),
    "generated_frame_captions-int": (
        "evaluate", {"evaluate": {"generated_frame_captions": 5}}, [],
        "evaluate.generated_frame_captions must be a string or null, got 5",
    ),
    "epsilon": ("detect", {"detection": {"epsilon": 1e-6}}, [],
                "unknown keys in config section 'detection': ['epsilon']"),
    "flag-threshold-nan": ("detect", {}, ["--threshold", "nan"],
                           "detection.threshold must be a number in [0, 1], got nan"),
    "flag-threshold-above-1": ("detect", {}, ["--threshold", "1.5"],
                               "detection.threshold must be a number in [0, 1], got 1.5"),
    # Relative paths name files in the workspace, the working directory of the probe.
    "vocabulary-missing": ("preprocess", {"paths": {"vocabulary": "nope.yaml"}}, [],
                           "paths.vocabulary does not exist: nope.yaml"),
    "vocabulary-directory": ("preprocess", {"paths": {"vocabulary": "."}}, [],
                             "cannot read .: Is a directory"),
    "vocabulary-malformed": (
        "preprocess", {"paths": {"vocabulary": "malformed.yaml"}}, [],
        "malformed.yaml:2: not valid YAML: expected the node content, but found '<stream end>'",
    ),
    "vocabulary-instruments-5": ("report", {"paths": {"vocabulary": "instruments_5.yaml"}}, [],
                                 "vocabulary instruments must be a list of names, got 5"),
    # A string is the whole text of the probe config.
    "config-malformed": (
        "detect", "paths: [\n", [],
        "probe.yaml:2: not valid YAML: expected the node content, but found '<stream end>'",
    ),
    "output_dir-a-file": (
        "preprocess", {"paths": {"output_dir": "annotations.jsonl"}}, [],
        "paths.output_dir must name a directory, got 'annotations.jsonl': File exists",
    ),
    # Captions to score as well, so the missing logits cannot go unnoticed.
    "evaluate-logits-missing": (
        "evaluate",
        {"paths": {"logits": "nope.jsonl"},
         "evaluate": {"generated_frame_captions": "out/frame_captions.jsonl"}},
        [], "paths.logits does not exist: nope.jsonl",
    ),
}
PROBE_FILES = {"malformed.yaml": "instruments: [\n", "instruments_5.yaml": "instruments: 5\n"}


@pytest.mark.parametrize("case", list(CONFIG_PROBES))
def test_bad_config_value_is_one_error_line_at_load(workspace, vocab, monkeypatch, capsys, case):
    command, sections, flags, message = CONFIG_PROBES[case]
    logits_path, out, config = _logits_workspace(workspace, vocab)
    tmp_path, _, annotations, _, _ = workspace
    if command in ("report", "evaluate"):
        assert main(["preprocess", "--config", config]) == 0
    paths = {"annotations": str(annotations), "logits": str(logits_path), "output_dir": str(out)}
    if isinstance(sections, str):
        (tmp_path / "probe.yaml").write_text(sections, encoding="utf-8")
    else:
        write_config(
            tmp_path / "probe.yaml", **{**sections, "paths": {**paths, **sections.get("paths", {})}}
        )
    for name, text in PROBE_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    # A relative output_dir would land in the working directory, which is checked too.
    monkeypatch.chdir(tmp_path)
    probe = "probe.yaml"
    monkeypatch.setenv("SURGREPORT_API_KEY", "k")
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([command, "--config", probe, *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("temperature", [".nan", ".inf", "-.inf"])
def test_non_finite_endpoint_temperature_fails_at_load(workspace, monkeypatch, capsys, temperature):
    tmp_path, _, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    monkeypatch.setenv("SURGREPORT_API_KEY", "k")
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    with StubChatServer() as stub:
        probe = tmp_path / "probe.yaml"
        probe.write_text(
            f"paths: {{annotations: '{annotations}', output_dir: '{out}'}}\n"
            f"report: {{offline: false, endpoint: {{base_url: '{stub.url}', model: m,"
            f" temperature: {temperature}}}}}\n",
            encoding="utf-8",
        )
        capsys.readouterr()
        assert main(["report", "--config", str(probe)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: report.endpoint.temperature must be a finite number, got ")
    assert len(err.splitlines()) == 1
    assert (stub.requests, sleeps) == ([], [])
    assert not (out / "reports").exists()


_CALIBRATION_OUTPUTS = ["calibration.json", "reliability_bins_before.csv", "reliability_bins_after.csv"]


@pytest.mark.parametrize("failing", [2, 3])
def test_failed_calibrate_write_leaves_each_output_whole(workspace, vocab, monkeypatch, capsys, failing):
    _, out, config = _logits_workspace(workspace, vocab)

    def outputs(seed):
        assert main(["calibrate", "--config", config, "--seed", seed]) == 0
        return {name: (out / name).read_bytes() for name in _CALIBRATION_OUTPUTS}

    # The whole seed-2 outputs, then a seed-1 run that a failing seed-2 run replaces.
    seed2 = outputs("2")
    seed1 = outputs("1")
    assert all(seed1[name] != seed2[name] for name in _CALIBRATION_OUTPUTS)
    replace, calls = os.replace, []

    def failing_replace(src, dst):
        calls.append(dst)
        if len(calls) == failing:
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr("surgreport.jsonl.os.replace", failing_replace)
    capsys.readouterr()
    assert main(["calibrate", "--config", config, "--seed", "2"]) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    # The outputs are written in order: those before the failing write hold the
    # seed-2 bytes, the rest the seed-1 bytes, and no temporary file is left.
    assert [Path(dst).name for dst in calls] == _CALIBRATION_OUTPUTS[:failing]
    for index, name in enumerate(_CALIBRATION_OUTPUTS):
        assert (out / name).read_bytes() == (seed2 if index < failing - 1 else seed1)[name]
    assert sorted(out.glob(".*.tmp")) == []


_PREPROCESS_OUTPUTS = [
    "frame_captions.jsonl", "clip_captions.jsonl", "clip_manifest.jsonl", "phase_durations.csv"
]


@pytest.mark.parametrize(
    "synthesizer, replaced",
    [("synthesize_frame_caption", 0), ("synthesize_clip_caption", 1)],
)
def test_failed_preprocess_synthesis_leaves_each_output_whole(
    workspace, vocab, monkeypatch, capsys, synthesizer, replaced
):
    tmp_path, _, annotations, out, config = workspace
    assert main(["preprocess", "--config", config]) == 0
    old = {name: (out / name).read_bytes() for name in _PREPROCESS_OUTPUTS}
    (out / "preprocess.manifest.json").unlink()
    # Longer videos, so every output differs; their whole outputs go to another directory.
    write_annotations(annotations, make_corpus(vocab, n_videos=2, n_frames=96, seed=4), vocab)
    other = tmp_path / "other"
    other_config = write_config(
        tmp_path / "other.yaml", paths={"annotations": str(annotations), "output_dir": str(other)}
    )
    assert main(["preprocess", "--config", other_config]) == 0
    new = {name: (other / name).read_bytes() for name in _PREPROCESS_OUTPUTS}
    assert all(old[name] != new[name] for name in _PREPROCESS_OUTPUTS)

    # Synthesis runs while its captions are written; the third call fails.
    synthesize, calls = getattr(surgreport.cli, synthesizer), []

    def failing(*args):
        calls.append(args)
        if len(calls) == 3:
            raise OSError("disk full")
        return synthesize(*args)

    monkeypatch.setattr(surgreport.cli, synthesizer, failing)
    capsys.readouterr()
    assert main(["preprocess", "--config", config]) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    # Outputs before the failing one hold their whole new bytes, the rest their old ones.
    for index, name in enumerate(_PREPROCESS_OUTPUTS):
        assert (out / name).read_bytes() == (new if index < replaced else old)[name], name
    assert sorted(out.glob(".*.tmp")) == []
    assert not (out / "preprocess.manifest.json").exists()


# Input files a mutation is applied to, and the commands that read each one.
_READERS = {
    "annotations.jsonl": ["preprocess", "calibrate", "evaluate"],
    "logits.jsonl": ["detect", "calibrate", "evaluate"],
    "generated_frame_captions.jsonl": ["evaluate"],
    "reference_frame_captions.jsonl": ["evaluate"],
    "generated_clip_captions.jsonl": ["evaluate"],
    "reference_clip_captions.jsonl": ["evaluate"],
}
_OTHER_VALUES = [None, True, -1, 2**63 - 1, 1.5, "", "x", "16", [], ["x"], [1.0], {}, {"a": 1}]
_BAD_BYTES = [b"\x80", b"\xff", b"\xc3", b"\xe2\x80", b"\xf0\x9f\x98", b"\xed\xa0\x80"]


@pytest.fixture(scope="module")
def mutation_inputs(tmp_path_factory, vocab):
    """The bytes of each input file of a small corpus that every command accepts."""
    root = tmp_path_factory.mktemp("inputs")
    records = make_corpus(vocab, n_videos=2, n_frames=80, seed=3)
    write_annotations(root / "annotations.jsonl", records, vocab)
    write_logits(root / "logits.jsonl", make_logits(records, vocab, seed=5))
    config = write_config(
        root / "config.yaml",
        paths={"annotations": str(root / "annotations.jsonl"), "output_dir": str(root)},
    )
    with redirect_stdout(StringIO()):
        assert main(["preprocess", "--config", config]) == 0
    inputs = {name: (root / name).read_bytes() for name in ("annotations.jsonl", "logits.jsonl")}
    for kind in ("frame", "clip"):
        for side in ("generated", "reference"):
            inputs[f"{side}_{kind}_captions.jsonl"] = (root / f"{kind}_captions.jsonl").read_bytes()
    return inputs


@st.composite
def _mutations(draw, inputs):
    """(file name, its mutated bytes, command that reads it)."""
    name = draw(st.sampled_from(sorted(_READERS)))
    data = inputs[name]
    lines = data.splitlines(keepends=True)
    at = draw(st.integers(0, len(lines) - 1))
    kinds = ["drop-field", "retype-field", "bad-byte", "cut-last-line", "duplicate-row"]
    kind = draw(st.sampled_from(kinds + (["non-finite-logit"] if name == "logits.jsonl" else [])))
    if kind == "bad-byte":
        offset = draw(st.integers(0, len(data)))
        data = data[:offset] + draw(st.sampled_from(_BAD_BYTES)) + data[offset:]
    elif kind == "cut-last-line":
        last = len(data) - len(lines[-1])
        data = data[: draw(st.integers(last, len(data) - 1))]
    elif kind == "duplicate-row":
        lines.insert(draw(st.integers(0, len(lines))), lines[at])
        data = b"".join(lines)
    else:
        record = json.loads(lines[at])
        key = draw(st.sampled_from(sorted(record)))
        if kind == "drop-field":
            del record[key]
        elif kind == "retype-field":
            record[key] = draw(st.sampled_from(_OTHER_VALUES))
        else:
            logits = record["logits"]
            logits[draw(st.integers(0, len(logits) - 1))] = draw(
                st.sampled_from([float("nan"), float("inf"), float("-inf")])
            )
        lines[at] = (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")
        data = b"".join(lines)
    return name, data, draw(st.sampled_from(_READERS[name]))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mutated_input_records_end_in_exit_0_or_one_error_line(
    tmp_path_factory, mutation_inputs, data
):
    name, mutated, command = data.draw(_mutations(mutation_inputs))
    root = tmp_path_factory.mktemp("mutated")
    for file, content in mutation_inputs.items():
        (root / file).write_bytes(mutated if file == name else content)
    out = root / "out"
    config = write_config(
        root / "config.yaml",
        paths={
            "annotations": str(root / "annotations.jsonl"),
            "logits": str(root / "logits.jsonl"),
            "output_dir": str(out),
        },
        evaluate={
            f"{side}_{kind}_captions": str(root / f"{side}_{kind}_captions.jsonl")
            for side in ("generated", "reference")
            for kind in ("frame", "clip")
        },
    )
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        status = main([command, "--config", config])
    lines = err.getvalue().splitlines()
    assert (status, lines) == (0, []) or (
        status == 1 and len(lines) == 1 and lines[0].startswith("error: ")
    ), err.getvalue()
    assert sorted(root.rglob(".*.tmp")) == []
