"""Correctness checks on the outputs of each CLI command.

Each check is cheap and uses none of the library code it checks: it reads
the files as plain JSON and recomputes the expected facts from the inputs.
A check returns a list of problems; an empty list means the outputs are right.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

# The windowing the benchmark configs use (the library default).
CLIP_SIZE = 32
CLIP_STRIDE = 16
CALIBRATION_TOLERANCE = 0.15
_SEGMENT = re.compile(r"(?:First|Then), during the (\d+)-second ([a-z-]+) phase, ")


def clip_starts(n_frames: int) -> range:
    return range(0, n_frames - CLIP_SIZE + 1, CLIP_STRIDE)


def expected_outputs(command: str, facts: dict) -> set[str]:
    """Files, relative to the output directory, that one command must write."""
    files = {
        "preprocess": {
            "frame_captions.jsonl",
            "clip_captions.jsonl",
            "clip_manifest.jsonl",
            "phase_durations.csv",
        },
        "detect": {"detections.jsonl"},
        "calibrate": {
            "calibration.json",
            "reliability_bins_before.csv",
            "reliability_bins_after.csv",
        },
        "evaluate": {"metrics.jsonl", "metrics.csv"},
        "report": {
            f"reports/{video}{suffix}{ext}"
            for video in facts["videos"]
            for suffix in ("", ".llm")
            for ext in (".txt", ".timeline.json")
        },
    }[command]
    return files | {f"{command}.manifest.json"}


def _jsonl(path: Path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def phase_runs(phases: list[int]) -> list[tuple[int, int]]:
    """(phase, length) of each maximal same-phase run."""
    runs: list[tuple[int, int]] = []
    for phase in phases:
        if runs and runs[-1][0] == phase:
            runs[-1] = (phase, runs[-1][1] + 1)
        else:
            runs.append((phase, 1))
    return runs


def frame_phases(annotations: Path, phase_names: list[str]) -> dict[str, list[int]]:
    """Per video, the phase index of every frame, from the annotation input."""
    index = {name: i for i, name in enumerate(phase_names)}
    by_video: dict[str, dict[int, int]] = {}
    for obj in _jsonl(annotations):
        by_video.setdefault(obj["video_id"], {})[obj["frame"]] = index[obj["phase"]]
    return {v: [frames[i] for i in range(len(frames))] for v, frames in by_video.items()}


def check_preprocess(out: Path, facts: dict, phases: dict[str, list[int]]) -> list[str]:
    problems = []
    frame_keys = {(o["video_id"], o["frame"]) for o in _jsonl(out / "frame_captions.jsonl")}
    if len(frame_keys) != facts["frames"] or len(frame_keys) != sum(map(len, phases.values())):
        problems.append(f"{len(frame_keys)} distinct frame captions for {facts['frames']} frames")
    names = facts["phase_names"]
    expected_clips = sum(len(clip_starts(n)) for n in facts["videos"].values())
    clips = 0
    for obj in _jsonl(out / "clip_captions.jsonl"):
        clips += 1
        start = obj["start_frame"]
        window = phases[obj["video_id"]][start : start + CLIP_SIZE]
        want = [(names[p], n) for p, n in phase_runs(window)]
        got = [(name, int(n)) for n, name in _SEGMENT.findall(obj["text"])]
        if got != want:
            problems.append(f"clip {obj['video_id']}@{start}: phases {got}, expected {want}")
            break
    if clips != expected_clips:
        problems.append(f"{clips} clip captions, expected {expected_clips}")
    return problems


def check_detect(out: Path, logits: Path, facts: dict) -> list[str]:
    """One row per logits row; detected classes are exactly those with z > 0."""
    names = facts["class_names"]
    rows = 0
    detections = _jsonl(out / "detections.jsonl")
    for z in _jsonl(logits):
        row = next(detections, None)
        if row is None:
            return [f"detections end after {rows} of {facts['logits_rows']} rows"]
        rows += 1
        if (row["video_id"], row["frame"]) != (z["video_id"], z["frame"]):
            return [f"row {rows} is {row['video_id']}@{row['frame']}, expected {z['video_id']}@{z['frame']}"]
        want = {names[c] for c, value in enumerate(z["logits"]) if value > 0}
        if set(row["detected"]) != want:
            return [f"{z['video_id']}@{z['frame']}: detected {row['detected']}, expected {sorted(want)}"]
    if next(detections, None) is not None:
        return [f"more detection rows than the {rows} logits rows"]
    return []


def check_calibrate(out: Path, facts: dict) -> list[str]:
    record = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
    problems = []
    fitted, true = record["temperature"], facts["temperature"]
    if not abs(fitted - true) <= CALIBRATION_TOLERANCE * true:
        problems.append(f"fitted temperature {fitted}, generated {true}")
    if not record["nll_after"] <= record["nll_before"]:
        problems.append(f"nll rose from {record['nll_before']} to {record['nll_after']}")
    return problems


def check_evaluate(out: Path, scopes: list[str]) -> list[str]:
    rows = {row["scope"]: row for row in _jsonl(out / "metrics.jsonl")}
    if sorted(rows) != sorted(scopes):
        return [f"scopes {sorted(rows)}, expected {sorted(scopes)}"]
    problems = []
    for scope, row in rows.items():
        for key, value in row.items():
            if isinstance(value, float) and not (math.isfinite(value) and -1e-9 <= value <= 1 + 1e-9):
                problems.append(f"{scope}.{key} = {value} is outside [0, 1]")
        bert = row["bert_f1"]
        if scope == "clip_captions" and bert is None:
            problems.append("no BERTScore on the clip scope")
        if scope == "frame_captions" and bert is not None:
            problems.append("a BERTScore on the frame scope, whose captions have no embeddings")
        if scope == "detection" and None in (row["f1"], row["ap_instruments"], row["ap_targets"]):
            problems.append("a detection metric is missing")
    return problems


def check_report(out: Path, facts: dict) -> list[str]:
    """Each timeline spans exactly the frames its clip windows cover."""
    problems = []
    for video, n_frames in sorted(facts["videos"].items()):
        starts = clip_starts(n_frames)
        span = starts[-1] + CLIP_SIZE if starts else 0
        for suffix in ("", ".llm"):
            sidecar = json.loads((out / "reports" / f"{video}{suffix}.timeline.json").read_text())
            total = sidecar["timeline"]["total_seconds"]
            if total != span:
                problems.append(f"{video}{suffix}: timeline covers {total} s, windows cover {span} s")
    return problems
