"""Smoke-sized self-test of the benchmark, so it cannot rot.

Runs every workload on tiny inputs, untraced and traced, with every output
check enforced and no timing gate; and shows that the checks reject wrong
outputs.

    python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_passes_every_check(workload, trace):
    proc = run_bench(BENCH.parent, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in listed)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "detect_calibrate", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def test_detect_check_rejects_a_wrong_detection(tmp_path):
    facts = {"class_names": ["a", "b"], "logits_rows": 2}
    logits = [{"video_id": "V", "frame": i, "logits": [0.5, -1.0]} for i in range(2)]
    write_jsonl(tmp_path / "logits.jsonl", logits)
    rows = [{"video_id": "V", "frame": i, "detected": ["a"]} for i in range(2)]
    write_jsonl(tmp_path / "detections.jsonl", rows)
    assert checks.check_detect(tmp_path, tmp_path / "logits.jsonl", facts) == []
    rows[1]["detected"] = ["a", "b"]
    write_jsonl(tmp_path / "detections.jsonl", rows)
    assert checks.check_detect(tmp_path, tmp_path / "logits.jsonl", facts)
    write_jsonl(tmp_path / "detections.jsonl", rows[:1])
    assert checks.check_detect(tmp_path, tmp_path / "logits.jsonl", facts)


def test_preprocess_check_rejects_a_wrong_phase_duration(tmp_path):
    phases = {"V": [0] * 20 + [1] * 20}
    facts = {"frames": 40, "videos": {"V": 40}, "phase_names": ["prep", "cut"]}
    write_jsonl(tmp_path / "frame_captions.jsonl",
                [{"video_id": "V", "frame": i, "text": ""} for i in range(40)])
    texts = [
        "First, during the 20-second prep phase, x. Then, during the 12-second cut phase, y.",
        "First, during the 16-second cut phase, y.",
    ]
    rows = [{"video_id": "V", "start_frame": 0, "text": texts[0]}]
    write_jsonl(tmp_path / "clip_captions.jsonl", rows)
    assert checks.check_preprocess(tmp_path, facts, phases) == []
    rows[0]["text"] = texts[1]
    write_jsonl(tmp_path / "clip_captions.jsonl", rows)
    assert checks.check_preprocess(tmp_path, facts, phases)


def test_evaluate_check_rejects_out_of_range_and_misplaced_bertscore(tmp_path):
    row = {"scope": "frame_captions", "bleu": 0.5, "bert_f1": None}
    write_jsonl(tmp_path / "metrics.jsonl", [row])
    assert checks.check_evaluate(tmp_path, ["frame_captions"]) == []
    write_jsonl(tmp_path / "metrics.jsonl", [{**row, "bleu": 1.5}])
    assert checks.check_evaluate(tmp_path, ["frame_captions"])
    write_jsonl(tmp_path / "metrics.jsonl", [{**row, "bert_f1": 0.9}])
    assert checks.check_evaluate(tmp_path, ["frame_captions"])
