"""The surgreport benchmark: batch CLI workloads on deterministic synthetic corpora.

    python3 bench/run.py --workload caption_eval --seed 1 --seconds 25 --trace 0

Each workload runs its CLI commands the way a user does: every command is
its own ``python -m surgreport.cli <cmd> --config config.yaml`` process,
one at a time (a closed loop with one client), in the workload directory
with relative paths in the config. The command sequence repeats until the
run's seconds are spent; timings are medians over the sequences.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics (``setup_s``, ``wall_s``, ``peak_rss_mb``). With
``--trace 1`` the run also repeats the sequence through ``bench/tracer.py``
and reports the per-layer metrics instead. Every output is checked (see
``bench/checks.py``); results with digests and input properties go to
``.bench_work/results/``.

This launcher imports no numpy and never holds the corpus, which is
generated in a process of its own: a child's peak RSS (``ru_maxrss``)
includes the RSS its parent had when it was spawned.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
from stub import ChatStub

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

COMMANDS = ("preprocess", "detect", "calibrate", "evaluate", "report")
# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "caption_eval": ("evaluate",),
    "detect_calibrate": ("detect", "calibrate", "evaluate"),
    "preprocess_report": ("preprocess", "report"),
}
SETUPS = 3  # set-ups per untraced run; setup_s is their median
MIN_SEQUENCES = 5  # per untraced run; a traced run makes at least two of each kind
RUN_LIMIT_S = 150  # no sequence starts that would end after this
KILL_AFTER_S = 170  # a process still running this long into the run is killed

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics: name -> unit. `_s` metrics are self times.
PER_LAYER = {
    "cli.import_s": "s",
    **{f"cli.{c}_s": "s" for c in COMMANDS},
    **{f"cli.{c}_self_s": "s" for c in COMMANDS},
    **{f"cli.{c}_rss_mb": "MB" for c in COMMANDS},
    "dataset.load_s": "s", "dataset.load_calls": "count", "dataset.frames": "count",
    "dataset.split_s": "s",
    "jsonl.read_s": "s", "jsonl.records_read": "count",
    "jsonl.write_s": "s", "jsonl.records_written": "count",
    "windowing.window_s": "s", "windowing.clips": "count",
    "captions.frame_synth_s": "s", "captions.clip_synth_s": "s", "captions.write_s": "s",
    "captions.read_s": "s", "captions.parse_s": "s", "captions.parse_calls": "count",
    "detection.read_logits_s": "s", "detection.logits_rows": "count",
    "detection.squash_s": "s", "detection.squash_calls": "count",
    "detection.threshold_s": "s", "detection.threshold_calls": "count",
    "detection.truth_bits_s": "s", "detection.truth_bits_calls": "count",
    "detection.write_s": "s", "detection.rows_written": "count",
    "calibration.fit_s": "s", "calibration.nll_s": "s", "calibration.nll_calls": "count",
    "metrics.caption_frame_s": "s", "metrics.caption_clip_s": "s",
    "metrics.tokenize_s": "s", "metrics.tokenize_calls": "count",
    "metrics.bleu_s": "s", "metrics.rouge_s": "s",
    "metrics.lcs_s": "s", "metrics.lcs_calls": "count", "metrics.ngram_calls": "count",
    "metrics.bertscore_s": "s", "metrics.classification_s": "s", "metrics.ap_s": "s",
    "embeddings.load_s": "s", "embeddings.get_s": "s", "embeddings.lookups": "count",
    "embeddings.hits": "ratio",
    "report.merge_s": "s", "report.merge_calls": "count", "report.offline_s": "s",
    "report.write_s": "s", "report.prompt_s": "s", "report.llm_s": "s",
    "report.fanout_s": "s",
    "report.llm_requests": "count", "report.llm_retries": "count", "report.llm_failed": "count",
    "trace.overhead_s": "s",
}


class Workload:
    """One workload's directory, config, facts for the checks, and the endpoint stub."""

    def __init__(self, name: str, seed: int, smoke: bool, stub: ChatStub | None):
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.stub = stub
        self.commands = WORKLOADS[name]
        self.dir = WORK / (f"{name}-smoke" if smoke else name)
        self.out = self.dir / "out"
        self.logs = self.dir / "logs"
        self.facts: dict = {}
        self.phases: dict[str, list[int]] = {}
        self.scopes = (
            ["frame_captions", "clip_captions"] if name == "caption_eval" else ["detection"]
        )
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.started = time.perf_counter()
        if stub is not None:
            self.env["SURGREPORT_API_KEY"] = "bench-dummy-credential"

    def setup(self) -> float:
        """Generate the inputs and write the config; returns the wall time."""
        start = time.perf_counter()
        shutil.rmtree(self.dir, ignore_errors=True)
        cmd = [sys.executable, str(BENCH / "corpus.py"), "--workload", self.name,
               "--seed", str(self.seed), "--out", str(self.dir)]
        if self.smoke:
            cmd.append("--smoke")
        subprocess.run(cmd, env=self.env, check=True, timeout=self.time_left())
        (self.dir / "config.yaml").write_text(json.dumps(self.config(), indent=1) + "\n")
        return time.perf_counter() - start

    def config(self) -> dict:
        config: dict = {"paths": {"output_dir": "out"}}
        if self.name == "caption_eval":
            config["paths"]["embeddings"] = "embeddings.jsonl"
            config["evaluate"] = {
                f"{role}_{scope}_captions": f"{scope}_captions.{role[:3]}.jsonl"
                for role in ("generated", "reference")
                for scope in ("frame", "clip")
            }
        else:
            config["paths"]["annotations"] = "annotations.jsonl"
        if self.name == "detect_calibrate":
            config["paths"]["logits"] = "logits.jsonl"
        if self.stub is not None:
            config["report"] = {
                "offline": False,
                "endpoint": {"base_url": self.stub.url, "model": "bench-stub",
                             "parallelism": 2, "backoff_seconds": 0.005},
            }
        return config

    def time_left(self) -> float:
        return max(1.0, self.started + KILL_AFTER_S - time.perf_counter())

    def load_facts(self) -> None:
        self.facts = json.loads((self.dir / "inputs.json").read_text())
        if "preprocess" in self.commands:
            self.phases = checks.frame_phases(
                self.dir / "annotations.jsonl", self.facts["phase_names"]
            )

    def input_digests(self) -> dict[str, str]:
        return {p.name: sha256(p) for p in sorted(self.dir.iterdir()) if p.is_file()}

    def check(self, command: str) -> list[str]:
        if command == "preprocess":
            return checks.check_preprocess(self.out, self.facts, self.phases)
        if command == "detect":
            return checks.check_detect(self.out, self.dir / "logits.jsonl", self.facts)
        if command == "calibrate":
            return checks.check_calibrate(self.out, self.facts)
        if command == "evaluate":
            return checks.check_evaluate(self.out, self.scopes)
        return checks.check_report(self.out, self.facts)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_files(out: Path) -> set[str]:
    if not out.exists():
        return set()
    return {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}


def spawn(cmd: list[str], ws: Workload, log_name: str) -> tuple[float, float, int]:
    """Run one process to exit; returns (wall seconds, peak RSS in MB, exit code)."""
    ws.logs.mkdir(exist_ok=True)
    with open(ws.logs / f"{log_name}.stdout", "wb") as out, open(
        ws.logs / f"{log_name}.stderr", "wb"
    ) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ws.dir, env=ws.env, stdout=out, stderr=err)
        watchdog = threading.Timer(ws.time_left(), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


class Run:
    """The command sequences of one run, with their checks and failure counts."""

    def __init__(self, ws: Workload):
        self.ws = ws
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, dict[str, str]] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def command(self, command: str, traced: bool, index: int) -> dict:
        ws = self.ws
        before = output_files(ws.out)
        tag = f"{command}.{'traced' if traced else 'plain'}.{index}"
        trace_path = ws.logs / f"{tag}.trace.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(trace_path)]
        else:
            cmd = [sys.executable, "-m", "surgreport.cli"]
        wall, rss, code = spawn(cmd + [command, "--config", "config.yaml"], ws, tag)
        record = {"command": command, "seconds": wall, "rss_mb": rss, "exit_code": code}
        if ws.stub is not None and command == "report":
            record["endpoint"] = ws.stub.reset()
        self.attempted += 1
        if code != 0:
            err = (ws.logs / f"{tag}.stderr").read_text(errors="replace").strip()
            self.fail(f"{command} exited {code}: {err.splitlines()[-1] if err else ''}")
        else:
            written = output_files(ws.out) - before
            expected = checks.expected_outputs(command, ws.facts)
            digests = {name: sha256(ws.out / name) for name in sorted(written)}
            if written != expected:
                self.fail(f"{command} wrote {sorted(written ^ expected)} unexpectedly")
            elif command not in self.digests:
                problems = ws.check(command)
                if problems:
                    self.fail(f"{command}: {problems[0]}")
                self.digests[command] = digests
            elif digests != self.digests[command]:
                changed = sorted(k for k in digests if digests[k] != self.digests[command].get(k))
                self.fail(f"{command} output differs from its first run: {changed[:3]}")
        if command == "report" and ws.stub is not None:
            videos = ws.facts["videos"]
            self.attempted += len(videos)
            missing = [v for v in videos if not (ws.out / "reports" / f"{v}.llm.txt").exists()]
            if missing:
                self.fail(f"no endpoint report for {len(missing)} videos, e.g. {missing[0]}")
        if traced and trace_path.exists():
            record["trace"] = json.loads(trace_path.read_text())
            trace_path.unlink()
        return record

    def sequences(self, seconds: float, kinds: tuple[bool, ...], minimum: int) -> dict[bool, list]:
        """Repeat the command sequence, alternating between `kinds` (traced or not),
        until `seconds` are spent and each kind has `minimum` sequences."""
        done: dict[bool, list[list[dict]]] = {kind: [] for kind in kinds}
        begin = time.perf_counter()
        for i in itertools.count():
            traced = kinds[i % len(kinds)]
            shutil.rmtree(self.ws.out, ignore_errors=True)
            failed_before = self.failed
            seq = [self.command(c, traced, i) for c in self.ws.commands]
            done[traced].append(seq)
            if self.failed > failed_before:
                break
            now, last = time.perf_counter(), sequence_wall(seq)
            if now - self.ws.started + last > RUN_LIMIT_S:
                break
            if min(map(len, done.values())) >= minimum and now - begin + last > seconds:
                break
        return done


def median(values):
    return statistics.median(values) if values else 0.0


def per_command(sequences: list[list[dict]], key: str) -> dict[str, float]:
    commands = [r["command"] for r in sequences[0]]
    return {c: median([seq[i][key] for seq in sequences]) for i, c in enumerate(commands)}


def sequence_wall(seq: list[dict]) -> float:
    return sum(r["seconds"] for r in seq)


def end_to_end(sequences, setup_times) -> dict[str, float]:
    return {
        "setup_s": median(setup_times),
        "wall_s": median([sequence_wall(seq) for seq in sequences]),
        "peak_rss_mb": median([max(r["rss_mb"] for r in seq) for seq in sequences]),
    }


# Layers whose call count is a per-layer metric, `<layer>_calls`.
CALL_COUNTS = ("dataset.load", "captions.parse", "detection.squash", "detection.threshold",
               "detection.truth_bits", "calibration.nll", "metrics.tokenize", "metrics.lcs",
               "metrics.ngram", "report.merge")


def sequence_layers(seq: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced sequence: sums over its commands."""
    m: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        m[name] = m.get(name, 0.0) + value

    for record in seq:
        trace, endpoint = record["trace"], record.get("endpoint", {})
        for name, value in trace["self_s"].items():
            add(f"{name}_self_s" if name.startswith("cli.") else f"{name}_s", value)
        for name in CALL_COUNTS:
            add(f"{name}_calls", trace["calls"].get(name, 0))
        add("embeddings.lookups", trace["calls"].get("embeddings.get", 0))
        for name, value in trace["counters"].items():
            add(name, value)
        add("report.fanout_s", trace["async_s"].get("cli.report", 0.0))
        add("report.llm_requests", endpoint.get("requests", 0))
        add("report.llm_retries", endpoint.get("retries", 0))
    hits, lookups = m.pop("embeddings.hit_count", 0), m["embeddings.lookups"]
    m["embeddings.hits"] = hits / lookups if lookups else 0.0
    m["cli.import_s"] = median([r["trace"]["import_s"] for r in seq])
    return m


def layer_metrics(plain, traced) -> dict[str, float]:
    """Medians over traced sequences; command times and RSS from the untraced ones."""
    per_seq = [sequence_layers(seq) for seq in traced]
    metrics = {name: median([m.get(name, 0.0) for m in per_seq]) for name in PER_LAYER}
    metrics["trace.overhead_s"] = median(list(map(sequence_wall, traced))) - median(
        list(map(sequence_wall, plain))
    )
    for c, value in per_command(plain, "seconds").items():
        metrics[f"cli.{c}_s"] = value
    for c, value in per_command(plain, "rss_mb").items():
        metrics[f"cli.{c}_rss_mb"] = value
    return metrics


def command_breakdown(traced) -> dict:
    """Self time per layer within each traced command, medians over sequences."""
    out: dict[str, dict[str, float]] = {}
    for i, record in enumerate(traced[0]):
        names = set().union(*(seq[i]["trace"]["self_s"] for seq in traced))
        out[record["command"]] = {
            name: median([seq[i]["trace"]["self_s"].get(name, 0.0) for seq in traced])
            for name in sorted(names)
        }
    return out


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "surgreport").rglob("*.py"))
    )


def without_traces(sequences: list[list[dict]]) -> list[list[dict]]:
    return [[{k: v for k, v in r.items() if k != "trace"} for r in seq] for seq in sequences]


def run(args) -> dict:
    stub = ChatStub() if args.workload == "preprocess_report" else None
    with stub if stub is not None else contextlib.nullcontext():
        ws = Workload(args.workload, args.seed, args.smoke, stub)
        setup_times, input_digests = [], []
        for _ in range(1 if args.trace else SETUPS):
            setup_times.append(ws.setup())
            input_digests.append(ws.input_digests())
        ws.load_facts()
        runner = Run(ws)
        if any(d != input_digests[0] for d in input_digests):
            runner.fail("set-up wrote different inputs for the same seed")
        # Traced and untraced sequences alternate, so drift in the machine's speed
        # does not bias the tracing overhead.
        kinds = (False, True) if args.trace else (False,)
        done = runner.sequences(args.seconds, kinds, 2 if args.trace else MIN_SEQUENCES)
        plain, traced = done[False], done.get(True, [])
    metrics = end_to_end(plain, setup_times)
    metrics["failed_frac"] = runner.failed / runner.attempted
    for command, value in per_command(plain, "seconds").items():
        metrics[f"{command}_s"] = value
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "end_to_end": metrics,
        "setup_times_s": setup_times,
        "inputs": {k: v for k, v in ws.facts.items() if k not in ("class_names", "phase_names")},
        "input_sha256": input_digests[0],
        "output_sha256": runner.digests,
        "src_lines": src_lines(),
        "launcher_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sequences": without_traces(plain),
    }
    if traced and runner.failed == 0:
        result["per_layer"] = layer_metrics(plain, traced)
        result["per_command_self_s"] = command_breakdown(traced)
        result["traced_sequences"] = without_traces(traced)
        result["spans"] = [r["trace"]["spans"] for r in traced[0]]
    return result


def report(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"sequences {len(result['sequences'])}  src_lines {result['src_lines']}")
    units = {**END_TO_END, "failed_frac": "ratio", **{f"{c}_s": "s" for c in COMMANDS}}
    for name, value in result["end_to_end"].items():
        print(f"  {name:<28} {value:.6g} {units[name]}")
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:<28} {value:.6g} {PER_LAYER[name]}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def bench(args: argparse.Namespace) -> None:
    """Run one workload, write its results file and print its metrics."""
    result = run(args)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (results_dir / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    print(f"  results: {(results_dir / f'{name}.json').relative_to(ROOT)}")
    wanted = result.get("per_layer", {}) if args.trace else result["end_to_end"]
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": wanted.get(k, 0.0), "unit": u} for k, u in units.items()},
    }), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description="surgreport benchmark")
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args()
    if not (SRC / "surgreport" / "cli.py").is_file():
        print(f"error: no surgreport sources under {SRC}", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        bench(argparse.Namespace(**{**vars(args), "workload": workload}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
