"""Run one CLI command with timing wrappers on the package's public functions.

    python bench/tracer.py TRACE.json <command> --config config.yaml

Times ``import surgreport.cli`` in this fresh interpreter, installs the
wrappers in ``PLAN``, calls ``surgreport.cli.main`` and, at exit, writes the
spans and the per-layer totals to TRACE.json. The program itself is not
changed: every span is recorded around a call into a layer, from outside.

A layer's self time is its span time minus the time its child spans cover.
Calls made from worker threads (the report endpoint fan-out) are children of
the span the main thread has open; the union of their intervals is
subtracted, so overlapping children are not counted twice.
"""

from __future__ import annotations

import importlib
import itertools
import json
import resource
import sys
import threading
import time

SPAN = "span"  # timed, and recorded as a span
TALLY = "tally"  # timed, but only totalled: for per-item calls, to keep spans few
COUNT = "count"  # counted only: for calls made more than ~100k times

# (module, attribute, layer name, kind). `cli`, `captions`, `detection`,
# `embeddings` and `windowing` bind helpers with from-imports, so each
# function is patched where its caller looks it up.
PLAN = [
    *[("surgreport.cli", f"cmd_{c}", f"cli.{c}", SPAN)
      for c in ("preprocess", "detect", "calibrate", "evaluate", "report")],
    ("surgreport.cli", "load_annotations", "dataset.load", SPAN),
    ("surgreport.cli", "split_dataset", "dataset.split", SPAN),
    *[(f"surgreport.{m}", "read_jsonl", "jsonl.read", SPAN)
      for m in ("jsonl", "captions", "detection", "embeddings")],
    *[(f"surgreport.{m}", "write_jsonl", "jsonl.write", SPAN)
      for m in ("jsonl", "cli", "captions", "detection", "embeddings", "windowing")],
    ("surgreport.cli", "window_video", "windowing.window", SPAN),
    ("surgreport.cli", "synthesize_frame_caption", "captions.frame_synth", TALLY),
    ("surgreport.cli", "synthesize_clip_caption", "captions.clip_synth", TALLY),
    ("surgreport.cli", "write_frame_captions", "captions.write", SPAN),
    ("surgreport.cli", "write_clip_captions", "captions.write", SPAN),
    ("surgreport.cli", "read_frame_captions", "captions.read", SPAN),
    ("surgreport.cli", "read_clip_captions", "captions.read", SPAN),
    ("surgreport.captions", "parse_clip_caption", "captions.parse", TALLY),
    ("surgreport.cli", "read_logits", "detection.read_logits", SPAN),
    ("surgreport.cli", "probabilities_from_logits", "detection.squash", TALLY),
    ("surgreport.cli", "threshold_detect", "detection.threshold", TALLY),
    ("surgreport.cli", "truth_bits", "detection.truth_bits", TALLY),
    ("surgreport.cli", "write_detections", "detection.write", SPAN),
    ("surgreport.cli", "fit_temperature", "calibration.fit", SPAN),
    ("surgreport.calibration", "nll", "calibration.nll", TALLY),
    ("surgreport.cli", "aggregate_caption_metrics", "metrics.caption_{scope}", SPAN),
    ("surgreport.metrics", "tokenize", "metrics.tokenize", TALLY),
    ("surgreport.metrics", "bleu", "metrics.bleu", TALLY),
    ("surgreport.metrics", "rouge", "metrics.rouge", TALLY),
    ("surgreport.metrics", "lcs_length", "metrics.lcs", TALLY),
    ("surgreport.metrics", "ngram_counts", "metrics.ngram", COUNT),
    ("surgreport.metrics", "bertscore", "metrics.bertscore", TALLY),
    ("surgreport.cli", "classification_metrics", "metrics.classification", SPAN),
    ("surgreport.cli", "average_precision", "metrics.ap", SPAN),
    ("surgreport.embeddings:EmbeddingTable", "load", "embeddings.load", SPAN),
    ("surgreport.embeddings:EmbeddingTable", "get", "embeddings.get", TALLY),
    ("surgreport.cli", "merge_timeline", "report.merge", SPAN),
    ("surgreport.report", "merge_timeline", "report.merge", SPAN),
    ("surgreport.cli", "offline_report", "report.offline", SPAN),
    ("surgreport.cli", "write_report", "report.write", SPAN),
    ("surgreport.cli", "render_prompt", "report.prompt", SPAN),
    ("surgreport.cli", "llm_generate", "report.llm", SPAN),
]

# Work counts taken from a layer's results: layer name -> result -> {counter: n}.
COUNTERS = {
    "dataset.load": lambda r: {"dataset.frames": sum(len(v) for v in r)},
    "jsonl.read": lambda r: {"jsonl.records_read": len(r)},
    "jsonl.write": lambda r: {"jsonl.records_written": r},
    "windowing.window": lambda r: {"windowing.clips": len(r)},
    "detection.read_logits": lambda r: {"detection.logits_rows": len(r)},
    "detection.write": lambda r: {"detection.rows_written": r},
    "embeddings.get": lambda r: {"embeddings.hit_count": int(r is not None)},
}


def union_ns(intervals: list[tuple[int, int]]) -> int:
    total, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


class _ThreadState:
    def __init__(self) -> None:
        # Open calls: [name, start_ns, child_ns, span_id, worker-thread child intervals].
        self.stack: list[list] = []
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._main = self._state()
        self._ids = itertools.count(1)
        self._counts: dict[str, itertools.count] = {}
        self.spans: list[tuple] = []
        self.async_ns: dict[str, int] = {}
        self.scope = "unknown"

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def install(self) -> None:
        for target, attr, name, kind in PLAN:
            module_name, _, class_name = target.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, kind)))
                    continue
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, kind))
        cli = sys.modules["surgreport.cli"]
        caption_pairs = cli._caption_pairs

        def labelled(generated, reference, kind):
            self.scope = kind
            return caption_pairs(generated, reference, kind)

        cli._caption_pairs = labelled

    def wrap(self, fn, name: str, kind: str):
        if kind == COUNT:
            counter = self._counts.setdefault(name, itertools.count())

            def counted(*args, **kwargs):
                next(counter)
                return fn(*args, **kwargs)

            return counted
        count_work = COUNTERS.get(name)
        record_span = kind == SPAN

        def timed(*args, **kwargs):
            state = self._state()
            stack = state.stack
            parent = stack[-1] if stack else (
                None if state is self._main or not self._main.stack else self._main.stack[-1]
            )
            label = name.format(scope=self.scope) if "{" in name else name
            frame = [label, 0, 0, next(self._ids) if record_span else None, []]
            stack.append(frame)
            ok = False
            frame[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - frame[1]
                if frame[4]:
                    covered = union_ns(frame[4])
                    frame[2] += covered
                    self.async_ns[label] = self.async_ns.get(label, 0) + covered
                state.self_ns[label] = state.self_ns.get(label, 0) + duration - frame[2]
                state.calls[label] = state.calls.get(label, 0) + 1
                if not ok:
                    tallies = {label + "_failed": 1}
                else:
                    tallies = count_work(result) if count_work else {}
                for key, value in tallies.items():
                    state.counters[key] = state.counters.get(key, 0) + value
                if stack:
                    stack[-1][2] += duration
                elif parent is not None:
                    parent[4].append((frame[1], end))
                if record_span:
                    outer = parent[3] if parent is not None else None
                    parent_id = next((f[3] for f in reversed(stack) if f[3]), outer)
                    self.spans.append(
                        (frame[3], label, frame[1], end, parent_id, threading.get_ident())
                    )

        return timed

    def totals(self) -> dict:
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {name: next(c) for name, c in self._counts.items()}
        counters: dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, ns in state.self_ns.items():
                self_s[name] = self_s.get(name, 0.0) + ns / 1e9
            for name, n in state.calls.items():
                calls[name] = calls.get(name, 0) + n
            for name, n in state.counters.items():
                counters[name] = counters.get(name, 0) + n
        return {
            "self_s": self_s,
            "calls": calls,
            "counters": counters,
            "async_s": {name: ns / 1e9 for name, ns in self.async_ns.items()},
        }


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import surgreport.cli  # noqa: PLC0415  (the import is what is timed)

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = surgreport.cli.main(argv)
    record = {
        "exit_code": code,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **tracer.totals(),
        "spans": tracer.spans,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
