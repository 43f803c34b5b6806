"""Command-line pipeline orchestration.

Each command is named once, in ``COMMANDS`` (name -> help line):
``surgreport <name>`` runs ``cmd_<name>(config, videos)``, which writes its
outputs and returns their paths, and ``main`` then writes
``<name>.manifest.json`` listing them. A command that fails writes no
manifest. Each command reads one YAML configuration file; selected fields
can be overridden with flags (flag > config > default). Outputs are
deterministic: rerunning a command on unchanged inputs produces
byte-identical files.

``preprocess`` and ``report`` do not load numpy. The names that only
``detect``, ``calibrate`` and ``evaluate`` use (numpy and the calibration,
detection, embeddings and metrics functions) are listed in ``_DEFERRED``:
each is imported and bound on first use, and those three commands bind them
all first with ``_bind_deferred``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import __version__
from .captions import (
    read_clip_captions,
    read_frame_captions,
    synthesize_clip_caption,
    synthesize_frame_caption,
    write_clip_captions,
    write_frame_captions,
)
from .config import PipelineConfig, config_hash, load_config, validate_paths
from .dataset import load_annotations, phase_duration_table, split_dataset
from .errors import ConfigError, EndpointError, RecordError, SurgReportError
from .jsonl import record_line, write_jsonl, write_text
from .report import (
    llm_generate, merge_timeline, offline_report, render_prompt, render_timeline, write_report
)
from .windowing import window_video, write_clip_manifest

# Name -> the module it comes from, for the names that load numpy.
_DEFERRED = {
    name: module
    for module, names in {
        "numpy": "np",
        ".calibration": "bins_csv calibration_record fit_temperature",
        ".detection": "probabilities_from_logits read_logits threshold_detect truth_bits write_detections",
        ".embeddings": "EmbeddingTable",
        ".metrics": "MetricReport aggregate_caption_metrics average_precision classification_metrics",
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    """Import a deferred name on first use; a value already bound here (a wrapper) stays."""
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(_DEFERRED[name], __package__)
    return globals().setdefault(name, module if name == "np" else getattr(module, name))


def _bind_deferred() -> None:
    for name in _DEFERRED:
        __getattr__(name)


log = logging.getLogger(__name__)

# Command name -> its help line; ``surgreport <name>`` runs ``cmd_<name>``.
COMMANDS = {
    "preprocess": "synthesize captions, clip manifest, and phase durations",
    "detect": "threshold external logits into detections",
    "calibrate": "fit the temperature on the validation split",
    "evaluate": "score captions and detections",
    "report": "assemble surgical reports",
}


def _write_manifest(config: PipelineConfig, command: str, outputs: list[Path]) -> None:
    manifest = {
        "artifact_version": __version__,
        "config_sha256": config_hash(config),
        "command": command,
        "outputs": sorted(p.name for p in outputs),
    }
    path = config.output_dir() / f"{command}.manifest.json"
    write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _make_output_dir(config: PipelineConfig) -> Path:
    """The output directory, made if missing; call it once the inputs are checked."""
    out = config.output_dir()
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file there, or a file among its parents
        raise ConfigError(
            f"paths.output_dir must name a directory, got {str(out)!r}: {exc.strerror}"
        ) from None
    return out


def _check_videos(videos: list[str], known) -> None:
    missing = [v for v in videos if v not in known]
    if missing:
        raise ConfigError(f"unknown video ids: {missing}")


def _load_records(config: PipelineConfig, videos: list[str] | None):
    validate_paths(config, ("annotations",))
    vocab = config.vocabulary()
    records = load_annotations(config.paths.annotations, vocab)
    if videos:
        _check_videos(videos, {r.video_id for r in records})
        records = [r for r in records if r.video_id in videos]
    if not records:
        raise ConfigError("no annotated videos to process")
    return records, vocab


def cmd_preprocess(config: PipelineConfig, videos: list[str] | None) -> list[Path]:
    """Write frame captions, clip captions, the clip manifest, and durations."""
    records, vocab = _load_records(config, videos)
    out = _make_output_dir(config)

    frame_captions = [
        synthesize_frame_caption(frame, vocab) for rec in records for frame in rec.frames
    ]
    clips = [
        clip
        for rec in records
        for clip in window_video(rec, config.windowing.size, config.windowing.stride)
    ]
    frames_by_video = {rec.video_id: rec.frames for rec in records}
    clip_captions = [
        synthesize_clip_caption(
            clip, [frames_by_video[clip.video_id][i] for i in clip.frame_indices], vocab
        )
        for clip in clips
    ]
    durations = phase_duration_table(records, vocab)

    outputs = [
        out / "frame_captions.jsonl",
        out / "clip_captions.jsonl",
        out / "clip_manifest.jsonl",
        out / "phase_durations.csv",
    ]
    write_frame_captions(outputs[0], frame_captions)
    write_clip_captions(outputs[1], clip_captions)
    write_clip_manifest(outputs[2], clips)
    lines = ["phase,frames,minutes"]
    lines += [f"{phase},{count},{minutes:.1f}" for phase, count, minutes in durations]
    write_text(outputs[3], "\n".join(lines) + "\n")
    log.info("preprocess: %d frames, %d clips", len(frame_captions), len(clips))
    return outputs


def cmd_detect(config: PipelineConfig, videos: list[str] | None) -> list[Path]:
    """Map logits to probabilities and thresholded detections."""
    _bind_deferred()
    validate_paths(config, ("logits",))
    vocab = config.vocabulary()
    table = read_logits(config.paths.logits)
    if videos:
        _check_videos(videos, set(table.video_ids.tolist()))
        table = table.select(np.isin(table.video_ids, videos))
    if not len(table):
        raise ConfigError("no logits records to process")
    probs = probabilities_from_logits(table.values, config.detection.mode)
    detected = threshold_detect(probs, config.detection.threshold)
    path = _make_output_dir(config) / "detections.jsonl"
    write_detections(path, table, probs, detected, vocab)
    return [path]


def _truth_matrix(records, keys: list, vocab) -> np.ndarray:
    """Truth bits of the annotated frame behind each (video_id, frame) key, one row per key."""
    frames = {(rec.video_id, f.frame_index): f for rec in records for f in rec.frames}
    missing = [key for key in keys if key not in frames]
    if missing:
        raise ConfigError(f"logits rows without annotations, e.g. {missing[:3]}")
    # One preallocated (N, K) matrix, each row filled as its bits are made.
    row = np.dtype((float, len(vocab.detection_classes)))
    return np.fromiter((truth_bits(frames[key], vocab) for key in keys), row, count=len(keys))


def cmd_calibrate(config: PipelineConfig, videos: list[str] | None) -> list[Path]:
    """Fit the temperature on the validation split and export the results."""
    _bind_deferred()
    validate_paths(config, ("annotations", "logits"))
    records, vocab = _load_records(config, videos)
    split = split_dataset(
        records, config.split.ratios, config.split.seed, config.split.granularity
    )
    validation = sorted(split.validation)
    if not validation:
        raise ConfigError(
            f"split.ratios {list(config.split.ratios)} leave no validation frames to calibrate on"
        )
    table = read_logits(config.paths.logits)
    row_of = dict(zip(table.keys(), range(len(table))))
    missing = [ref for ref in validation if ref not in row_of]
    if missing:
        raise ConfigError(
            f"missing logits rows for {len(missing)} validation frames, e.g. {missing[:3]}"
        )
    z = table.values[[row_of[ref] for ref in validation]]
    y = _truth_matrix(records, validation, vocab)
    try:
        result = fit_temperature(
            z,
            y,
            mode=config.detection.mode,
            search_range=(config.calibration.t_lo, config.calibration.t_hi),
            bin_count=config.calibration.bins,
        )
    except ValueError as exc:  # the config is checked, so only the logits are left to fail
        raise RecordError(str(exc), config.paths.logits) from None
    out = _make_output_dir(config)
    outputs = [
        out / "calibration.json",
        out / "reliability_bins_before.csv",
        out / "reliability_bins_after.csv",
    ]
    write_text(outputs[0], json.dumps(calibration_record(result), indent=2, sort_keys=True) + "\n")
    write_text(outputs[1], bins_csv(result.bins_before))
    write_text(outputs[2], bins_csv(result.bins_after))
    log.info("calibrate: T=%.4f ece %.4f -> %.4f", result.temperature, result.ece_before, result.ece_after)
    return outputs


def _caption_texts(path: str, kind: str) -> dict[tuple[str, int], str]:
    """Caption text by (video_id, frame) or (video_id, start_frame); a repeated key is an error."""
    if kind == "frame":
        keyed = (((c.video_id, c.frame_index), c.text) for c in read_frame_captions(path))
    else:
        keyed = (((c.video_id, c.start_frame), c.text) for c in read_clip_captions(path))
    texts: dict[tuple[str, int], str] = {}
    for index, (key, text) in enumerate(keyed):
        if key in texts:
            raise RecordError(f"{kind} caption {key} repeats an earlier row", path, record_line(path, index))
        texts[key] = text
    return texts


def _caption_pairs(generated_path: str, reference_path: str, kind: str) -> list[tuple[str, str]]:
    gen = _caption_texts(generated_path, kind)
    ref = _caption_texts(reference_path, kind)
    if gen.keys() != ref.keys():
        only_gen = sorted(gen.keys() - ref.keys())[:3]
        only_ref = sorted(ref.keys() - gen.keys())[:3]
        raise ConfigError(
            f"{kind} caption keys do not align: generated-only {only_gen}, reference-only {only_ref}"
        )
    keys = sorted(gen)
    # tokenize() yields no tokens exactly when the text is all whitespace.
    blank = next((key for key in keys if not ref[key].strip()), None)
    if blank is not None:
        raise ConfigError(
            f"{kind}_captions: reference caption {blank} in {reference_path} is blank"
        )
    return [(gen[key], ref[key]) for key in keys]


def _detection_report(config: PipelineConfig, vocab) -> dict | None:
    if not config.paths.logits:
        return None
    records, _ = _load_records(config, None)
    table = read_logits(config.paths.logits)
    if not len(table):
        raise ConfigError(f"no logits records in {config.paths.logits}")
    truth = _truth_matrix(records, table.keys(), vocab)
    probs = probabilities_from_logits(table.values, config.detection.mode)
    cls = classification_metrics(threshold_detect(probs, config.detection.threshold), truth)
    ap = average_precision(probs, truth, n_instruments=len(vocab.instruments))
    row = MetricReport(
        precision=cls.precision, recall=cls.recall, f1=cls.f1, accuracy=cls.accuracy
    ).to_record()
    row["ap_instruments"] = ap.instruments
    row["ap_targets"] = ap.targets
    row["ap_excluded_classes"] = [vocab.detection_classes[i] for i in ap.excluded]
    return row


def cmd_evaluate(config: PipelineConfig, videos: list[str] | None) -> list[Path]:
    """Score generated captions against references; add detection metrics."""
    if videos:
        raise ConfigError("evaluate scores every video and takes no --videos")
    _bind_deferred()
    vocab = config.vocabulary()
    out = config.output_dir()
    evaluate = config.evaluate
    if config.paths.logits:
        validate_paths(config, ("logits",))
    table = None
    if config.paths.embeddings:
        validate_paths(config, ("embeddings",))
        table = EmbeddingTable.load(config.paths.embeddings)

    rows: list[dict] = []
    frame_ref = evaluate.reference_frame_captions or str(out / "frame_captions.jsonl")
    clip_ref = evaluate.reference_clip_captions or str(out / "clip_captions.jsonl")
    scopes = [
        ("frame_captions", evaluate.generated_frame_captions, frame_ref, "frame"),
        ("clip_captions", evaluate.generated_clip_captions, clip_ref, "clip"),
    ]
    for scope, generated, reference, kind in scopes:
        if generated is None:
            continue
        for label, path in (("generated", generated), ("reference", reference)):
            if not Path(path).exists():
                raise ConfigError(f"{scope} {label} captions not found: {path}")
        report = aggregate_caption_metrics(_caption_pairs(generated, reference, kind), table)
        rows.append({"scope": scope, **report.to_record()})
    detection_row = _detection_report(config, vocab)
    if detection_row is not None:
        rows.append({"scope": "detection", **detection_row})
    if not rows:
        raise ConfigError("nothing to evaluate: no generated captions or logits configured")

    outputs = [_make_output_dir(config) / name for name in ("metrics.jsonl", "metrics.csv")]
    write_jsonl(outputs[0], rows)
    columns = ["scope"] + sorted({key for row in rows for key in row} - {"scope"})
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(col)) for col in columns))
    write_text(outputs[1], "\n".join(lines) + "\n")
    return outputs


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    if isinstance(value, list):
        return '"' + ";".join(str(v) for v in value) + '"'
    return str(value)


def cmd_report(config: PipelineConfig, videos: list[str] | None) -> list[Path]:
    """Write the offline report per video, plus the endpoint report if enabled."""
    vocab = config.vocabulary()
    clip_path = config.output_dir() / "clip_captions.jsonl"
    if not clip_path.exists():
        raise ConfigError(f"clip captions not found: {clip_path} (run preprocess first)")
    captions = read_clip_captions(clip_path, vocab)
    by_video: dict[str, list] = {}
    for index, caption in enumerate(captions):
        # The id names the video's report files, so it must be one plain path component.
        if caption.video_id in ("", ".", "..") or any(c in caption.video_id for c in "/\\\0"):
            problem = f"video_id {caption.video_id!r} is not a plain file name"
        # preprocess writes clips of exactly windowing.size seconds; merge_timeline
        # expands each second, so a longer caption is rejected before it.
        elif caption.size > config.windowing.size:
            problem = (
                f"clip caption durations sum to {caption.size} seconds, more than "
                f"windowing.size {config.windowing.size}"
            )
        else:
            by_video.setdefault(caption.video_id, []).append(caption)
            continue
        raise RecordError(problem, str(clip_path), record_line(clip_path, index))
    if videos:
        _check_videos(videos, by_video)
    selected = {v: by_video[v] for v in videos} if videos else by_video

    report_dir = config.output_dir() / "reports"
    endpoint = None if config.report.offline else config.report.endpoint
    jobs: list[tuple[list, str]] = []  # each video's clips and sidecar text, for the endpoint reports
    outputs: list[Path] = []
    for _, clips in sorted(selected.items()):
        timeline = merge_timeline(clips)
        text = render_timeline(timeline, vocab)
        if endpoint is not None:
            jobs.append((clips, text))
        outputs.append(write_report(report_dir, offline_report(timeline, vocab), text))

    if endpoint is not None:
        def generate(job):
            clips, text = job
            return write_report(report_dir, llm_generate(render_prompt(clips), endpoint), text, ".llm")

        with ThreadPoolExecutor(max_workers=endpoint.parallelism) as pool:
            try:
                outputs.extend(pool.map(generate, jobs))
            except EndpointError as exc:
                # The offline artifacts above are already on disk.
                raise EndpointError(f"endpoint report failed: {exc}") from exc
    return outputs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surgreport",
        description="Surgical video annotation pipeline: captions, detections, metrics, reports.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="pipeline YAML configuration")
        cmd.add_argument("--videos", help="comma-separated video ids to restrict to")
        # Each override flag's dest is the config key it sets (SPLIT.SEED in --help).
        cmd.add_argument("--seed", dest="split.seed", type=int)
        cmd.add_argument("--threshold", dest="detection.threshold", type=float)
        cmd.add_argument("--mode", dest="detection.mode", choices=("sigmoid", "softmax"),
                         help="override detection.mode")
        cmd.add_argument("--offline", dest="report.offline", action="store_const", const=True,
                         help="skip the endpoint report")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    videos = args.videos.split(",") if args.videos else None
    try:
        config = load_config(args.config, {k: v for k, v in vars(args).items() if "." in k and v is not None})
        # Looked up at each run, so a wrapper bound on this module is the function called.
        outputs = globals()[f"cmd_{args.command}"](config, videos)
        _write_manifest(config, args.command, outputs)
    except (SurgReportError, OSError) as exc:  # OSError: an input or output file operation failed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
