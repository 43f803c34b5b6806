"""surgreport: surgical video annotations to captions, detections, and reports.

The library turns triplet-annotated surgical videos and externally produced
per-frame detection logits into deterministic frame/clip captions,
calibrated multi-label detections, text and detection metrics, and
structured surgical reports.

The public names are listed once, in ``_SUBMODULE`` (name -> the submodule
that defines it); ``__all__`` is ``__version__`` plus that table's keys.
Each is imported from its submodule on first access (PEP 562), so
``import surgreport`` loads no submodule. Only ``calibration``,
``detection``, ``embeddings`` and ``metrics`` import numpy: of the CLI
commands, ``detect``, ``calibrate`` and ``evaluate`` load it, and
``preprocess`` and ``report`` do not.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_SUBMODULE = {
    name: module
    for module, names in {
        "calibration": "CalibrationResult ReliabilityBins ece fit_temperature nll reliability_bins",
        "captions": "ClipCaption FrameCaption PhaseSegment parse_clip_caption render_clip_text "
        "synthesize_clip_caption synthesize_frame_caption",
        "dataset": "DatasetSplit FrameAnnotation Triplet VideoRecord load_annotations "
        "parse_annotations phase_duration_table serialize_annotations split_dataset split_labels",
        "detection": "AnnotationTable ClassWeights LogitsRecord LogitsTable PatchSequence "
        "class_weights patch_count patchify probabilities_from_logits threshold_detect truth_bits "
        "unpatchify weighted_bce",
        "embeddings": "EmbeddedText EmbeddingTable deterministic_token_embeddings",
        "errors": "AnnotationError ConfigError EndpointError GrammarError MissingCredentialError "
        "RecordError SurgReportError TransportError",
        "metrics": "AveragePrecision BertScore ClassificationMetrics MetricReport average_precision "
        "bertscore bleu classification_metrics rouge tokenize",
        "report": "EndpointConfig MergedTimeline PromptRequest SurgicalReport llm_generate "
        "merge_timeline offline_report render_prompt",
        "vocab": "Vocabulary default_vocabulary load_vocabulary",
        "windowing": "ClipWindow window_starts window_video",
    }.items()
    for name in names.split()
}
__all__ = ["__version__", *_SUBMODULE]


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(import_module(f".{_SUBMODULE[name]}", __name__), name))


def __dir__() -> list[str]:
    return sorted(globals().keys() | _SUBMODULE.keys())

