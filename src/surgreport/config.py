"""Pipeline configuration: one YAML file, flag overrides, validation.

Precedence is flag > config file > default. Every output directory gets a
run-manifest sidecar carrying the configuration hash and artifact version,
so runs are reproducible and attributable without polluting data files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import yaml

from .errors import ConfigError
from .report import EndpointConfig
from .vocab import Vocabulary, default_vocabulary, load_vocabulary


@dataclass(frozen=True)
class PathsConfig:
    annotations: str | None = None
    logits: str | None = None
    embeddings: str | None = None
    output_dir: str = "out"
    vocabulary: str | None = None


@dataclass(frozen=True)
class WindowingConfig:
    size: int = 32
    stride: int = 16


@dataclass(frozen=True)
class DetectionConfig:
    mode: str = "sigmoid"
    threshold: float = 0.5
    epsilon: float = 1e-6


@dataclass(frozen=True)
class CalibrationConfig:
    bins: int = 10
    t_lo: float = 0.05
    t_hi: float = 20.0


@dataclass(frozen=True)
class SplitConfig:
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 7
    granularity: str = "frame"


@dataclass(frozen=True)
class ReportSettings:
    offline: bool = True
    endpoint: EndpointConfig | None = None


@dataclass(frozen=True)
class EvaluateConfig:
    """Caption files to score; reference paths default to preprocess outputs."""

    generated_frame_captions: str | None = None
    reference_frame_captions: str | None = None
    generated_clip_captions: str | None = None
    reference_clip_captions: str | None = None


@dataclass(frozen=True)
class PipelineConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    windowing: WindowingConfig = field(default_factory=WindowingConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    report: ReportSettings = field(default_factory=ReportSettings)
    evaluate: EvaluateConfig = field(default_factory=EvaluateConfig)

    def vocabulary(self) -> Vocabulary:
        if self.paths.vocabulary:
            return load_vocabulary(self.paths.vocabulary)
        return default_vocabulary()

    def output_dir(self) -> Path:
        return Path(self.paths.output_dir)


def _section(data: dict, name: str) -> dict:
    value = data.get(name, {})
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    return value


def _build(cls, data: dict, name: str):
    known = {f for f in cls.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    missing = [
        f.name
        for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING and f.name not in data
    ]
    if missing:
        raise ConfigError(f"missing required keys in config section {name!r}: {missing}")
    return cls(**data)


def _ratios(value) -> tuple[float, float, float]:
    numbers = type(value) is list and len(value) == 3 and all(type(r) in (int, float) for r in value)
    # Negated comparisons, so a NaN fails them.
    if not numbers or not (min(value) >= 0 and abs(sum(value) - 1.0) <= 1e-9):
        raise ConfigError(
            f"split.ratios must be a list of three nonnegative numbers that sum to 1, got {value!r}"
        )
    return tuple(value)


def config_from_mapping(data: dict) -> PipelineConfig:
    report_data = dict(_section(data, "report"))
    endpoint_data = report_data.get("endpoint")
    if endpoint_data is not None and not isinstance(endpoint_data, dict):
        raise ConfigError(f"report.endpoint must be a mapping, got {endpoint_data!r}")
    report_data["endpoint"] = (
        _build(EndpointConfig, endpoint_data, "report.endpoint") if endpoint_data else None
    )
    split_data = dict(_section(data, "split"))
    if "ratios" in split_data:
        split_data["ratios"] = _ratios(split_data["ratios"])
    return PipelineConfig(
        paths=_build(PathsConfig, _section(data, "paths"), "paths"),
        windowing=_build(WindowingConfig, _section(data, "windowing"), "windowing"),
        detection=_build(DetectionConfig, _section(data, "detection"), "detection"),
        calibration=_build(CalibrationConfig, _section(data, "calibration"), "calibration"),
        split=_build(SplitConfig, split_data, "split"),
        report=_build(ReportSettings, report_data, "report"),
        evaluate=_build(EvaluateConfig, _section(data, "evaluate"), "evaluate"),
    )


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return config_from_mapping(data)


def validate_paths(config: PipelineConfig, required: tuple[str, ...]) -> None:
    """Check that the named path fields exist on disk."""
    for name in required:
        value = getattr(config.paths, name)
        if value is None:
            raise ConfigError(f"paths.{name} is required for this command")
        if not Path(value).exists():
            raise ConfigError(f"paths.{name} does not exist: {value}")


def config_hash(config: PipelineConfig) -> str:
    canonical = json.dumps(asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
