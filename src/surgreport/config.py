"""Pipeline configuration: one YAML file, flag overrides, one typed schema.

Flags are written into the file's mapping before it is built (flag > config
> default). Each section is a frozen dataclass that checks its fields when
constructed, without conversion: ``bool``, ``int``, ``str`` by exact type,
``float`` a finite number, ``X | None``, ``Literal``, a fixed-length tuple
(from a YAML list), a nested section (a mapping; null or ``{}`` keeps the
default), then the bound in the field's metadata. A bad value is one
``ConfigError`` naming its dotted path; ``config_hash`` feeds the run manifests.
"""

import json
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import Literal, get_args, get_origin

from .digest import sha256
from .errors import ConfigError
from .vocab import Vocabulary, default_vocabulary, load_vocabulary, read_yaml

_PHRASES = {bool: "true or false", int: "an integer", str: "a string", type(None): "null"}


def _mismatch(value, kind) -> str | None:
    """None when ``value`` has the annotated type ``kind``, else what it must be."""
    args = get_args(kind)
    if get_origin(kind) is UnionType:
        wants = [_mismatch(value, arg) for arg in args]
        return None if None in wants else " or ".join(wants)
    if get_origin(kind) is Literal:
        fits, want = value in args, "one of " + ", ".join(map(repr, args))
    elif get_origin(kind) is tuple:
        fits = type(value) is tuple and len(value) == len(args) and not any(map(_mismatch, value, args))
        want = f"a list of {len(args)} values"
    elif kind is float:
        # A NaN fails the comparison, and so does an int too large for a float.
        fits, want = type(value) in (int, float) and abs(value) <= sys.float_info.max, "a finite number"
    else:
        fits, want = type(value) is kind, _PHRASES.get(kind) or kind.__name__
    return None if fits else want


def _rule(default, test, phrase: str):
    """A field whose value must also pass ``test(value, section)``, as ``phrase`` says."""
    return field(default=default, metadata={"test": test, "phrase": phrase})


class _Checked:
    """Checks each field of a config dataclass against its annotation and rule, in order."""

    def __post_init__(self) -> None:
        for f in fields(self):
            given = getattr(self, f.name)
            if type(given) is list and get_origin(f.type) is tuple:
                object.__setattr__(self, f.name, tuple(given))
            value, test = getattr(self, f.name), f.metadata.get("test", lambda *_: True)
            if (want := _mismatch(value, f.type)) or not test(value, self):
                raise ConfigError(f"{f.name} must be {f.metadata.get('phrase', want)}, got {given!r}")


@dataclass(frozen=True)
class PathsConfig(_Checked):
    annotations: str | None = None
    logits: str | None = None
    embeddings: str | None = None
    output_dir: str = "out"
    vocabulary: str | None = None


@dataclass(frozen=True)
class WindowingConfig(_Checked):
    size: int = _rule(32, lambda v, _: v >= 1, "an integer >= 1")
    stride: int = _rule(16, lambda v, s: 1 <= v <= s.size, "an integer in [1, size]")


@dataclass(frozen=True)
class DetectionConfig(_Checked):
    mode: Literal["sigmoid", "softmax"] = "sigmoid"
    threshold: float = _rule(0.5, lambda v, _: 0 <= v <= 1, "a number in [0, 1]")


@dataclass(frozen=True)
class CalibrationConfig(_Checked):
    bins: int = _rule(10, lambda v, _: v >= 1, "an integer >= 1")
    t_lo: float = _rule(0.05, lambda v, _: v > 0, "a finite number > 0")
    t_hi: float = _rule(20.0, lambda v, c: v > c.t_lo, "a finite number > t_lo")


@dataclass(frozen=True)
class SplitConfig(_Checked):
    ratios: tuple[float, float, float] = _rule(
        (0.8, 0.1, 0.1), lambda v, _: min(v) >= 0 and abs(sum(v) - 1.0) <= 1e-9,
        "a list of three nonnegative numbers that sum to 1",
    )
    seed: int = 7
    granularity: Literal["frame", "video"] = "frame"


@dataclass(frozen=True)
class EndpointConfig(_Checked):
    """Generic chat-completion wire contract; no vendor lock-in."""

    base_url: str
    model: str
    temperature: float = 0.2
    max_tokens: int = _rule(1024, lambda v, _: v >= 1, "an integer >= 1")
    credential_env: str = "SURGREPORT_API_KEY"
    timeout: float = _rule(60.0, lambda v, _: v > 0, "a finite number > 0")
    # llm_generate raises the error of its last attempt, so there must be one.
    max_attempts: int = _rule(3, lambda v, _: v >= 1, "an integer >= 1")
    backoff_seconds: float = _rule(0.5, lambda v, _: v >= 0, "a finite number >= 0")
    parallelism: int = _rule(2, lambda v, _: v >= 1, "an integer >= 1")


@dataclass(frozen=True)
class ReportSettings(_Checked):
    offline: bool = True
    endpoint: EndpointConfig | None = _rule(
        None, lambda v, s: s.offline or v is not None, "an endpoint section, or null when offline is true"
    )


@dataclass(frozen=True)
class EvaluateConfig(_Checked):
    """Caption files to score; reference paths default to preprocess outputs."""

    generated_frame_captions: str | None = None
    reference_frame_captions: str | None = None
    generated_clip_captions: str | None = None
    reference_clip_captions: str | None = None


@dataclass(frozen=True)
class PipelineConfig(_Checked):
    paths: PathsConfig = field(default_factory=PathsConfig)
    windowing: WindowingConfig = field(default_factory=WindowingConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    report: ReportSettings = field(default_factory=ReportSettings)
    evaluate: EvaluateConfig = field(default_factory=EvaluateConfig)

    def vocabulary(self) -> Vocabulary:
        if not self.paths.vocabulary:
            return default_vocabulary()
        validate_paths(self, ("vocabulary",))
        return load_vocabulary(self.paths.vocabulary)

    def output_dir(self) -> Path:
        return Path(self.paths.output_dir)


def _build(cls, data, path: str):
    """Build the section ``cls`` from a mapping; each ConfigError names the dotted path."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'} must be a mapping, got {data!r}")
    where = f"config section {path!r}" if path else "config"
    if unknown := sorted(set(data) - {f.name for f in fields(cls)}, key=str):
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    required = {f.name for f in fields(cls) if f.default is f.default_factory is MISSING}
    if missing := sorted(required - set(data)):
        raise ConfigError(f"missing required keys in {where}: {missing}")
    prefix = f"{path}." if path else ""
    values = dict(data)
    for f in fields(cls):
        section = next(filter(is_dataclass, (f.type, *get_args(f.type))), None)
        if section and values.pop(f.name, None) not in (None, {}):
            values[f.name] = _build(section, data[f.name], prefix + f.name)
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def config_from_mapping(data: dict) -> PipelineConfig:
    return _build(PipelineConfig, data, "")


def load_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Load a YAML config; ``overrides`` maps dotted keys (``detection.threshold``) to values."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    data = read_yaml(path) or {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    for key, value in (overrides or {}).items():
        name, _, leaf = key.partition(".")
        if isinstance(section := data.get(name), dict | None):
            data[name] = {**(section or {}), leaf: value}
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
    return sha256(canonical.encode("utf-8")).hexdigest()
