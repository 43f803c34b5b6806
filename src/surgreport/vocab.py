"""Label vocabulary: instruments, verbs, targets, and procedure phases.

The canonical CholecT50 label space ships with the package as
``data/vocabulary.yaml``; alternative vocabularies with the same category
sizes can be loaded from user files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path

import yaml

from .errors import ConfigError
from .jsonl import read_text

# Literal token used in annotation files for an absent verb or target.
NULL_TOKEN = "null"

# Names of the explicit null categories in the canonical label space.
NULL_VERB_NAME = "null_verb"
NULL_TARGET_NAME = "null_target"

N_INSTRUMENTS = 6
N_VERBS = 10
N_TARGETS = 15
N_PHASES = 7


@dataclass(frozen=True)
class Vocabulary:
    """Ordered label names for each annotation category.

    The detection class space is the concatenation of instruments and
    targets (21 classes), matching the width of the external detector's
    output head.
    """

    instruments: tuple[str, ...]
    verbs: tuple[str, ...]
    targets: tuple[str, ...]
    phases: tuple[str, ...]
    _lookup: dict[str, dict[str, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        expected = {
            "instruments": (self.instruments, N_INSTRUMENTS),
            "verbs": (self.verbs, N_VERBS),
            "targets": (self.targets, N_TARGETS),
            "phases": (self.phases, N_PHASES),
        }
        lookup: dict[str, dict[str, int]] = {}
        for category, (names, size) in expected.items():
            if len(names) != size:
                raise ConfigError(f"vocabulary {category} must have {size} names, got {len(names)}")
            if len(set(names)) != len(names):
                raise ConfigError(f"vocabulary {category} contains duplicate names")
            lookup[category] = {name: i for i, name in enumerate(names)}
        object.__setattr__(self, "_lookup", lookup)

    @property
    def detection_classes(self) -> tuple[str, ...]:
        return self.instruments + self.targets

    def index_of(self, category: str, name: str) -> int:
        """Look up a label name; raises KeyError with the category on miss."""
        try:
            return self._lookup[category][name]
        except (KeyError, TypeError):
            raise KeyError(f"unknown {category[:-1]} label {name!r}") from None


def vocabulary_from_mapping(data: dict) -> Vocabulary:
    names = {}
    for category in ("instruments", "verbs", "targets", "phases"):
        if category not in data:
            raise ConfigError(f"vocabulary file is missing category {category!r}")
        value = data[category]
        if type(value) is not list or not all(type(name) is str for name in value):
            raise ConfigError(f"vocabulary {category} must be a list of names, got {value!r}")
        names[category] = tuple(value)
    return Vocabulary(**names)


def read_yaml(path: str | Path):
    """The YAML document in ``path``; a file that cannot be read or parsed is one ConfigError."""
    try:
        text = read_text(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark else str(path)
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ConfigError(f"{where}: not valid YAML: {problem}") from None


def load_vocabulary(path: str | Path) -> Vocabulary:
    """Load a vocabulary file (one YAML list per category)."""
    data = read_yaml(path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: vocabulary file must map categories to name lists")
    return vocabulary_from_mapping(data)


@lru_cache(maxsize=1)
def default_vocabulary() -> Vocabulary:
    """The canonical CholecT50 vocabulary shipped with the package."""
    text = resources.files("surgreport").joinpath("data/vocabulary.yaml").read_text(encoding="utf-8")
    return vocabulary_from_mapping(yaml.safe_load(text))
