from __future__ import annotations

import pytest
import yaml

from surgreport.errors import ConfigError, SurgReportError
from surgreport.vocab import (
    NULL_TARGET_NAME,
    NULL_VERB_NAME,
    Vocabulary,
    default_vocabulary,
    load_vocabulary,
)


def test_default_vocabulary_sizes(vocab):
    assert len(vocab.instruments) == 6
    assert len(vocab.verbs) == 10
    assert len(vocab.targets) == 15
    assert len(vocab.phases) == 7
    assert len(vocab.detection_classes) == 21
    assert vocab.detection_classes == vocab.instruments + vocab.targets


def test_default_vocabulary_is_cached():
    assert default_vocabulary() is default_vocabulary()


def test_null_sentinel_names(vocab):
    # The annotation parser reads these names as an absent verb or target.
    assert NULL_VERB_NAME in vocab.verbs
    assert NULL_TARGET_NAME in vocab.targets


def test_index_of_unknown_name(vocab):
    with pytest.raises(KeyError, match="unknown instrument label"):
        vocab.index_of("instruments", "drill")


def test_wrong_category_size_rejected(vocab):
    with pytest.raises(ConfigError, match="instruments must have 6"):
        Vocabulary(
            instruments=vocab.instruments[:5],
            verbs=vocab.verbs,
            targets=vocab.targets,
            phases=vocab.phases,
        )


def test_duplicate_names_rejected(vocab):
    with pytest.raises(ConfigError, match="duplicate"):
        Vocabulary(
            instruments=("grasper",) * 6,
            verbs=vocab.verbs,
            targets=vocab.targets,
            phases=vocab.phases,
        )


def test_load_vocabulary_from_file(tmp_path, vocab):
    path = tmp_path / "vocab.yaml"
    data = {
        "instruments": list(vocab.instruments),
        "verbs": list(vocab.verbs),
        "targets": list(vocab.targets),
        "phases": list(vocab.phases),
    }
    data["instruments"][0] = "forceps"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    loaded = load_vocabulary(path)
    assert loaded.instruments[0] == "forceps"
    assert loaded.instruments[1:] == vocab.instruments[1:]


def test_load_vocabulary_missing_category(tmp_path):
    path = tmp_path / "vocab.yaml"
    path.write_text(yaml.safe_dump({"instruments": ["a"] * 6}), encoding="utf-8")
    with pytest.raises(ConfigError, match="missing category"):
        load_vocabulary(path)


@pytest.mark.parametrize(
    "instruments", [5, "grasper", ["a", "b", "c", "d", "e", 6], None, {"a": 1}]
)
def test_load_vocabulary_category_must_list_name_strings(tmp_path, vocab, instruments):
    data = {
        "instruments": instruments,
        "verbs": list(vocab.verbs),
        "targets": list(vocab.targets),
        "phases": list(vocab.phases),
    }
    path = tmp_path / "vocab.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_vocabulary(path)
    assert str(exc.value) == f"vocabulary instruments must be a list of names, got {instruments!r}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("instruments: [\n", ":2: not valid YAML: expected the node content, but found '<stream end>'"),
        ("a: 1\n\tb: 2\n", ":2: not valid YAML: found character '\\t' that cannot start any token"),
        ("a: \x00\n", ": not valid YAML: unacceptable character #x0000: special characters are not allowed"),
    ],
)
def test_load_vocabulary_bad_yaml_is_one_line(tmp_path, text, message):
    path = tmp_path / "vocab.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_vocabulary(path)
    assert str(exc.value) == f"{path}{message}"


def test_load_vocabulary_not_utf8_names_the_line(tmp_path):
    path = tmp_path / "vocab.yaml"
    path.write_bytes(b"instruments:\n  - gr\xffasper\n")
    with pytest.raises(SurgReportError) as exc:
        load_vocabulary(path)
    assert str(exc.value) == f"{path}:2: not UTF-8 text: byte 0xff (invalid start byte)"
