"""Line-delimited JSON: the one reader and writer behind every record file.

A reader passes its fields as a mapping from name to ``str``, ``int`` or
``list``. A line that is not JSON, not an object, lacks a field or holds
another type raises RecordError at its line. An ``int`` field must be an
exact integer from 0 to 2**63 - 1 (not a bool or a float): every integer
field in these files is a frame index or a count.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Mapping
from pathlib import Path
from typing import Any

from .errors import RecordError

_MAX_INT = 2**63 - 1
_KINDS = {str: "a string", int: "a nonnegative integer", list: "a list"}

# One encoder for every record; ``json.dumps`` with a keyword argument
# builds a new one per call. Output is identical to
# ``json.dumps(record, ensure_ascii=False)``.
_ENCODER = json.JSONEncoder(ensure_ascii=False)


def _problem(obj: Any, fields: Mapping[str, type]) -> str | None:
    """Why a decoded line is not a record with ``fields``, or None."""
    if type(obj) is not dict:
        return "record must be a JSON object"
    for name, kind in fields.items():
        value = obj.get(name)
        if type(value) is not kind or (kind is int and not 0 <= value <= _MAX_INT):
            if name not in obj:
                return f"missing field(s) {[n for n in fields if n not in obj]}"
            got = repr(value) if type(value) is kind else type(value).__name__
            return f"{name} must be {_KINDS[kind]}, got {got}"
    return None


def iter_jsonl(
    text: str, source: str = "<records>", fields: Mapping[str, type] | None = None
) -> Iterator[tuple[int, Any]]:
    """Yield (1-based line number, decoded object) for each non-blank line.

    A line that is not valid JSON, or not a record with ``fields`` when they
    are given, raises RecordError with its line number. Lines end at "\n"
    only: the encoder leaves U+0085, U+2028 and U+2029 unescaped inside
    strings, and ``str.splitlines`` would break records there.
    """
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            raise RecordError(f"malformed record: {exc}", source, lineno) from None
        if fields is not None and (problem := _problem(obj, fields)):
            raise RecordError(problem, source, lineno)
        yield lineno, obj


def read_jsonl(path: str | Path, fields: Mapping[str, type] | None = None) -> list[Any]:
    return [obj for _, obj in iter_jsonl(Path(path).read_text(encoding="utf-8"), str(path), fields)]


def record_line(path: str | Path, index: int) -> int:
    """1-based line number of the record at ``index`` in ``read_jsonl(path)``."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    return [n for n, line in enumerate(lines, start=1) if line.strip()][index]


def dump_jsonl(records: Iterable[Any]) -> str:
    """Records one per line, each line ending in a newline."""
    encode = _ENCODER.encode
    return "".join([encode(rec) + "\n" for rec in records])


def write_jsonl(path: str | Path, records: Iterable[Any]) -> int:
    """Write records one per line; returns the number of records written."""
    text = dump_jsonl(records)
    Path(path).write_text(text, encoding="utf-8")
    # The encoder escapes newlines inside strings, so each one ends a record.
    return text.count("\n")
