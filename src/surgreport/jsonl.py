"""Line-delimited JSON helpers used by every file interface."""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import Any

from .errors import RecordError

# One encoder for every record; ``json.dumps`` with a keyword argument
# builds a new one per call. Output is identical to
# ``json.dumps(record, ensure_ascii=False)``.
_ENCODER = json.JSONEncoder(ensure_ascii=False)


def iter_jsonl(text: str, source: str = "<records>") -> Iterator[tuple[int, Any]]:
    """Yield (1-based line number, decoded object) for each non-blank line.

    A line that is not valid JSON raises RecordError with its line number.
    Lines end at "\n" only: the encoder leaves U+0085, U+2028 and U+2029
    unescaped inside strings, and ``str.splitlines`` would break records there.
    """
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            yield lineno, json.loads(line)
        except ValueError as exc:
            raise RecordError(f"malformed record: {exc}", source, lineno) from None


def read_jsonl(path: str | Path) -> list[Any]:
    return [obj for _, obj in iter_jsonl(Path(path).read_text(encoding="utf-8"), str(path))]


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
