"""Line-delimited JSON readers, and the one writer behind every output file.

Records are read and written one line at a time, so a file is never held
whole in memory. Lines end at "\\n" only: the encoder leaves U+0085, U+2028
and U+2029 unescaped inside strings, and ``str.splitlines`` would break
records there. Every output (records, CSV, JSON, manifests, reports) is
written by ``write_jsonl`` or ``write_text`` to a temporary file beside the
target that replaces it at the end, so a write that fails leaves the
previous file.

A reader passes its fields as a mapping from name to ``str``, ``int`` or
``list``. A line that is not JSON, not an object, lacks a field or holds
another type raises RecordError at its line. An ``int`` field must be an
exact integer from 0 to 2**63 - 1 (not a bool or a float): every integer
field in these files is a frame index or a count. A line that is not UTF-8
raises RecordError at that line, naming its first bad byte. A file is read
in order and its first faulty line raises.
"""

from __future__ import annotations

import io
import json
import os
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Any, TextIO

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


def _decoded(lines: Iterable[bytes], source: str) -> Iterator[str]:
    """Each line of a binary file as text, its "\\n" kept.

    The "\\n" is decoded with the line, so a multibyte sequence cut at a line
    end is reported as a whole-file decode reports it.
    """
    for lineno, raw in enumerate(lines, start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            problem = f"not UTF-8 text: byte {raw[exc.start]:#04x} ({exc.reason})"
            raise RecordError(problem, source, lineno) from None


def _records(
    lines: Iterable[str], source: str, fields: Mapping[str, type] | None
) -> Iterator[tuple[int, Any]]:
    """The per-line core: (1-based line number, object) for each non-blank line."""
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            # Without its "\n", so an error names the column as it always has.
            obj = json.loads(line.removesuffix("\n"))
        except ValueError as exc:
            raise RecordError(f"malformed record: {exc}", source, lineno) from None
        if fields is not None and (problem := _problem(obj, fields)):
            raise RecordError(problem, source, lineno)
        yield lineno, obj


def read_text(path: str | Path) -> str:
    """A whole UTF-8 file; a byte that is not UTF-8 raises RecordError at its line."""
    with open(path, "rb") as file:
        return "".join(_decoded(file, str(path)))


def iter_jsonl(
    text: str | bytes, source: str = "<records>", fields: Mapping[str, type] | None = None
) -> Iterator[tuple[int, Any]]:
    """Yield (1-based line number, decoded object) for each non-blank line of ``text``.

    A line that is not valid JSON, or not a record with ``fields`` when they
    are given, raises RecordError with its line number; so does a line of
    ``bytes`` that is not UTF-8.
    """
    lines = text.split("\n") if isinstance(text, str) else _decoded(io.BytesIO(text), source)
    return _records(lines, source, fields)


def stream_jsonl(
    path: str | Path, fields: Mapping[str, type] | None = None
) -> Iterator[tuple[int, Any]]:
    """``iter_jsonl`` over the file at ``path``, read one line at a time."""
    with open(path, "rb") as file:
        yield from _records(_decoded(file, str(path)), str(path), fields)


def read_jsonl(path: str | Path, fields: Mapping[str, type] | None = None) -> list[Any]:
    return [obj for _, obj in stream_jsonl(path, fields)]


def record_line(path: str | Path, index: int) -> int:
    """1-based line number of the record at ``index`` in ``read_jsonl(path)``.

    Only the lines up to that record are read, so a later faulty line does not raise.
    """
    with open(path, "rb") as file:
        lines = enumerate(_decoded(file, str(path)), start=1)
        return next(islice((n for n, line in lines if line.strip()), index, None))


def dump_jsonl(records: Iterable[Any]) -> str:
    """Records one per line, each line ending in a newline."""
    encode = _ENCODER.encode
    return "".join([encode(rec) + "\n" for rec in records])


@contextmanager
def _replacing(path: str | Path) -> Iterator[TextIO]:
    """A new text file beside ``path`` that replaces it when the block ends.

    On any error the new file is removed and ``path`` is untouched. The
    temporary name does not grow with ``path``'s, so any output name the file
    system takes can be written, and an error that names the temporary file
    names ``path`` instead.
    """
    path = Path(path)
    temp = path.with_name(f".{os.urandom(8).hex()}.tmp")
    try:
        # A plain open creates the file with the mode a new output always had.
        with open(temp, "x", encoding="utf-8", newline="") as file:
            yield file
        os.replace(temp, path)
    except BaseException as exc:
        temp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(temp):
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def write_jsonl(path: str | Path, records: Iterable[Any]) -> int:
    """Write records one per line; returns the number of records written."""
    encode = _ENCODER.encode
    count = 0
    with _replacing(path) as file:
        for record in records:
            # The encoder escapes newlines inside strings, so each one ends a record.
            file.write(encode(record) + "\n")
            count += 1
    return count


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8, its newlines as they are."""
    with _replacing(path) as file:
        file.write(text)
