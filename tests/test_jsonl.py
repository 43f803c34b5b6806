from __future__ import annotations

import ast
import io
import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgreport.detection import read_logits
from surgreport.embeddings import EmbeddingTable
from surgreport.errors import RecordError
from surgreport.jsonl import (
    _problem,
    dump_jsonl,
    iter_jsonl,
    read_jsonl,
    record_line,
    stream_jsonl,
    write_jsonl,
    write_text,
)

from conftest import traced_peak

RECORDS = [
    {"video_id": "VID01", "frame": 0, "text": "Grasper — retracts the gallbladder.", "p": [0.1, 1e-300]},
    {"nested": {"a": [1, 2.5, None, True]}, "quote": 'say "hi"\n'},
    {"separators": "a\u2028b\u2029c\x85d\x0be"},
    [],
]


def test_write_jsonl_matches_json_dumps_per_record(tmp_path):
    path = tmp_path / "records.jsonl"
    assert write_jsonl(path, iter(RECORDS)) == len(RECORDS)
    expected = "".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in RECORDS)
    assert path.read_text(encoding="utf-8") == expected == dump_jsonl(RECORDS)


def test_write_jsonl_empty(tmp_path):
    path = tmp_path / "records.jsonl"
    assert write_jsonl(path, []) == 0
    assert path.read_bytes() == b""


def test_round_trip_keeps_unicode_line_separators(tmp_path):
    path = tmp_path / "records.jsonl"
    write_jsonl(path, RECORDS)
    assert read_jsonl(path) == RECORDS


def test_malformed_line_raises_record_error_with_line(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n\n{"a": 2\n{"a": 3}\n', encoding="utf-8")
    with pytest.raises(RecordError, match="malformed record") as exc:
        read_jsonl(path)
    assert (exc.value.source, exc.value.line) == (str(path), 3)
    assert str(exc.value).startswith(f"{path}:3: ")


def test_record_line_skips_blank_lines(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('\n{"a": 1}\n  \n{"a": 2}\r\n{"a": 3}\n', encoding="utf-8")
    assert read_jsonl(path) == [{"a": 1}, {"a": 2}, {"a": 3}]
    assert [record_line(path, i) for i in range(3)] == [2, 4, 5]


FIELDS = {"video_id": str, "frame": int, "logits": list}


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ("[1, 2]", "record must be a JSON object"),
        ('"text"', "record must be a JSON object"),
        ('{"frame": 1}', "missing field(s) ['video_id', 'logits']"),
        ('{"video_id": "V", "frame": true, "logits": []}', "frame must be a nonnegative integer, got bool"),
        ('{"video_id": "V", "frame": 1.0, "logits": []}', "frame must be a nonnegative integer, got float"),
        ('{"video_id": "V", "frame": -1, "logits": []}', "frame must be a nonnegative integer, got -1"),
        ('{"video_id": "V", "frame": %d, "logits": []}' % 2**63, "frame must be a nonnegative integer, got"),
        ('{"video_id": "V", "frame": "16", "logits": []}', "frame must be a nonnegative integer, got str"),
        ('{"video_id": null, "frame": 1, "logits": []}', "video_id must be a string, got NoneType"),
        ('{"video_id": "V", "frame": 1, "logits": {}}', "logits must be a list, got dict"),
    ],
)
def test_fields_are_checked_at_their_line(tmp_path, line, message):
    path = tmp_path / "records.jsonl"
    good = '{"video_id": "V", "frame": 0, "logits": []}'
    path.write_text(good + "\n\n" + line + "\n", encoding="utf-8")
    with pytest.raises(RecordError) as exc:
        read_jsonl(path, FIELDS)
    assert (exc.value.source, exc.value.line) == (str(path), 3)
    assert str(exc.value).startswith(f"{path}:3: {message}")


def test_fields_accept_the_largest_int_and_extra_keys(tmp_path):
    path = tmp_path / "records.jsonl"
    record = {"video_id": "V", "frame": 2**63 - 1, "logits": [1, "a"], "extra": None}
    write_jsonl(path, [record])
    assert read_jsonl(path, FIELDS) == [record]
    # Without fields, any JSON value is a record.
    assert read_jsonl(path) == [record]


def test_failed_write_leaves_the_previous_file(tmp_path):
    path = tmp_path / "records.jsonl"
    write_jsonl(path, RECORDS)
    before = path.read_bytes()

    def records():
        # Far more than one write buffer, so part of it reached the disk.
        for i in range(20_000):
            yield {"i": i, "text": "x" * 40}
        raise RuntimeError("generator failed")

    with pytest.raises(RuntimeError, match="generator failed"):
        write_jsonl(path, records())
    with pytest.raises(TypeError):
        write_jsonl(path, [{"ok": 1}, {"not JSON": {1, 2}}])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["records.jsonl"]


# Text with CR, CRLF and the separators str.splitlines breaks at.
TEXT = "phase,frames\r\nα — β\u2028\x85\rend\n\n"


def test_write_text_writes_the_utf8_bytes_of_the_text(tmp_path):
    path = tmp_path / "out.csv"
    write_text(path, TEXT)
    assert path.read_bytes() == TEXT.encode("utf-8")
    write_text(path, "")
    assert path.read_bytes() == b""


def test_failed_text_write_leaves_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    write_text(path, TEXT)
    with pytest.raises(UnicodeEncodeError):
        write_text(path, "x" * 100_000 + "\udcff")

    def replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr("surgreport.jsonl.os.replace", replace)
    with pytest.raises(OSError, match="replace failed"):
        write_text(path, "new\n")
    with pytest.raises(OSError, match="replace failed"):
        write_jsonl(path, RECORDS)
    assert path.read_bytes() == TEXT.encode("utf-8")
    assert os.listdir(tmp_path) == ["out.csv"]


@pytest.mark.parametrize(
    ("write", "error"),
    [
        (lambda path: write_jsonl(path, [{"ok": 1}, object()]), TypeError),
        (lambda path: write_text(path, "ok\n\udcff"), UnicodeEncodeError),
    ],
    ids=["jsonl", "text"],
)
def test_failed_write_of_a_new_file_leaves_nothing(tmp_path, write, error):
    with pytest.raises(error):
        write(tmp_path / "records.jsonl")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "write",
    [lambda path: write_jsonl(path, RECORDS), lambda path: write_text(path, TEXT)],
    ids=["jsonl", "text"],
)
def test_written_file_has_the_mode_of_a_plain_new_file(tmp_path, write):
    write(tmp_path / "records.jsonl")
    (tmp_path / "plain.txt").write_text("x")
    mode = stat.S_IMODE((tmp_path / "records.jsonl").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)


# Only jsonl.py writes files: every other module writes through write_jsonl
# or write_text, so every output is replaced whole or left as it was.
_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "surgreport"


def _file_writes(source: str) -> list[int]:
    """Line numbers of write_text/write_bytes calls and of opens whose mode writes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            found.append(node.lineno)
        elif isinstance(func, ast.Name) and func.id == "open":
            # A mode that is not a literal counts as writing.
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes):
                found.append(node.lineno)
    return found


def test_only_jsonl_writes_files():
    writes = {
        path.name: _file_writes(path.read_text(encoding="utf-8"))
        for path in sorted(_PACKAGE.glob("*.py"))
    }
    assert len(writes) > 10 and writes.pop("jsonl.py")
    assert {name: lines for name, lines in writes.items() if lines} == {}


@pytest.mark.parametrize(
    ("call", "writes"),
    [
        ("path.write_text(text)", True),
        ("Path(p).write_bytes(b'')", True),
        ("open(p, 'w')", True),
        ("open(p, mode='ab')", True),
        ("open(p, 'r+')", True),
        ("open(p, mode)", True),
        ("open(p, 'x', encoding='utf-8')", True),
        ("open(p)", False),
        ("open(p, 'rb')", False),
        ("opener.open(request, timeout=5)", False),
        ("write_text(path, text)", False),
    ],
)
def test_the_file_write_scan(call, writes):
    assert _file_writes(f"import os\n{call}\n") == ([2] if writes else [])


# The whole-file reader the streamed one replaced: decode every byte first,
# then split at "\n" and parse each line.
def _whole_file_records(data: bytes, source: str, fields) -> list:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        problem = f"not UTF-8 text: byte {data[exc.start]:#04x} ({exc.reason})"
        raise RecordError(problem, source, line) from None
    records = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            raise RecordError(f"malformed record: {exc}", source, lineno) from None
        if fields is not None and (problem := _problem(obj, fields)):
            raise RecordError(problem, source, lineno)
        records.append((lineno, obj))
    return records


def _outcome(read):
    try:
        return read()
    except RecordError as exc:
        return (str(exc), exc.line)


_SEPARATED = st.text(alphabet=st.sampled_from("ab é—\x85\u2028\u2029\r\t\\\""), max_size=6)
_RECORD = st.fixed_dictionaries(
    {
        "video_id": _SEPARATED,
        "frame": st.integers(0, 2**63 - 1),
        "logits": st.lists(st.floats(-1e3, 1e3), max_size=3),
    }
)
_LINE = st.one_of(
    _RECORD.map(lambda rec: json.dumps(rec, ensure_ascii=False)),
    _RECORD.map(lambda rec: json.dumps(rec, ensure_ascii=False)[:-1]),  # cut short
    st.sampled_from(
        ["", "  ", "\t", "\r", "\u2028", "[1, 2]", '{"frame": 1}', '{"video_id": "V", "frame": -1, "logits": []}']
    ),
)
# Bytes that are not UTF-8 text: stray continuation and invalid bytes, and
# the starts of 2-, 3- and 4-byte sequences cut short.
_BAD = st.sampled_from([b"\x80", b"\xff", b"\xc0", b"\xc3", b"\xe2\x80", b"\xf0\x9f\x98", b"\xed\xa0"])


@st.composite
def _files(draw) -> bytes:
    lines = draw(st.lists(_LINE, max_size=6))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + (newline if lines and draw(st.booleans()) else "")
    data = text.encode("utf-8")
    if draw(st.booleans()):
        ends = [i for i, byte in enumerate(data) if byte == 0x0A]
        at = draw(st.sampled_from(ends) if ends and draw(st.booleans()) else st.integers(0, len(data)))
        data = data[:at] + draw(_BAD) + data[at:]
    return data


@settings(max_examples=400, deadline=None)
@given(data=_files(), fields=st.sampled_from([None, FIELDS]))
def test_streamed_reader_matches_the_whole_file_reader(tmp_path_factory, data, fields):
    path = tmp_path_factory.mktemp("stream") / "records.jsonl"
    path.write_bytes(data)
    source = str(path)
    streamed = _outcome(lambda: list(stream_jsonl(path, fields)))
    assert _outcome(lambda: list(iter_jsonl(data, source, fields))) == streamed
    expected = _outcome(lambda: _whole_file_records(data, source, fields))
    if isinstance(streamed, list) or streamed == expected:
        assert streamed == expected
    else:
        # The streamed reader stops at the first faulty line; the whole-file
        # reader found a bad byte further on first. Up to that faulty line
        # they agree.
        message, line = streamed
        assert "not UTF-8 text" in expected[0] and expected[1] > line
        prefix = b"".join(io.BytesIO(data).readlines()[:line])
        assert _outcome(lambda: _whole_file_records(prefix, source, fields)) == streamed
    if isinstance(expected, list):
        assert list(iter_jsonl(data.decode("utf-8"), source, fields)) == expected
        assert read_jsonl(path, fields) == [obj for _, obj in expected]


def test_record_line_reads_the_decoded_lines(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n\u2028\n{"a": "\u2028"}\n', encoding="utf-8")
    assert [n for n, _ in stream_jsonl(path)] == [record_line(path, 0), record_line(path, 1)] == [1, 3]


# Loading or writing a record file holds one line at a time, so the traced
# peak stays below the file size (a whole-file read holds several copies).
def _embedding_records(n: int):
    rng = np.random.default_rng(0)
    for i in range(n):
        yield {"key": f"{i:064x}", "dim": 32, "vectors": rng.standard_normal((20, 32)).tolist()}


def test_embedding_load_peak_is_below_the_file_size(tmp_path):
    path = tmp_path / "embeddings.jsonl"
    write_jsonl(path, _embedding_records(200))
    size = path.stat().st_size
    assert size > 2_000_000
    assert traced_peak(lambda: EmbeddingTable.load(path)) < size


def test_read_logits_peak_is_below_the_file_size(tmp_path):
    path = tmp_path / "logits.jsonl"
    rng = np.random.default_rng(1)
    write_jsonl(
        path,
        ({"video_id": f"VID{i % 50:02d}", "frame": i, "logits": rng.normal(0, 3, 21).tolist()} for i in range(6000)),
    )
    size = path.stat().st_size
    assert size > 2_000_000
    assert traced_peak(lambda: read_logits(path)) < size


def test_write_jsonl_peak_is_below_the_file_size(tmp_path):
    path = tmp_path / "embeddings.jsonl"
    peak = traced_peak(lambda: write_jsonl(path, _embedding_records(200)))
    assert peak < path.stat().st_size
