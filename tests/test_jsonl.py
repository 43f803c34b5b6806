from __future__ import annotations

import json

import pytest

from surgreport.errors import RecordError
from surgreport.jsonl import dump_jsonl, read_jsonl, record_line, write_jsonl

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
