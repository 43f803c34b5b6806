from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from surgreport import cli
from surgreport.config import config_from_mapping
from surgreport.dataset import VideoRecord, write_annotations
from surgreport.detection import (
    AnnotationTable,
    ClassWeights,
    LogitsTable,
    class_weights,
    patch_count,
    patchify,
    probabilities_from_logits,
    rank_keys,
    read_logits,
    threshold_detect,
    truth_bits,
    unpatchify,
    weighted_bce,
    write_detections,
    write_logits,
    LogitsRecord,
)
from surgreport.errors import RecordError

from conftest import frame, make_corpus, make_logits, traced_peak


def test_patch_count_standard_input():
    assert patch_count(224, 224, 16) == 196


def test_patch_count_single_patch():
    assert patch_count(16, 16, 16) == 1


def test_patch_count_rectangular():
    assert patch_count(112, 224, 16) == 98


def test_patch_count_rejects_non_divisible():
    with pytest.raises(ValueError, match="divide"):
        patch_count(225, 224, 16)


def test_patchify_small_grid_against_submatrix_oracle():
    image = np.arange(1, 17).reshape(4, 4)
    seq = patchify(image, 2)
    assert len(seq) == 4
    assert seq.positions == (1, 2, 3, 4)
    assert list(seq.vectors[0]) == [1, 2, 5, 6]
    # brute-force submatrix enumeration
    expected = []
    for r in range(0, 4, 2):
        for c in range(0, 4, 2):
            expected.append(image[r : r + 2, c : c + 2].reshape(-1))
    assert np.array_equal(seq.vectors, np.asarray(expected))


def test_patchify_whole_image_is_identity_case():
    rng = np.random.default_rng(0)
    image = rng.random((8, 8))
    seq = patchify(image, 8)
    assert len(seq) == 1
    assert np.array_equal(seq.vectors[0], image.reshape(-1))


def test_patchify_standard_image_dimensions():
    image = np.random.default_rng(1).random((224, 224, 3))
    seq = patchify(image, 16)
    assert len(seq) == 196
    assert seq.vectors.shape == (196, 16 * 16 * 3)


def test_patchify_channel_interleaving_is_row_major_channels_last():
    image = np.arange(2 * 2 * 3).reshape(2, 2, 3)
    seq = patchify(image, 2)
    assert list(seq.vectors[0]) == list(range(12))


def test_patchify_round_trip():
    rng = np.random.default_rng(2)
    for h, w, c, p in ((32, 48, 3, 16), (20, 20, 1, 5), (6, 9, 4, 3)):
        image = rng.random((h, w, c)) if c > 1 else rng.random((h, w))
        assert np.array_equal(unpatchify(patchify(image, p)), image)


def test_softmax_equal_logits_uniform():
    probs = probabilities_from_logits(np.zeros(21), "softmax")
    assert probs == pytest.approx(np.full(21, 1 / 21), rel=1e-12)


def test_sigmoid_zero_logit_half():
    for t in (0.3, 1.0, 7.5):
        assert probabilities_from_logits(np.array([0.0]), "sigmoid", t)[0] == 0.5


def test_softmax_ln2_closed_form():
    probs = probabilities_from_logits(np.array([math.log(2), 0.0]), "softmax")
    assert probs == pytest.approx([2 / 3, 1 / 3], rel=1e-12)


def test_probabilities_reject_bad_arguments():
    with pytest.raises(ValueError, match="temperature"):
        probabilities_from_logits(np.zeros(3), "softmax", 0.0)
    with pytest.raises(ValueError, match="mode"):
        probabilities_from_logits(np.zeros(3), "argmax")


@settings(max_examples=100, deadline=None)
@given(
    logits=arrays(np.float64, 21, elements=st.floats(-30, 30)),
    temperature=st.floats(0.05, 20),
)
def test_softmax_sums_to_one_and_argmax_invariant(logits, temperature):
    base = probabilities_from_logits(logits, "softmax", 1.0)
    scaled = probabilities_from_logits(logits, "softmax", temperature)
    assert abs(scaled.sum() - 1.0) < 1e-9
    assert int(np.argmax(base)) == int(np.argmax(scaled))


# Reference squashes, each one whole-array expression: the in-place steps
# must give exactly their bits.
def _sigmoid_oracle(z):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))


def _softmax_oracle(z):
    z = np.asarray(z, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _probabilities_oracle(logits, mode, temperature):
    scaled = np.asarray(logits, dtype=float) / temperature
    return _sigmoid_oracle(scaled) if mode == "sigmoid" else _softmax_oracle(scaled)


def _same_bits(got, want) -> bool:
    return (
        type(got) is type(want)
        and np.shape(got) == np.shape(want)
        and np.asarray(got).tobytes() == np.asarray(want).tobytes()
    )


@settings(max_examples=200, deadline=None)
@given(
    logits=arrays(
        np.float64,
        array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=21),
        elements=st.one_of(st.floats(-30, 30), st.floats(-1e300, 1e300)),
    ),
    temperature=st.sampled_from([0.5, 1.0, 3.0]),
    mode=st.sampled_from(["sigmoid", "softmax"]),
)
def test_in_place_squash_is_bitwise_equal_to_the_whole_array_expressions(
    logits, temperature, mode
):
    before = logits.copy()
    assert _same_bits(
        probabilities_from_logits(logits, mode, temperature),
        _probabilities_oracle(logits, mode, temperature),
    )
    assert logits.tobytes() == before.tobytes()


@pytest.mark.parametrize("value", [0.7, -800.0, np.float64(-2.5), np.array(1.25), [0.3, -4.0, 12.0]])
def test_sigmoid_takes_scalars_0d_arrays_and_lists(value):
    for temperature in (0.5, 1.0, 3.0):
        assert _same_bits(
            probabilities_from_logits(value, "sigmoid", temperature),
            _probabilities_oracle(value, "sigmoid", temperature),
        )


@pytest.mark.parametrize("value", [[0.3, -4.0, 12.0], [[1.0, 2.0], [3.0, -1.0]]])
def test_softmax_takes_lists(value):
    for temperature in (0.5, 1.0, 3.0):
        assert _same_bits(
            probabilities_from_logits(value, "softmax", temperature),
            _probabilities_oracle(value, "softmax", temperature),
        )


def test_softmax_shift_overflow_is_silent_and_exact():
    z = np.array([[1e308] + [-1e308] * 20, [-1e308] * 20 + [1e308]])
    with np.errstate(all="raise"):
        probs = probabilities_from_logits(z, "softmax")
    assert probs.tolist() == [[1.0] + [0.0] * 20, [0.0] * 20 + [1.0]]


def test_threshold_detect_basic():
    probs = np.zeros(21)
    probs[0], probs[1], probs[2] = 0.6, 0.4, 0.51
    assert np.flatnonzero(threshold_detect(probs, 0.5)).tolist() == [0, 2]


def test_threshold_is_strict_at_ties():
    assert not threshold_detect(np.full(21, 0.5), 0.5).any()


def test_threshold_per_class_vector():
    probs = np.array([0.6, 0.6, 0.6])
    thr = np.array([0.5, 0.7, 0.6])
    assert np.flatnonzero(threshold_detect(probs, thr)).tolist() == [0]


def test_threshold_against_brute_force_oracle():
    rng = random.Random(4)
    for _ in range(1000):
        probs = np.array([rng.random() for _ in range(21)])
        thr = rng.random()
        expected = {i for i, p in enumerate(probs) if p > thr}
        assert set(np.flatnonzero(threshold_detect(probs, thr)).tolist()) == expected


def test_class_weights_symmetry():
    w = class_weights(np.array([1, 1]), epsilon=1e-12)
    assert w.weights == pytest.approx((0.5, 0.5), abs=1e-9)


def test_class_weights_hand_computation():
    w = class_weights(np.array([9, 1]), epsilon=0)
    assert w.weights == pytest.approx((0.1, 0.9), abs=1e-12)


def test_class_weights_always_normalized():
    rng = random.Random(8)
    for _ in range(200):
        freq = np.array([rng.randint(0, 1000) for _ in range(21)])
        w = class_weights(freq, epsilon=1e-6)
        assert abs(sum(w.weights) - 1.0) <= 1e-9


def test_class_weights_scale_invariant_without_epsilon():
    freq = np.array([3, 5, 9])
    a = class_weights(freq, epsilon=0).weights
    b = class_weights(freq * 2, epsilon=0).weights
    assert a == pytest.approx(b, rel=1e-12)


def test_class_weights_zero_count_needs_epsilon():
    with pytest.raises(ValueError, match="epsilon"):
        class_weights(np.array([0, 1]), epsilon=0)
    w = class_weights(np.array([0, 1]), epsilon=1e-6)
    assert w.weights[0] > w.weights[1]


def test_class_weights_sum_enforced():
    with pytest.raises(ValueError, match="sum to 1"):
        ClassWeights(weights=(0.2, 0.2), epsilon=1e-6)


def test_weighted_bce_saturated_correct_case():
    n = 21
    w = np.full(n, 1.0 / n)
    loss = weighted_bce(np.ones(n), np.full(n, 20.0), w)
    assert 0.0 <= loss <= 1e-8


def test_weighted_bce_single_class_closed_form():
    loss = weighted_bce(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    assert loss == pytest.approx(math.log(2), rel=1e-12)


def test_weighted_bce_matches_term_by_term_oracle():
    rng = random.Random(12)
    for _ in range(1000):
        n = rng.randint(1, 21)
        y = np.array([rng.randint(0, 1) for _ in range(n)], dtype=float)
        z = np.array([rng.uniform(-10, 10) for _ in range(n)])
        w = np.array([rng.random() + 1e-3 for _ in range(n)])
        w = w / w.sum()
        expected = 0.0
        for i in range(n):
            p = 1.0 / (1.0 + math.exp(-z[i]))
            p = min(max(p, 1e-12), 1 - 1e-12)
            expected -= w[i] * (y[i] * math.log(p) + (1 - y[i]) * math.log(1 - p))
        assert weighted_bce(y, z, w) == pytest.approx(expected, abs=1e-12)


def test_weighted_bce_nonnegative_and_zero_only_when_saturated():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 10)
        y = np.array([rng.randint(0, 1) for _ in range(n)], dtype=float)
        z = np.array([rng.uniform(-5, 5) for _ in range(n)])
        w = np.full(n, 1.0 / n)
        assert weighted_bce(y, z, w) > 0.0


def test_truth_bits_layout(vocab):
    f = frame(
        vocab,
        "V",
        0,
        "preparation",
        [("grasper", "grasp", "gallbladder"), ("hook",)],
    )
    bits = truth_bits(f, vocab)
    assert bits.shape == (21,)
    assert bits[vocab.index_of("instruments", "grasper")] == 1
    assert bits[vocab.index_of("instruments", "hook")] == 1
    assert bits[6 + vocab.index_of("targets", "gallbladder")] == 1
    assert bits.sum() == 3


def test_logits_file_round_trip(tmp_path):
    records = [
        LogitsRecord("V", 0, tuple(float(i) for i in range(21))),
        LogitsRecord("V", 1, tuple(float(-i) for i in range(21))),
    ]
    path = tmp_path / "logits.jsonl"
    assert write_logits(path, records) == 2
    table = read_logits(path)
    assert len(table) == 2
    assert table.names == ("V",)
    assert table.codes.tolist() == [0, 0]
    assert table.frames.tolist() == [0, 1]
    assert table.values.tolist() == [list(r.logits) for r in records]
    assert table.keys() == [("V", 0), ("V", 1)]


def test_logits_record_validation():
    with pytest.raises(ValueError, match="21"):
        LogitsRecord("V", 0, (1.0, 2.0))
    with pytest.raises(ValueError, match="finite"):
        LogitsRecord("V", 0, tuple([float("nan")] + [0.0] * 20))


def test_threshold_matrix_matches_each_row():
    rng = np.random.default_rng(5)
    probs = rng.random((300, 21))
    thr = rng.random(21)
    mask = threshold_detect(probs, thr)
    assert mask.shape == probs.shape and mask.dtype == bool
    for row, hits in zip(probs, mask):
        assert np.array_equal(threshold_detect(row, thr), hits)


@pytest.mark.parametrize("mode", ["sigmoid", "softmax"])
def test_matrix_squash_is_bitwise_equal_to_per_row(mode):
    """One call on the (N, 21) matrix gives exactly the per-frame floats."""
    rng = np.random.default_rng(11)
    logits = np.concatenate(
        [rng.normal(0.0, 3.0, (2000, 21)), rng.uniform(-800.0, 800.0, (50, 21))]
    )
    for temperature in (1.0, 0.37, 2.0):
        matrix = probabilities_from_logits(logits, mode, temperature)
        rows = np.array([probabilities_from_logits(z, mode, temperature) for z in logits])
        assert matrix.tobytes() == rows.tobytes()


def test_logits_table_select_and_keys(tmp_path):
    records = [LogitsRecord(v, f, tuple([float(f)] * 21)) for v in ("A", "B") for f in (0, 1)]
    write_logits(tmp_path / "logits.jsonl", records)
    table = read_logits(tmp_path / "logits.jsonl")
    subset = table.select(table.codes == table.names.index("B"))
    assert subset.keys() == [("B", 0), ("B", 1)]
    assert subset.values[:, 0].tolist() == [0.0, 1.0]
    assert table.select(np.array([3, 0])).keys() == [("B", 1), ("A", 0)]


GOOD_ROW = '{"video_id": "V", "frame": %d, "logits": [%s]}' % (0, ", ".join(["0.5"] * 21))


@pytest.mark.parametrize(
    ("bad_line", "message"),
    [
        ('{"video_id": "V", "frame": 7, "logits": [1.0, 2.0]}', "expected 21 logits, got 2"),
        ('{"video_id": "V", "frame": 7, "logits": [NaN%s]}' % (", 0" * 20), "non-finite logit for V@7"),
        ('{"video_id": "V", "frame": 7, "logits": [Infinity%s]}' % (", 0" * 20), "non-finite logit"),
        ('{"video_id": "V", "frame": 7, "logits": "abc"}', "logits must be a list, got str"),
        ('{"video_id": "V", "frame": 7, "logits": 3.5}', "logits must be a list, got float"),
        ('{"video_id": "V", "frame": 7, "logits": [%s' % ", ".join(["0"] * 21), "malformed record"),
        ('{"video_id": "V", "frame": 0, "logits": [%s]}' % ", ".join(["1"] * 21), "duplicate logits row for V@0"),
        ('{"video_id": "V", "frame": 7, "logits": [%s]}' % ", ".join(['"x"'] * 21), "logits must be numbers"),
        ('{"video_id": "V", "frame": 7, "logits": [%s]}' % ", ".join(["[1]"] * 21), "logits must be numbers"),
        ('{"video_id": "V", "frame": 7, "logits": [true%s]}' % (", 0" * 20), "logits must be numbers"),
        ('{"video_id": "V", "frame": 7, "logits": ["1.5"%s]}' % (", 0" * 20), "logits must be numbers"),
        ('{"video_id": "V", "frame": 7, "logits": [%d%s]}' % (10**400, ", 0" * 20), "logits must be numbers"),
        ('{"video_id": "V", "frame": -1, "logits": [%s]}' % ", ".join(["1"] * 21), "nonnegative integer"),
        ('{"video_id": "V", "frame": 2.0, "logits": []}', "nonnegative integer"),
        ('{"video_id": "V", "frame": %d, "logits": [%s]}' % (10**30, ", ".join(["1"] * 21)), "nonnegative integer"),
        ('{"video_id": 3, "frame": 7, "logits": []}', "video_id must be a string"),
        ('{"video_id": "V", "logits": []}', "missing field(s) ['frame']"),
        ("[1, 2, 3]", "record must be a JSON object"),
    ],
)
def test_read_logits_reports_first_bad_record_with_line(tmp_path, bad_line, message):
    path = tmp_path / "logits.jsonl"
    # A blank line before the bad record: line numbers count it, indices do not.
    path.write_text(GOOD_ROW + "\n\n" + bad_line + "\n" + GOOD_ROW.replace(": 0,", ": 9,") + "\n")
    with pytest.raises(RecordError) as exc:
        read_logits(path)
    assert exc.value.source == str(path)
    assert exc.value.line == 3
    assert str(exc.value).startswith(f"{path}:3: ")
    assert message in str(exc.value)


def test_read_logits_empty_file_is_an_empty_table(tmp_path):
    path = tmp_path / "logits.jsonl"
    path.write_text("\n")
    table = read_logits(path)
    assert len(table) == 0
    assert table.values.shape == (0, 21)


@pytest.mark.parametrize(
    "bad_row",
    [
        '{"video_id": "V", "frame": 7, "logits": [1.0, 2.0]}',
        '{"video_id": "V", "frame": 7, "logits": [%s]}' % ", ".join(['"x"'] * 21),
    ],
)
def test_read_logits_raises_at_the_first_faulty_line(tmp_path, bad_row):
    # A row fault comes before a malformed line further on, and raises first.
    path = tmp_path / "logits.jsonl"
    path.write_text(GOOD_ROW + "\n\n" + bad_row + "\n" + GOOD_ROW[:-1] + "\n")
    with pytest.raises(RecordError) as exc:
        read_logits(path)
    assert exc.value.line == 3


# Memory guards: the traced peak of each step on a 20,000-row table, as a
# multiple of the bytes of its (N, 21) float matrix.
GUARD_ROWS = 20_000


@pytest.fixture(scope="module")
def guard_logits():
    return np.random.default_rng(3).normal(0.0, 3.0, (GUARD_ROWS, 21))


@pytest.mark.parametrize(
    "squash, bound",
    [
        (lambda z: probabilities_from_logits(z, "sigmoid"), 1.1),
        (lambda z: probabilities_from_logits(z, "softmax", 2.0), 2.1),
    ],
    ids=["sigmoid-mode", "softmax-mode"],
)
def test_squash_peak_is_one_copy_of_the_matrix(guard_logits, squash, bound):
    assert traced_peak(lambda: squash(guard_logits)) <= bound * guard_logits.nbytes


@pytest.mark.parametrize("mode, temperature", [("sigmoid", 1.0), ("softmax", 2.0)])
def test_squashing_into_the_logits_matches_the_copy(guard_logits, mode, temperature):
    expected = probabilities_from_logits(guard_logits, mode, temperature)
    z = guard_logits.copy()
    peak = traced_peak(lambda: probabilities_from_logits(z, mode, temperature, out=z))
    assert peak < 0.1 * z.nbytes
    assert np.array_equal(z, expected)
    z = guard_logits.copy()
    assert probabilities_from_logits(z, mode, temperature, out=z) is z


def test_write_detections_peak_is_a_small_share_of_the_matrix(tmp_path, vocab, guard_logits):
    names = tuple(f"VID{i:02d}" for i in range(50))
    rows = np.arange(GUARD_ROWS, dtype=np.int64)
    table = LogitsTable(names, rows % len(names), rows, guard_logits)
    probs = probabilities_from_logits(guard_logits)
    detected = threshold_detect(probs)
    path = tmp_path / "detections.jsonl"
    peak = traced_peak(lambda: write_detections(path, table, probs, detected, vocab))
    assert peak < 0.25 * guard_logits.nbytes


def test_annotation_table_rows_truth_and_join(vocab):
    records = make_corpus(vocab, n_videos=4, n_frames=30, seed=4)
    table = AnnotationTable.from_records(records[::-1], vocab)
    assert table.video_ids == ("VID01", "VID02", "VID03", "VID04")
    assert table.starts.tolist() == [0, 30, 60, 90, 120]
    assert table.truth.dtype == bool
    assert table.truth.tolist() == [
        truth_bits(f, vocab).astype(bool).tolist() for r in records for f in r.frames
    ]
    assert table.keys(np.array([31, 0, 119])) == [("VID02", 1), ("VID01", 0), ("VID04", 29)]
    keys = [("VID03", 2), ("VID09", 0), ("VID01", 30), ("VID01", -1), ("VID04", 29), ("VID01", 0)]
    names, codes, _, _ = rank_keys([v for v, _ in keys], np.array([f for _, f in keys]))
    logits = LogitsTable(tuple(names), codes, np.array([f for _, f in keys]), np.zeros((len(keys), 21)))
    assert table.rows_of(logits).tolist() == [62, -1, -1, -1, 119, 0]


def test_rank_keys_orders_rows_and_finds_the_first_repeat():
    ids = ["B", "A\0", "A", "B", "A\0", "A"]
    frames = np.array([1, 0, 0, 1, 0, 1])
    names, codes, order, repeat = rank_keys(ids, frames)
    assert names == ["A", "A\0", "B"]
    assert codes.dtype == np.int64 and codes.tolist() == [2, 1, 0, 2, 1, 0]
    assert order.tolist() == [2, 5, 1, 4, 0, 3]  # rows of one key in index order
    assert repeat == 3  # row 3 repeats row 0; row 4, which repeats row 1, comes after it
    assert rank_keys(["A", "B"], np.array([0, 0]))[3] is None
    assert rank_keys([], np.array([], dtype=np.int64))[3] is None


def _logits_lines(keys) -> str:
    return "".join(
        '{"video_id": %s, "frame": %d, "logits": [%s]}\n' % (json.dumps(v), f, ", ".join(["0.5"] * 21))
        for v, f in keys
    )


def test_logits_ids_that_differ_by_a_trailing_nul_are_two_videos(tmp_path, vocab):
    path = tmp_path / "logits.jsonl"
    path.write_text(_logits_lines([("V", 0), ("V\0", 0)]))
    table = read_logits(path)
    assert table.names == ("V", "V\0")
    assert table.keys() == [("V", 0), ("V\0", 0)]
    records = [VideoRecord(v, (frame(vocab, v, 0, "preparation"),)) for v in ("V\0", "V")]
    annotations = AnnotationTable.from_records(records, vocab)
    assert annotations.video_ids == ("V", "V\0")
    assert annotations.rows_of(table).tolist() == [0, 1]


def test_a_logits_key_that_differs_by_a_trailing_nul_is_not_a_repeat(tmp_path):
    path = tmp_path / "logits.jsonl"
    path.write_text(_logits_lines([("V", 0), ("V\0", 0), ("V\0", 0)]))
    with pytest.raises(RecordError) as exc:
        read_logits(path)
    assert exc.value.line == 3
    assert "duplicate logits row for V\0@0" in str(exc.value)


@pytest.fixture(scope="module")
def guard_config(tmp_path_factory, vocab):
    """A config over GUARD_ROWS annotated frames and their logits, and the logits matrix's bytes."""
    root = tmp_path_factory.mktemp("guard")
    records = make_corpus(vocab, n_videos=10, n_frames=GUARD_ROWS // 10, seed=4)
    write_annotations(root / "annotations.jsonl", records, vocab)
    write_logits(root / "logits.jsonl", make_logits(records, vocab, seed=5))
    paths = {name: str(root / f"{name}.jsonl") for name in ("annotations", "logits")}
    config = config_from_mapping({"paths": {**paths, "output_dir": str(root / "out")}})
    cli._bind_deferred()
    return config, GUARD_ROWS * len(vocab.detection_classes) * 8


def test_calibrate_peak_is_below_two_logits_matrices(guard_config):
    config, logits_bytes = guard_config
    assert traced_peak(lambda: cli.cmd_calibrate(config, None)) <= 2 * logits_bytes


def test_evaluate_detection_peak_is_below_two_logits_matrices(guard_config):
    config, logits_bytes = guard_config
    assert traced_peak(lambda: cli.cmd_evaluate(config, None)) <= 2 * logits_bytes
