from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import fields, replace
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgreport import metrics
from surgreport.detection import threshold_detect
from surgreport.embeddings import (
    EmbeddedText,
    EmbeddingTable,
    deterministic_token_embeddings,
)
from surgreport.metrics import (
    MetricReport,
    aggregate_caption_metrics,
    ap_from_ranked,
    average_precision,
    bertscore,
    bleu,
    classification_metrics,
    lcs_length,
    ngram_counts,
    rouge,
    tokenize,
)

from conftest import traced_peak


def test_tokenize_lowercases_and_separates_punctuation():
    text = "First, during the 22-second preparation phase, the grasper holds the gallbladder."
    tokens = tokenize(text)
    assert tokens[0] == "first"
    assert tokens[1] == ","
    assert "22-second" in tokens
    assert tokens[-1] == "."


_PUNCTUATION_ORACLE = set(".,;:!?\"'()[]{}")


def _tokenize_oracle(text: str) -> list[str]:
    """The per-character tokenizer that the per-mark ``str.replace`` one replaced."""
    out = []
    for ch in text.lower():
        if ch in _PUNCTUATION_ORACLE:
            out.append(f" {ch} ")
        else:
            out.append(ch)
    return "".join(out).split()


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=st.one_of(st.sampled_from(".,;:!?\"'()[]{} \t\nAbİß_-"), st.characters())))
def test_tokenize_equals_the_per_character_oracle(text):
    assert tokenize(text) == _tokenize_oracle(text)


def test_tokenize_preserves_annotation_tokens():
    assert tokenize("the cystic_duct near calot-triangle-dissection") == [
        "the",
        "cystic_duct",
        "near",
        "calot-triangle-dissection",
    ]


def test_classification_metrics_identity():
    truth = [np.array([1, 0, 1]), np.array([0, 1, 0])]
    predicted = [np.array([1, 0, 1]), np.array([0, 1, 0])]
    m = classification_metrics(predicted, truth)
    assert m == (1.0, 1.0, 1.0, 1.0)


def test_classification_metrics_all_negative_predictions():
    truth = [np.array([1, 0]), np.array([1, 1])]
    predicted = [np.zeros(2), np.zeros(2)]
    m = classification_metrics(predicted, truth)
    assert m.precision == 0.0
    assert m.recall == 0.0
    assert m.f1 == 0.0
    assert m.accuracy == pytest.approx(0.25)


def test_classification_metrics_accepts_detection_sets():
    """A detection set is the boolean mask that threshold_detect returns."""
    truth = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    predicted = threshold_detect(np.array([[0.9, 0.1, 0.2], [0.4, 0.8, 0.7]]), 0.5)
    assert predicted.dtype == bool
    assert classification_metrics(predicted, truth).accuracy == 1.0
    assert classification_metrics(predicted, truth) == classification_metrics(
        predicted.astype(float), truth
    )


def test_classification_metrics_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="matrices"):
        classification_metrics(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ValueError, match="matrices"):
        classification_metrics(np.zeros((0, 3)), np.zeros((0, 3)))


def test_classification_metrics_against_confusion_oracle():
    rng = random.Random(17)
    truth = [np.array([rng.randint(0, 1) for _ in range(21)], dtype=float) for _ in range(100)]
    predicted = [np.array([rng.randint(0, 1) for _ in range(21)], dtype=float) for _ in range(100)]
    m = classification_metrics(predicted, truth)
    tp = fp = fn = tn = 0
    for p_row, t_row in zip(predicted, truth):
        for p, t in zip(p_row, t_row):
            if p and t:
                tp += 1
            elif p and not t:
                fp += 1
            elif not p and t:
                fn += 1
            else:
                tn += 1
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    assert m.precision == pytest.approx(precision, abs=1e-12)
    assert m.recall == pytest.approx(recall, abs=1e-12)
    assert m.f1 == pytest.approx(2 * precision * recall / (precision + recall), abs=1e-12)
    assert m.accuracy == pytest.approx((tp + tn) / (tp + tn + fp + fn), abs=1e-12)


def sweep_oracle(pairs):
    """Threshold sweep over distinct scores, straight from the definition."""
    n_pos = sum(rel for _, rel in pairs)
    if n_pos == 0:
        return None
    thresholds = sorted({score for score, _ in pairs}, reverse=True)
    ap = 0.0
    previous_recall = 0.0
    for threshold in thresholds:
        kept = [(s, r) for s, r in pairs if s >= threshold]
        tp = sum(r for _, r in kept)
        precision = tp / len(kept)
        recall = tp / n_pos
        ap += (recall - previous_recall) * precision
        previous_recall = recall
    return ap


def test_ap_perfect_ranking():
    pairs = [(0.9, 1), (0.8, 1), (0.3, 0), (0.2, 0)]
    assert ap_from_ranked(pairs) == pytest.approx(1.0)


def test_ap_hand_sweep():
    pairs = [(0.9, 1), (0.5, 0), (0.1, 1)]
    assert ap_from_ranked(pairs) == pytest.approx(1 * 0.5 + 0.5 * (2 / 3), abs=1e-12)


def test_ap_zero_positives_is_none():
    assert ap_from_ranked([(0.5, 0), (0.1, 0)]) is None
    assert ap_from_ranked([]) is None


def test_ap_matches_exhaustive_enumeration_up_to_ten_items():
    scores = [1.0 - 0.05 * i for i in range(10)]
    for n in range(1, 11):
        for bits in itertools.product((0, 1), repeat=n):
            pairs = list(zip(scores[:n], bits))
            expected = sweep_oracle(pairs)
            actual = ap_from_ranked(pairs)
            if expected is None:
                assert actual is None
            else:
                assert actual == pytest.approx(expected, abs=1e-12)


def test_ap_handles_tied_scores_as_one_threshold():
    pairs = [(0.5, 1), (0.5, 0)]
    assert ap_from_ranked(pairs) == pytest.approx(sweep_oracle(pairs), abs=1e-12)


def test_ap_random_scores_approach_prevalence():
    rng = random.Random(23)
    pairs = [(rng.random(), 1 if rng.random() < 0.3 else 0) for _ in range(10_000)]
    prevalence = sum(r for _, r in pairs) / len(pairs)
    assert ap_from_ranked(pairs) == pytest.approx(prevalence, abs=0.05)


def test_average_precision_group_means():
    # Two frames; classes 0-19 rank their one positive first, class 20 has none.
    scores = np.array([[0.9] * 20 + [0.5], [0.1] * 20 + [0.5]])
    truth = np.array([[1] * 20 + [0], [0] * 20 + [0]])
    result = average_precision(scores, truth, n_instruments=6)
    assert result.instruments == pytest.approx(1.0)
    assert result.targets == pytest.approx(1.0)
    assert result.excluded == (20,)
    assert result.per_class[20] is None


def test_average_precision_matrix_matches_per_class_pairs():
    """Each column of the matrix form scores exactly as ap_from_ranked on its pairs."""
    rng = np.random.default_rng(29)
    scores = np.round(rng.random((400, 21)), 2)  # rounding makes ties
    truth = (rng.random((400, 21)) < 0.2).astype(float)
    truth[:, 3] = 0.0
    result = average_precision(scores, truth, n_instruments=6)
    for k in range(21):
        pairs = list(zip(scores[:, k].tolist(), truth[:, k].astype(int).tolist()))
        assert result.per_class[k] == ap_from_ranked(pairs)
    assert result.excluded == (3,)
    assert result.instruments == float(np.mean([result.per_class[k] for k in (0, 1, 2, 4, 5)]))


def test_boolean_truth_scores_bitwise_as_float_truth():
    rng = np.random.default_rng(31)
    scores = np.round(rng.random((500, 21)), 2)
    truth = rng.random((500, 21)) < 0.2
    truth[:, 5] = False
    predicted = threshold_detect(scores, 0.5)
    assert average_precision(scores, truth) == average_precision(scores, truth.astype(float))
    assert classification_metrics(predicted, truth) == classification_metrics(
        predicted.astype(float), truth.astype(float)
    )


def test_average_precision_makes_no_copy_of_the_whole_truth():
    rng = np.random.default_rng(37)
    scores = rng.random((20_000, 21))
    truth = rng.random((20_000, 21)) < 0.2
    # One float column per class at a time; the whole float truth would be scores.nbytes.
    assert traced_peak(lambda: average_precision(scores, truth)) < 0.75 * scores.nbytes


def bleu_oracle(candidate, reference, max_n=4):
    if not candidate:
        return 0.0
    precisions = []
    for n in range(1, max_n + 1):
        cand = [tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1)]
        ref = [tuple(reference[i : i + n]) for i in range(len(reference) - n + 1)]
        matched = 0
        for gram in set(cand):
            matched += min(cand.count(gram), ref.count(gram))
        if not cand or matched == 0:
            return 0.0
        precisions.append(matched / len(cand))
    bp = 1.0 if len(candidate) > len(reference) else math.exp(1 - len(reference) / len(candidate))
    return bp * math.exp(sum(math.log(p) for p in precisions) / max_n)


def test_bleu_identity():
    tokens = tokenize("the grasper is retracting the gallbladder")
    assert bleu(tokens, tokens) == 1.0


def test_bleu_disjoint_unigrams():
    assert bleu(["alpha", "beta"], ["gamma", "delta"]) == 0.0


def test_bleu_empty_candidate():
    assert bleu([], ["a", "b"]) == 0.0


def test_bleu_close_captions_match_oracle():
    candidate = tokenize("the grasper is retracting the gallbladder")
    reference = tokenize("the grasper is retracting the liver")
    assert bleu(candidate, reference) == pytest.approx(bleu_oracle(candidate, reference), abs=1e-12)


def test_bleu_brevity_penalty_only_when_short():
    reference = ["a", "b", "c", "d", "e"]
    longer = ["a", "b", "c", "d", "e", "f"]
    assert bleu(longer, reference) == pytest.approx(bleu_oracle(longer, reference), abs=1e-12)


def test_bleu_smoothing_flag():
    candidate = ["the", "hook"]
    reference = ["the", "grasper"]
    assert bleu(candidate, reference) == 0.0
    smoothed = bleu(candidate, reference, smoothing=True)
    assert 0.0 < smoothed < 1.0


def test_rouge_identity_all_variants():
    tokens = tokenize("the hook is dissecting the gallbladder")
    for variant in ("r1", "r2", "rL"):
        assert rouge(tokens, tokens, variant) == 1.0


def test_rouge1_hand_count():
    assert rouge(["the", "cat"], ["the", "cat", "sat"], "r1") == pytest.approx(2 / 3)


def test_rouge2_hand_count():
    assert rouge(["the", "cat"], ["the", "cat", "sat"], "r2") == pytest.approx(1 / 2)


def test_rouge_empty_reference():
    with pytest.raises(ValueError, match="reference"):
        rouge(["a"], [], "r1")


def lcs_oracle(a, b):
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def test_rouge_l_matches_lcs_oracle():
    rng = random.Random(31)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(1000):
        a = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        b = [rng.choice(alphabet) for _ in range(rng.randint(1, 12))]
        assert lcs_length(a, b) == lcs_oracle(a, b)
        assert rouge(a, b, "rL") == pytest.approx(lcs_oracle(a, b) / len(b), abs=1e-12)


@pytest.mark.parametrize("alphabet_size", [2, 30, 200])
def test_lcs_matches_oracle_across_machine_words(alphabet_size):
    # Lengths around 64 and 128 put the bit vectors' carries across word edges.
    rng = random.Random(alphabet_size)
    alphabet = [f"t{i}" for i in range(alphabet_size)]
    lengths = [0, 1, 2, 63, 64, 65, 127, 128, 129, 300]
    cases = [(m, n) for m in lengths for n in (1, 63, 64, 65, 128, 300)]
    cases += [(rng.randint(0, 300), rng.randint(0, 300)) for _ in range(12)]
    for m, n in cases:
        a = [rng.choice(alphabet) for _ in range(m)]
        b = [rng.choice(alphabet) for _ in range(n)]
        assert lcs_length(a, b) == lcs_oracle(a, b), (m, n)
        assert lcs_length(b, a) == lcs_oracle(a, b), (m, n)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from("abcde"), max_size=150),
    st.lists(st.sampled_from("abcde"), max_size=150),
)
def test_lcs_property_matches_oracle(a, b):
    assert lcs_length(a, b) == lcs_oracle(a, b)


def test_bertscore_identical_embeddings():
    vectors = np.eye(4)[:3]
    a = EmbeddedText(("x", "y", "z"), vectors)
    b = EmbeddedText(("x", "y", "z"), vectors.copy())
    assert bertscore(a, b) == (1.0, 1.0, 1.0)


def test_bertscore_orthogonal_embeddings():
    a = EmbeddedText(("x",), np.array([[1.0, 0.0]]))
    b = EmbeddedText(("y",), np.array([[0.0, 1.0]]))
    assert bertscore(a, b) == (0.0, 0.0, 0.0)


def test_bertscore_hand_built_vs_pairwise_oracle():
    cand = EmbeddedText(("a", "b"), np.array([[1.0, 0.0], [0.6, 0.8]]))
    ref = EmbeddedText(("u", "v", "w"), np.array([[0.0, 1.0], [1.0, 0.0], [0.8, 0.6]]))
    result = bertscore(cand, ref)
    sims = cand.vectors @ ref.vectors.T
    precision = np.mean([max(row) for row in sims])
    recall = np.mean([max(col) for col in sims.T])
    assert result.precision == pytest.approx(precision, abs=1e-12)
    assert result.recall == pytest.approx(recall, abs=1e-12)
    assert result.f1 == pytest.approx(2 * precision * recall / (precision + recall), abs=1e-12)


def test_bertscore_symmetry_under_swap():
    rng = np.random.default_rng(8)
    a = EmbeddedText(tuple("abc"), rng.normal(size=(3, 6)))
    b = EmbeddedText(tuple("wxyz"), rng.normal(size=(4, 6)))
    forward = bertscore(a, b)
    backward = bertscore(b, a)
    assert forward.precision == pytest.approx(backward.recall)
    assert forward.recall == pytest.approx(backward.precision)
    assert forward.f1 == pytest.approx(backward.f1)


def test_bertscore_dimension_mismatch_and_empty():
    a = EmbeddedText(("x",), np.array([[1.0, 0.0]]))
    c = EmbeddedText(("y",), np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="dimension"):
        bertscore(a, c)
    empty = EmbeddedText((), np.zeros((0, 2)))
    with pytest.raises(ValueError, match="at least one token"):
        bertscore(a, empty)
    with pytest.raises(ValueError, match="2-D"):
        EmbeddedText((), np.zeros(0))


def test_ngram_counts():
    assert ngram_counts(["a", "b", "a", "b"], 2) == {("a", "b"): 2, ("b", "a"): 1}


def test_aggregate_caption_metrics_identity_corpus():
    pairs = [
        ("During phase preparation, no instrument is active",) * 2,
        ("the hook is dissecting the gallbladder",) * 2,
    ]
    report = aggregate_caption_metrics(pairs)
    assert report.bleu == 1.0
    assert report.rouge1 == 1.0
    assert report.rouge2 == 1.0
    assert report.rougeL == 1.0
    assert report.bert_f1 is None


def test_aggregate_caption_metrics_perturbed_below_one():
    pairs = [
        (
            "During phase preparation, the grasper is grasping the liver",
            "During phase preparation, the grasper is grasping the gallbladder",
        )
    ]
    report = aggregate_caption_metrics(pairs)
    assert report.bleu < 1.0
    assert report.rouge1 < 1.0


def test_metric_report_record_fields():
    report = aggregate_caption_metrics([("a b c d", "a b c d")])
    record = report.to_record()
    assert list(record) == [field.name for field in fields(report)]
    assert record["precision"] is None


def _random_caption_pairs(rng, count):
    words = "the grasper hook is retracting dissecting liver gallbladder , .".split()
    return [
        (
            " ".join(rng.choice(words) for _ in range(rng.randint(0, 90))),
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 90))),
        )
        for _ in range(count)
    ]


def _mean_of_public_scores(pairs):
    scores = {"bleu": [], "rouge1": [], "rouge2": [], "rougeL": []}
    for generated, reference in pairs:
        cand, ref = tokenize(generated), tokenize(reference)
        scores["bleu"].append(bleu(cand, ref))
        scores["rouge1"].append(rouge(cand, ref, "r1"))
        scores["rouge2"].append(rouge(cand, ref, "r2"))
        scores["rougeL"].append(rouge(cand, ref, "rL"))
    return {name: float(np.mean(values)) for name, values in scores.items()}


@pytest.mark.parametrize(
    "pairs",
    [
        pytest.param([("the hook", "the hook is dissecting"), ("a b c", "a b c")], id="short"),
        pytest.param([("", "the grasper is retracting the liver")], id="empty-candidate"),
        pytest.param([("the hook is dissecting the gallbladder",) * 2] * 3, id="identical"),
        pytest.param(
            [
                ("the the the the grasper grasper", "the grasper holds the the liver"),
                ("a b a b a b a b", "a b a b c"),
            ],
            id="repeated-tokens",
        ),
        pytest.param([("liver liver", "liver"), ("the liver", "gallbladder")], id="one-token-ref"),
        pytest.param(_random_caption_pairs(random.Random(41), 60), id="random"),
    ],
)
def test_aggregate_equals_mean_of_public_scores(pairs):
    report = aggregate_caption_metrics(pairs)
    expected = _mean_of_public_scores(pairs)
    assert {name: getattr(report, name) for name in expected} == expected


def test_aggregate_rejects_empty_reference():
    with pytest.raises(ValueError, match="reference"):
        aggregate_caption_metrics([("a b", " ")])


# The per-pair ``Counter`` scoring that the columnar, deduplicated scoring
# replaced, kept verbatim (names suffixed) as the oracle for it.
_BLEU_ORDERS = range(1, 5)


def _overlap_oracle(counts: Counter, limits: Counter) -> int:
    """Clipped matches: each n-gram of ``counts`` counts at most as often as in ``limits``."""
    return sum(min(count, limits[gram]) for gram, count in counts.items())


def _bleu_oracle(
    cand_counts: list[Counter], ref_counts: list[Counter], c: int, r: int, smoothing: bool
) -> float:
    if c == 0:
        return 0.0
    max_n = len(cand_counts)
    log_sum = 0.0
    for n, (cand, ref) in enumerate(zip(cand_counts, ref_counts), start=1):
        total = sum(cand.values())
        matched = _overlap_oracle(cand, ref)
        if matched == 0 and smoothing and n > 1:
            precision = (matched + 1) / (total + 1)
        elif matched == 0 or total == 0:
            return 0.0
        else:
            precision = matched / total
        log_sum += math.log(precision) / max_n
    brevity = 1.0 if c > r else math.exp(1.0 - r / c)
    return brevity * math.exp(log_sum)


def _rouge_n_oracle(cand_counts: Counter, ref_counts: Counter) -> float:
    total = sum(ref_counts.values())
    if total == 0:
        return 0.0
    return _overlap_oracle(ref_counts, cand_counts) / total


def _rouge_l_oracle(candidate: list[str], reference: list[str]) -> float:
    return lcs_length(candidate, reference) / len(reference)


def _aggregate_caption_metrics_oracle(
    pairs: list[tuple[str, str]], embedding_table: EmbeddingTable | None = None
) -> MetricReport:
    if not pairs:
        raise ValueError("cannot aggregate metrics over an empty corpus")
    bleu_scores, r1, r2, rl = [], [], [], []
    bert: list | None = [] if embedding_table is not None else None
    for generated, reference in pairs:
        cand, ref = tokenize(generated), tokenize(reference)
        if not ref:
            raise ValueError("reference must be non-empty")
        cand_counts = [ngram_counts(cand, n) for n in _BLEU_ORDERS]
        ref_counts = [ngram_counts(ref, n) for n in _BLEU_ORDERS]
        bleu_scores.append(
            _bleu_oracle(cand_counts, ref_counts, len(cand), len(ref), smoothing=False)
        )
        r1.append(_rouge_n_oracle(cand_counts[0], ref_counts[0]))
        r2.append(_rouge_n_oracle(cand_counts[1], ref_counts[1]))
        rl.append(_rouge_l_oracle(cand, ref))
        if bert is not None:
            cand_emb = embedding_table.get(cand)
            ref_emb = embedding_table.get(ref)
            if cand_emb is None or ref_emb is None:
                bert = None
            else:
                bert.append(bertscore(cand_emb, ref_emb))
    report = MetricReport(
        bleu=float(np.mean(bleu_scores)),
        rouge1=float(np.mean(r1)),
        rouge2=float(np.mean(r2)),
        rougeL=float(np.mean(rl)),
    )
    if bert:
        report = replace(
            report,
            bert_precision=float(np.mean([b.precision for b in bert])),
            bert_recall=float(np.mean([b.recall for b in bert])),
            bert_f1=float(np.mean([b.f1 for b in bert])),
        )
    return report


_CAPTION_FIELDS = [field.name for field in fields(MetricReport)][:7]


def _outcome(aggregate, pairs, table):
    """The seven caption fields, or the error's type and message."""
    try:
        report = aggregate(pairs, table)
    except ValueError as exc:
        return type(exc), str(exc)
    return {name: getattr(report, name) for name in _CAPTION_FIELDS}


def _gaussian_table(pairs, missing=()):
    """Gaussian (non-basis) embeddings of every non-empty caption but ``missing``."""
    table = EmbeddingTable()
    for text in {text for pair in pairs for text in pair} - set(missing):
        tokens = tokenize(text)
        if tokens:
            table.put(tokens, deterministic_token_embeddings(tokens, dim=8, mode="gaussian"))
    return table


_WORDS = "the grasper hook retracting liver gallbladder , . cystic_duct".split()
_caption = st.lists(st.sampled_from(_WORDS), max_size=14).map(" ".join)


@st.composite
def _caption_corpora(draw):
    """Pairs drawn from a small pool of captions, so texts and pairs repeat."""
    pool = draw(st.lists(_caption, min_size=1, max_size=8))
    references = [text for text in pool if tokenize(text)] or ["the liver"]
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(pool + [""]), st.sampled_from(references)),
            min_size=1,
            max_size=25,
        )
    )
    if draw(st.booleans()):
        pairs += [(ref, ref) for _, ref in pairs[: draw(st.integers(0, 3))]]
    embeddings = draw(st.sampled_from(["none", "all", "missing-one"]))
    if embeddings == "none":
        return pairs, None
    texts = sorted({text for pair in pairs for text in pair if tokenize(text)})
    missing = [draw(st.sampled_from(texts))] if embeddings == "missing-one" else []
    return pairs, _gaussian_table(pairs, missing)


@settings(max_examples=300, deadline=None)
@given(_caption_corpora())
def test_aggregate_equals_counter_oracle(corpus):
    pairs, table = corpus
    expected = _outcome(_aggregate_caption_metrics_oracle, pairs, table)
    assert _outcome(aggregate_caption_metrics, pairs, table) == expected


@pytest.mark.parametrize(
    "pairs",
    [
        pytest.param([("", "the liver"), ("", "a b c d e")], id="empty-candidates"),
        pytest.param([("a", "a b c"), ("a b", "a b"), ("a b c", "a b c d")], id="under-4-tokens"),
        pytest.param([("a a a a a b", "a a b a"), ("b b b", "b")], id="clipping"),
        pytest.param([("the hook cuts", "the hook cuts")] * 4, id="identical"),
        pytest.param([("liver liver", "liver"), ("the", "gallbladder")], id="one-token-refs"),
        pytest.param([("x", " ")], id="blank-reference"),
    ],
)
@pytest.mark.parametrize("embedded", ["none", "all", "missing-one"])
def test_aggregate_equals_counter_oracle_on_edge_cases(pairs, embedded):
    table = None
    if embedded != "none":
        table = _gaussian_table(pairs, [pairs[-1][1]] if embedded == "missing-one" else [])
    expected = _outcome(_aggregate_caption_metrics_oracle, pairs, table)
    assert _outcome(aggregate_caption_metrics, pairs, table) == expected
    if embedded == "missing-one" and isinstance(expected, dict):
        assert expected["bert_f1"] is None


def test_aggregate_equals_counter_oracle_on_a_vocabulary_past_int64_4gram_codes():
    # Over 70,000 distinct tokens: base-V codes of 4-grams would need V**4 > 2**63.
    vocabulary = [f"w{i}" for i in range(100_000)]
    assert len(vocabulary) ** 4 > np.iinfo(np.int64).max
    rng = random.Random(70_001)
    rng.shuffle(vocabulary)
    words = iter(vocabulary)
    pairs = []
    for _ in range(3_000):
        reference = [next(words) for _ in range(rng.randint(1, 50))]
        candidate = [w for w in reference if rng.random() > 0.15]
        candidate[rng.randrange(len(candidate) + 1) :] *= rng.randint(1, 2)
        pairs.append((" ".join(candidate), " ".join(reference)))
    pairs += pairs[:200]
    assert len({w for pair in pairs for text in pair for w in text.split()}) > 70_000
    table = _gaussian_table(pairs[:50])
    assert _outcome(aggregate_caption_metrics, pairs, None) == _outcome(
        _aggregate_caption_metrics_oracle, pairs, None
    )
    assert _outcome(aggregate_caption_metrics, pairs[:50], table) == _outcome(
        _aggregate_caption_metrics_oracle, pairs[:50], table
    )


_tokens = st.lists(st.sampled_from("abcd"), max_size=12)


@settings(max_examples=300, deadline=None)
@given(_tokens, _tokens.filter(bool), st.integers(1, 6), st.booleans())
def test_public_bleu_and_rouge_equal_the_counter_oracle(candidate, reference, max_n, smoothing):
    orders = range(1, max_n + 1)
    cand_counts = [ngram_counts(candidate, n) for n in orders]
    ref_counts = [ngram_counts(reference, n) for n in orders]
    expected = _bleu_oracle(cand_counts, ref_counts, len(candidate), len(reference), smoothing)
    assert bleu(candidate, reference, max_n, smoothing) == expected
    for variant, n in (("r1", 1), ("r2", 2)):
        expected = _rouge_n_oracle(ngram_counts(candidate, n), ngram_counts(reference, n))
        assert rouge(candidate, reference, variant) == expected
    assert rouge(candidate, reference, "rL") == _rouge_l_oracle(candidate, reference)


# Blocked counting: a pair's clipped matches do not depend on the other pairs.
_texts = st.lists(st.lists(st.sampled_from("abcde"), max_size=30), min_size=1, max_size=10)


@st.composite
def _texts_and_pairs(draw):
    """Texts, some longer than a small budget, and pairs of them with repeats."""
    texts = draw(_texts)
    index = st.integers(0, len(texts) - 1)
    return texts, draw(st.lists(st.tuples(index, index), min_size=1, max_size=20))


@settings(max_examples=300, deadline=None)
@given(_texts_and_pairs(), st.integers(1, 40), st.integers(1, 5))
def test_blocked_matches_equal_one_block_and_the_counter_oracle(corpus, budget, max_n):
    texts, pairs = corpus
    expected = [
        [
            _overlap_oracle(ngram_counts(texts[c], n), ngram_counts(texts[r], n))
            for n in range(1, max_n + 1)
        ]
        for c, r in pairs
    ]
    for tokens in (1, budget, metrics.MATCH_BLOCK_TOKENS, 10**9):
        with mock.patch.object(metrics, "MATCH_BLOCK_TOKENS", tokens):
            assert metrics._clipped_matches(texts, pairs, max_n) == expected


def test_budget_of_one_token_counts_each_pair_alone():
    texts = [["a", "b"], ["a"], [], ["b", "b"]]
    pairs = [(0, 1), (2, 3), (3, 0), (1, 1)]
    with mock.patch.object(metrics, "_block_matches", wraps=metrics._block_matches) as block:
        with mock.patch.object(metrics, "MATCH_BLOCK_TOKENS", 1):
            metrics._clipped_matches(texts, pairs, 2)
    assert [len(call.args[1]) for call in block.call_args_list] == [1, 1, 1, 1]


def test_counting_peak_does_not_grow_with_the_pair_count():
    # Clip-caption-sized texts: 1x is 100 pairs (~60k tokens), 4x is 400.
    rng = random.Random(5)
    words = [f"w{i}" for i in range(300)]

    def corpus(n):
        texts = [[rng.choice(words) for _ in range(rng.randint(200, 400))] for _ in range(2 * n)]
        return texts, [(2 * k, 2 * k + 1) for k in range(n)]

    (small, small_pairs), (large, large_pairs) = corpus(100), corpus(400)
    one = traced_peak(lambda: metrics._clipped_matches(small, small_pairs, 4))
    four = traced_peak(lambda: metrics._clipped_matches(large, large_pairs, 4))
    assert four <= 1.2 * one


# BERTScore as it was computed before pairs were scored one at a time: every
# distinct text looked up (and normalized) first, in the order the pairs first
# name them, stopping at the first miss; then each pair scored.
def _all_texts_first_bertscore(table, tokens, indices):
    embedded = []
    for text in tokens:
        embedded.append(table.get(text))
        if embedded[-1] is None:
            return None
    return [bertscore(embedded[c], embedded[r]) for c, r in indices]


def _bert_outcome(score, table, pairs):
    distinct = list(dict.fromkeys(pairs))
    slot = {text: i for i, text in enumerate(dict.fromkeys(chain.from_iterable(distinct)))}
    tokens = [tokenize(text) for text in slot]
    try:
        return score(table, tokens, [(slot[g], slot[r]) for g, r in distinct])
    except Exception as exc:  # RecordError for a malformed entry, ValueError from bertscore
        return type(exc), str(exc)


@st.composite
def _embedding_corpora(draw):
    """Pairs and a table whose entries may be missing, short, of another dim or empty."""
    pool = draw(st.lists(_caption, min_size=1, max_size=6))
    text = st.sampled_from(pool)
    pairs = draw(st.lists(st.tuples(text, text), min_size=1, max_size=10))
    table = EmbeddingTable()
    for text in sorted({text for pair in pairs for text in pair}):
        tokens = tokenize(text)
        entry = draw(st.sampled_from(["ok", "ok", "ok", "missing", "short", "dim"]))
        if entry == "missing":
            continue
        vectors = deterministic_token_embeddings(tokens, dim=4 if entry == "dim" else 8)
        table.put(tokens, vectors[:-1] if entry == "short" and tokens else vectors)
    return pairs, table


@settings(max_examples=300, deadline=None)
@given(_embedding_corpora())
def test_pairwise_bertscore_equals_all_texts_first(corpus):
    pairs, table = corpus
    expected = _bert_outcome(_all_texts_first_bertscore, table, pairs)
    assert _bert_outcome(metrics._pairwise_bertscore, table, pairs) == expected


@pytest.mark.parametrize(
    "entries, expected",
    [
        pytest.param(
            {"a": 8, "b": 4, "c": 4}, (ValueError, "embedding dimensions differ: 8 vs 4"), id="dims"
        ),
        pytest.param({"a": 8, "b": 4, "c": None}, None, id="dims-then-missing"),
        pytest.param({"a": 8, "b": "short", "c": None}, "short", id="short-then-missing"),
        pytest.param({"a": None, "b": "short", "c": 8}, None, id="missing-then-short"),
    ],
)
def test_pairwise_bertscore_keeps_the_order_of_errors_and_misses(entries, expected):
    table = EmbeddingTable()
    for text, entry in entries.items():
        if entry is not None:
            vectors = deterministic_token_embeddings([text], dim=8 if entry == "short" else entry)
            table.put([text], vectors[:0] if entry == "short" else vectors)
    pairs = [("a", "b"), ("b", "c"), ("c", "a")]
    outcome = _bert_outcome(metrics._pairwise_bertscore, table, pairs)
    assert outcome == _bert_outcome(_all_texts_first_bertscore, table, pairs)
    if expected == "short":
        assert outcome[1].endswith("1 tokens but 0 vectors")
    else:
        assert outcome == expected
