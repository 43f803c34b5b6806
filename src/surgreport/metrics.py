"""Evaluation metrics: classification, average precision, BLEU, ROUGE, BERTScore.

Text metrics operate on tokens produced by ``tokenize``: lowercase, with
punctuation separated into its own tokens and whitespace splitting;
underscores and hyphens inside annotation tokens (cystic_duct,
calot-triangle-dissection) are preserved so machine-generated captions
tokenize reproducibly.

A corpus evaluation tokenizes each distinct text once and scores each
distinct (generated, reference) pair once. BLEU and ROUGE-1/2 score from
clipped n-gram matches, counted columnar in blocks of consecutive pairs
under a fixed token budget (``MATCH_BLOCK_TOKENS``): each pair's n-grams in
a block become integer ``(pair, gram)`` codes, counted on each side with
``np.unique`` and matched with ``np.intersect1d``; the per-pair float math
stays in Python. BERTScore looks up and normalizes the embeddings of one
pair at a time.
ROUGE-L takes its longest common subsequence from the bit-parallel
LCS-length recurrence (Allison & Dix, IPL 1986; Hyyrö, AWOCA 2004), which
gives the same integer as the quadratic dynamic program.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, fields
from itertools import chain
from math import exp, log
from typing import NamedTuple

import numpy as np

from .embeddings import EmbeddedText, EmbeddingTable

_PUNCTUATION = ".,;:!?\"'()[]{}"
# Candidate plus reference tokens per block of ``_clipped_matches``.
MATCH_BLOCK_TOKENS = 4096


def tokenize(text: str) -> list[str]:
    """Deterministic tokenization for caption scoring."""
    text = text.lower()
    # One C-level replace per mark present; each mark is replaced once, and
    # the spaces it gains are no mark, so this pads each mark independently.
    for mark in _PUNCTUATION:
        if mark in text:
            text = text.replace(mark, f" {mark} ")
    return text.split()


def ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _gram_counts(
    starts: np.ndarray, counts: np.ndarray, grams: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``(pair, gram)`` codes and their counts, pair k's grams at ``starts[k]``."""
    first = np.cumsum(counts) - counts
    positions = np.repeat(starts - first, counts) + np.arange(counts.sum())
    pair = np.repeat(np.arange(len(counts)), counts)
    return np.unique(pair * width + grams[positions], return_counts=True)


def _clipped_matches(
    texts: list[list[str]], pairs: list[tuple[int, int]], max_n: int
) -> list[list[int]]:
    """Clipped n-gram matches of each (candidate, reference) pair of ``texts`` indices.

    Entry n - 1 of a pair's row counts the candidate's n-grams that the
    reference holds, each at most as often as the reference holds it. A
    pair's matches do not depend on the other pairs, so consecutive pairs
    are counted in blocks of at most ``MATCH_BLOCK_TOKENS`` candidate plus
    reference tokens (a longer pair is a block of its own), and the arrays
    of one block are all that is held at a time.
    """
    rows: list[list[int]] = []
    block: list[tuple[int, int]] = []
    size = 0
    for pair in pairs:
        tokens = len(texts[pair[0]]) + len(texts[pair[1]])
        if block and size + tokens > MATCH_BLOCK_TOKENS:
            rows += _block_matches(texts, block, max_n)
            block, size = [], 0
        block.append(pair)
        size += tokens
    return rows + _block_matches(texts, block, max_n) if block else rows


def _block_matches(
    texts: list[list[str]], pairs: list[tuple[int, int]], max_n: int
) -> list[list[int]]:
    """``_clipped_matches`` of one block, counted columnar.

    The block's tokens share one flat id array. The n-gram at each position
    gets the dense id of its (n-1)-gram id and its last token; ``np.unique``
    re-densifies at every order, so codes stay below (token count) times
    max(token count, pair count), never (vocabulary size)**n.
    """
    slot = {i: k for k, i in enumerate(dict.fromkeys(chain.from_iterable(pairs)))}
    texts = [texts[i] for i in slot]
    ids: dict[str, int] = {}
    flat = np.array([ids.setdefault(t, len(ids)) for text in texts for t in text], dtype=np.int64)
    lengths = np.array([len(text) for text in texts], dtype=np.int64)
    offsets = np.cumsum(lengths) - lengths
    sides = np.array([(slot[c], slot[r]) for c, r in pairs], dtype=np.int64).T
    matches = np.zeros((max_n, len(pairs)), dtype=np.int64)
    grams, width = flat, len(ids)
    for n in range(1, max_n + 1):
        if n > 1:
            unique, grams = np.unique(grams[:-1] * len(ids) + flat[n - 1 :], return_inverse=True)
            width = len(unique)
        (cand, cand_counts), (ref, ref_counts) = (
            _gram_counts(offsets[side], np.maximum(lengths[side] - n + 1, 0), grams, width)
            for side in sides
        )
        common, i, j = np.intersect1d(cand, ref, assume_unique=True, return_indices=True)
        hits = np.minimum(cand_counts[i], ref_counts[j])
        matches[n - 1] = np.bincount(common // width, hits, minlength=len(pairs))
    return matches.T.tolist()


def _bleu(matched: list[int], c: int, r: int, smoothing: bool) -> float:
    """BLEU of a candidate of c tokens against a reference of r tokens.

    ``matched[n - 1]`` holds the clipped n-gram matches for n = 1..max_n.
    """
    if c == 0:
        return 0.0
    max_n = len(matched)
    log_sum = 0.0
    for n, hits in enumerate(matched, start=1):
        total = max(c - n + 1, 0)
        if hits == 0 and smoothing and n > 1:
            precision = (hits + 1) / (total + 1)
        elif hits == 0 or total == 0:
            return 0.0
        else:
            precision = hits / total
        log_sum += log(precision) / max_n
    brevity = 1.0 if c > r else exp(1.0 - r / c)
    return brevity * exp(log_sum)


def _rouge_n(matched: int, r: int, n: int) -> float:
    total = max(r - n + 1, 0)
    return matched / total if total else 0.0


def bleu(
    candidate: list[str], reference: list[str], max_n: int = 4, smoothing: bool = False
) -> float:
    """Geometric mean of clipped n-gram precisions times the brevity penalty.

    Uniform weights 1/max_n; BP = 1 when the candidate is longer than the
    reference, else exp(1 - r/c). Without smoothing, a zero precision at any
    order yields 0; with smoothing, zero counts at orders above 1 fall back
    to (matches + 1) / (total + 1).
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    matched = _clipped_matches([candidate, reference], [(0, 1)], max_n)[0]
    return _bleu(matched, len(candidate), len(reference), smoothing)


def lcs_length(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length, bit-parallel over the tokens of ``b``.

    Bit j of ``V`` is 0 exactly where the dynamic program's current row
    steps up by one at column j, so the zero bits count the LCS of the
    tokens of ``a`` read so far with ``b``. Each token of ``a`` updates the
    whole row with one integer addition, so ``len(a)`` big-integer steps
    replace the ``len(a) * len(b)`` cells. Allison & Dix, "A bit-string
    longest-common-subsequence algorithm", Information Processing Letters
    23 (1986); Hyyrö, "Bit-parallel LCS-length computation revisited",
    AWOCA 2004.
    """
    masks: dict[str, int] = {}
    for j, token in enumerate(b):
        masks[token] = masks.get(token, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        match = masks.get(token)
        if match is not None:
            u = v & match
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge(candidate: list[str], reference: list[str], variant: str = "r1") -> float:
    """Recall-style overlap against the reference.

    r1 and r2 divide the clipped overlapping n-gram count by the reference
    n-gram count; rL divides the LCS length by the reference length.
    """
    if not reference:
        raise ValueError("reference must be non-empty")
    if variant == "rL":
        return lcs_length(candidate, reference) / len(reference)
    if variant not in ("r1", "r2"):
        raise ValueError(f"variant must be 'r1', 'r2', or 'rL', got {variant!r}")
    n = 1 if variant == "r1" else 2
    matched = _clipped_matches([candidate, reference], [(0, 1)], n)[0][n - 1]
    return _rouge_n(matched, len(reference), n)


class BertScore(NamedTuple):
    precision: float
    recall: float
    f1: float


def bertscore(candidate: EmbeddedText, reference: EmbeddedText) -> BertScore:
    """Greedy cosine matching between contextual token embeddings.

    Precision averages, over candidate tokens, the best similarity to any
    reference token; recall is symmetric; f1 is the harmonic mean (0 when
    both are 0).
    """
    if len(candidate.tokens) == 0 or len(reference.tokens) == 0:
        raise ValueError("both texts must contain at least one token")
    if candidate.dim != reference.dim:
        raise ValueError(f"embedding dimensions differ: {candidate.dim} vs {reference.dim}")
    similarity = candidate.vectors @ reference.vectors.T
    precision = float(similarity.max(axis=1).mean())
    recall = float(similarity.max(axis=0).mean())
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return BertScore(precision, recall, f1)


class ClassificationMetrics(NamedTuple):
    precision: float
    recall: float
    f1: float
    accuracy: float


def classification_metrics(predicted: np.ndarray, truth: np.ndarray) -> ClassificationMetrics:
    """Micro-averaged precision/recall/F1/accuracy over all (frame, class) cells.

    ``predicted`` and ``truth`` are (N, K) 0/1 or boolean matrices, one row
    per frame. Degenerate conventions: precision is 0 with no predicted
    positives, recall is 0 with no true positives in the truth, and F1 is 0
    when both precision and recall are 0.
    """
    pred = np.asarray(predicted)
    true = np.asarray(truth)
    if pred.ndim != 2 or pred.shape[0] == 0 or pred.shape != true.shape:
        raise ValueError(f"need equal non-empty (N, K) matrices, got {pred.shape} and {true.shape}")
    pred, true = (m if m.dtype == bool else m.astype(bool) for m in (pred, true))
    tp = float((pred & true).sum())
    fp = float((pred & ~true).sum())
    fn = float((~pred & true).sum())
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    accuracy = float((pred == true).sum()) / pred.size
    return ClassificationMetrics(precision, recall, f1, accuracy)


def _ap(scores: np.ndarray, relevance: np.ndarray) -> float | None:
    """Area under the precision-recall curve via the threshold sweep.

    Sums (R_n - R_{n-1}) * P_n over thresholds at each distinct score in
    descending order. Returns None when there are no positives.
    """
    n_pos = relevance.sum()
    if n_pos == 0:
        return None
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    cum_tp = np.cumsum(relevance[order])
    # Threshold boundaries: the last item of each distinct-score group.
    last_of_group = np.nonzero(np.diff(sorted_scores, append=-np.inf))[0]
    recall = cum_tp[last_of_group] / n_pos
    precision = cum_tp[last_of_group] / (last_of_group + 1)
    previous_recall = np.concatenate(([0.0], recall[:-1]))
    return float(((recall - previous_recall) * precision).sum())


def ap_from_ranked(pairs: list[tuple[float, int]]) -> float | None:
    """AP of one class from (score, relevance-bit) pairs; None without positives."""
    if not pairs:
        return None
    scores, relevance = zip(*pairs)
    return _ap(np.asarray(scores, dtype=float), np.asarray(relevance, dtype=float))


class AveragePrecision(NamedTuple):
    per_class: tuple[float | None, ...]
    instruments: float | None
    targets: float | None
    excluded: tuple[int, ...]


def average_precision(
    scores: np.ndarray, truth: np.ndarray, n_instruments: int = 6
) -> AveragePrecision:
    """Per-class AP plus means over the instrument and target class groups.

    ``scores`` and ``truth`` are (N, K) matrices: one row per frame, one
    column per detection class, instruments first. Classes without
    positives are excluded from the means and reported in ``excluded``.
    The truth may be 0/1 or boolean; it is made float one column at a time.
    """
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth)
    if scores.ndim != 2 or scores.shape != truth.shape:
        raise ValueError(f"need equal (N, K) matrices, got {scores.shape} and {truth.shape}")
    per_class = tuple(
        _ap(scores[:, k], np.asarray(truth[:, k], dtype=float)) for k in range(scores.shape[1])
    )
    excluded = tuple(i for i, ap in enumerate(per_class) if ap is None)
    instrument_aps = [ap for ap in per_class[:n_instruments] if ap is not None]
    target_aps = [ap for ap in per_class[n_instruments:] if ap is not None]
    return AveragePrecision(
        per_class=per_class,
        instruments=float(np.mean(instrument_aps)) if instrument_aps else None,
        targets=float(np.mean(target_aps)) if target_aps else None,
        excluded=excluded,
    )


@dataclass(frozen=True)
class MetricReport:
    """All metric fields for one evaluation scope; unset fields stay None."""

    bleu: float | None = None
    rouge1: float | None = None
    rouge2: float | None = None
    rougeL: float | None = None
    bert_precision: float | None = None
    bert_recall: float | None = None
    bert_f1: float | None = None
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    accuracy: float | None = None

    def to_record(self) -> dict:
        return {field.name: getattr(self, field.name) for field in fields(self)}


def _pairwise_bertscore(
    table: EmbeddingTable, tokens: list[list[str]], indices: list[tuple[int, int]]
) -> list[BertScore] | None:
    """BERTScore of each pair, or None when some text has no entry in ``table``.

    Each pair's two texts are looked up, normalized and scored, then
    dropped, so at most two normalized copies are alive. The pairs name
    their texts first in ``tokens`` order, so a malformed entry raises at
    the first text that names it unless an earlier text has no entry. A
    pair that ``bertscore`` rejects raises only once every text has one.
    """
    scores: list[BertScore] = []
    problem: ValueError | None = None
    for cand, ref in indices:
        candidate = table.get(tokens[cand])
        reference = None if candidate is None else table.get(tokens[ref])
        if reference is None:
            return None
        try:
            scores.append(bertscore(candidate, reference))
        except ValueError as exc:
            problem = problem or exc
    if problem is not None:
        raise problem
    return scores


def aggregate_caption_metrics(
    pairs: list[tuple[str, str]], embedding_table: EmbeddingTable | None = None
) -> MetricReport:
    """Corpus scores for (generated, reference) caption pairs.

    Each metric is the mean of per-pair sentence scores. BERTScore is
    computed only when the table provides embeddings for every caption in
    the corpus; otherwise those fields stay None. Each distinct text is
    tokenized once and each distinct pair scored once, its two texts'
    embeddings looked up for that pair alone; the scores are expanded back
    to input order before every mean, so each mean sums the same floats in
    the same order.
    """
    if not pairs:
        raise ValueError("cannot aggregate metrics over an empty corpus")
    distinct = {pair: k for k, pair in enumerate(dict.fromkeys(pairs))}
    slot = {text: i for i, text in enumerate(dict.fromkeys(chain.from_iterable(distinct)))}
    # Interned, each distinct token is one string however many texts hold it.
    tokens = [list(map(sys.intern, tokenize(text))) for text in slot]
    indices = [(slot[generated], slot[reference]) for generated, reference in distinct]
    if not all(tokens[ref] for _, ref in indices):
        raise ValueError("reference must be non-empty")
    rows = [
        (
            _bleu(matched, len(tokens[cand]), len(tokens[ref]), smoothing=False),
            _rouge_n(matched[0], len(tokens[ref]), 1),
            _rouge_n(matched[1], len(tokens[ref]), 2),
            lcs_length(tokens[cand], tokens[ref]) / len(tokens[ref]),
        )
        for (cand, ref), matched in zip(indices, _clipped_matches(tokens, indices, 4))
    ]
    if embedding_table is not None:
        bert = _pairwise_bertscore(embedding_table, tokens, indices)
        if bert is not None:
            rows = [row + scores for row, scores in zip(rows, bert)]
    order = np.array([distinct[pair] for pair in pairs])
    # MetricReport's first fields are bleu, rouge1, rouge2, rougeL and the BERT triple.
    return MetricReport(*(float(np.mean(np.array(column)[order])) for column in zip(*rows)))
