"""Confidence calibration: reliability bins, ECE, and temperature fitting.

Expected calibration error partitions prediction confidences into M equal
bins and sums the bin-weighted gaps between mean confidence and empirical
accuracy. Temperature scaling divides the logits by a scalar T before
squashing; the optimal T minimizes the mean negative log-likelihood on a
validation set and never changes any argmax, so classification decisions
are preserved while overconfidence is smoothed out. The fit works on
beta = 1/T, where the unclipped mean NLL is convex (a log-sum-exp or a sum
of softplus terms of beta * z, minus a linear term), so Newton steps on its
slope reach the exact minimum (Guo et al., ICML 2017, "On Calibration of
Modern Neural Networks"). ``nll``, ``confidence_correctness`` and the fit take
one label (a class index or a 0/1 row) per logit row, checked in one place.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .detection import bernoulli_log_likelihood, probabilities_from_logits

DEFAULT_BIN_COUNT = 10
DEFAULT_SEARCH_RANGE = (0.05, 20.0)


@dataclass(frozen=True)
class ReliabilityBins:
    """Per-bin sample counts, mean confidence, and mean accuracy.

    Bins partition [0, 1] into bin_count equal intervals; a confidence c
    lands in bin floor(c * M), with c = 1 assigned to the last bin.
    """

    bin_count: int
    counts: tuple[int, ...]
    confidence: tuple[float, ...]
    accuracy: tuple[float, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def edges(self, m: int) -> tuple[float, float]:
        return m / self.bin_count, (m + 1) / self.bin_count

    def rows(self) -> list[tuple[float, float, int, float, float]]:
        """(bin_lo, bin_hi, count, conf, acc) rows for export."""
        return [
            (*self.edges(m), self.counts[m], self.confidence[m], self.accuracy[m])
            for m in range(self.bin_count)
        ]


@dataclass(frozen=True)
class CalibrationResult:
    temperature: float
    ece_before: float
    ece_after: float
    nll_before: float
    nll_after: float
    bins_before: ReliabilityBins
    bins_after: ReliabilityBins


def reliability_bins(
    confidences: np.ndarray, correctness: np.ndarray, bin_count: int = DEFAULT_BIN_COUNT
) -> ReliabilityBins:
    """Histogram (confidence, correctness) pairs into equal-width bins."""
    conf = np.asarray(confidences, dtype=float).ravel()
    correct = np.asarray(correctness, dtype=float).ravel()
    if conf.shape != correct.shape:
        raise ValueError(f"length mismatch: {conf.shape[0]} confidences, {correct.shape[0]} bits")
    if bin_count < 1:
        raise ValueError(f"bin count must be >= 1, got {bin_count}")
    if conf.size and (conf.min() < 0.0 or conf.max() > 1.0):
        raise ValueError("confidences must lie in [0, 1]")
    index = np.minimum((conf * bin_count).astype(int), bin_count - 1)
    counts = np.bincount(index, minlength=bin_count)
    conf_sum = np.bincount(index, weights=conf, minlength=bin_count)
    acc_sum = np.bincount(index, weights=correct, minlength=bin_count)
    safe = np.maximum(counts, 1)
    return ReliabilityBins(
        bin_count=bin_count,
        counts=tuple(int(c) for c in counts),
        confidence=tuple(float(x) for x in conf_sum / safe),
        accuracy=tuple(float(x) for x in acc_sum / safe),
    )


def ece(bins: ReliabilityBins) -> float:
    """Bin-weighted mean absolute gap between confidence and accuracy."""
    n = bins.total
    if n == 0:
        return 0.0
    rows = zip(bins.counts, bins.confidence, bins.accuracy)
    return float(sum((count / n) * abs(acc - conf) for count, conf, acc in rows))


def _logits_and_bits(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logits as an (n >= 1, K) float matrix, labels (indices or 0/1 rows) as its float bits."""
    z = np.atleast_2d(np.asarray(logits, dtype=float))
    arr = np.asarray(labels)
    if arr.ndim == 1:
        bits = np.zeros((arr.shape[0], z.shape[1]))
        bits[np.arange(arr.shape[0]), arr.astype(int)] = 1.0
    elif arr.ndim == 2 and arr.shape[1] == z.shape[1]:
        bits = np.asarray(arr, dtype=float)
    else:
        raise ValueError(f"labels must be indices or (n, {z.shape[1]}) bit-vectors, got shape {arr.shape}")
    if len(bits) != len(z):
        raise ValueError(f"got {len(z)} logit rows but {len(bits)} label rows")
    if not len(z):
        raise ValueError("cannot calibrate on an empty set of logits")
    return z, bits


def nll(
    logits: np.ndarray,
    labels: np.ndarray,
    temperature: float = 1.0,
    mode: str = "softmax",
) -> float:
    """Mean negative log-likelihood of the labels after z / T scaling.

    Softmax mode scores -sum_i y_i * log softmax(z/T)_i per sample; sigmoid
    mode scores the full Bernoulli likelihood over all classes. The mean over
    samples keeps the value comparable across validation-set sizes; the
    minimizing temperature is identical either way.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    z, bits = _logits_and_bits(logits, labels)
    if mode == "softmax":
        scaled = z / temperature
        shift = scaled.max(axis=1, keepdims=True)
        log_probs = scaled - shift - np.log(np.exp(scaled - shift).sum(axis=1, keepdims=True))
        per_sample = -(bits * log_probs).sum(axis=1)
    elif mode == "sigmoid":
        per_sample = -bernoulli_log_likelihood(bits, z, temperature).sum(axis=1)
    else:
        raise ValueError(f"mode must be 'softmax' or 'sigmoid', got {mode!r}")
    return float(per_sample.mean())


def confidence_correctness(
    logits: np.ndarray, labels: np.ndarray, temperature: float, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten predictions into (confidence, correctness-bit) pairs.

    Softmax mode pairs the top-1 probability with whether the top class is
    labelled positive. Sigmoid mode pairs every per-class probability with
    that class's label bit, flattened over classes, which matches the
    multi-label detection setting.
    """
    z, bits = _logits_and_bits(logits, labels)
    probs = probabilities_from_logits(z, mode, temperature)
    if mode == "sigmoid":
        return probs.ravel(), bits.ravel()
    top = probs.argmax(axis=1)
    return probs[np.arange(len(top)), top], bits[np.arange(len(top)), top]


def _nll_slope(z: np.ndarray, bits: np.ndarray, beta: float, mode: str) -> tuple[float, float]:
    """Slope and curvature in beta = 1/T of the unclipped mean NLL. Summed per
    logit: sigmoid (s - y) z and s (1 - s) z^2, s = sigmoid(beta z); softmax
    (n p - y) z and n p (z - E_p[z])^2, p = softmax(beta z), n = sum(y).

    Each sum's terms are made in place in one work matrix, by the ufuncs of
    those expressions in their order, so the sums are those of the expressions.
    """
    p = probabilities_from_logits(z, mode, 1.0 / beta)
    terms = np.empty_like(p)
    if mode == "sigmoid":
        np.subtract(p, bits, out=terms)
        np.multiply(terms, z, out=terms)
        slope = float(terms.sum())
        np.subtract(1.0, p, out=terms)
        np.multiply(p, terms, out=terms)
        np.multiply(terms, z, out=terms)
        np.multiply(terms, z, out=terms)
    else:
        positives = bits.sum(axis=1, keepdims=True)
        mean = np.multiply(p, z, out=terms).sum(axis=1, keepdims=True)
        np.multiply(positives, p, out=terms)
        np.subtract(terms, bits, out=terms)
        np.multiply(terms, z, out=terms)
        slope = float(terms.sum())
        np.subtract(z, mean, out=terms)
        np.square(terms, out=terms)
        np.multiply(positives, p, out=p)
        np.multiply(p, terms, out=terms)
    return slope / len(z), float(terms.sum()) / len(z)


def fit_temperature(
    logits: np.ndarray,
    labels: np.ndarray,
    mode: str = "sigmoid",
    search_range: tuple[float, float] = DEFAULT_SEARCH_RANGE,
    bin_count: int = DEFAULT_BIN_COUNT,
) -> CalibrationResult:
    """Fit the T in search_range that minimizes the validation NLL.

    Newton steps on beta = 1/T from beta = 1 zero the slope of the unclipped
    mean NLL (convex, unlike the clipped `nll`). The slope's sign shrinks a
    bracket; a step out of it goes to an untried end of the range (an optimum
    beyond it gives exactly that end) or else bisects. T = 1 is kept whenever
    its `nll` is no worse. Logits whose NLL is not finite raise ValueError.
    """
    t_lo, t_hi = search_range
    if not 0 < t_lo < t_hi:
        raise ValueError(f"search range must satisfy 0 < lo < hi, got {search_range}")
    z, bits = _logits_and_bits(logits, labels)
    if np.all(bits == bits[0]):
        warnings.warn(
            "validation labels are constant; the fitted temperature is unreliable",
            stacklevel=2,
        )

    lo, hi = b_lo, b_hi = 1.0 / t_hi, 1.0 / t_lo
    beta, untried = min(max(1.0, lo), hi), {lo, hi}
    # Logits near the float limit overflow the slope terms; a NaN slope or
    # curvature falls back to the bracket, and a non-finite NLL is refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(100):  # bisection alone meets the 1e-12 stop in about 50 steps
            untried.discard(beta)
            slope, curvature = _nll_slope(z, bits, beta, mode)
            lo, hi = (lo, beta) if slope > 0 else (beta, hi)
            end = lo if slope > 0 else hi
            target = beta - slope / curvature if curvature > 0 else end
            if not lo < target < hi:
                target = end if end in untried else (lo + hi) / 2.0
            if slope == 0 or abs(target - beta) <= 1e-12 * beta:
                break
            beta = target
        t_star = t_hi if beta == b_lo else t_lo if beta == b_hi else 1.0 / beta

        nll_before = nll(z, bits, 1.0, mode)
        nll_after = nll(z, bits, t_star, mode)
    if not np.isfinite([nll_before, nll_after]).all():
        raise ValueError(
            f"the logits overflow the likelihood: NLL {nll_before} at T = 1 and "
            f"{nll_after} at T = {t_star:.6g}"
        )
    if t_lo <= 1.0 <= t_hi and nll_before <= nll_after:
        t_star, nll_after = 1.0, nll_before
    bins_before, bins_after = (
        reliability_bins(*confidence_correctness(z, bits, t, mode), bin_count) for t in (1.0, t_star)
    )
    return CalibrationResult(
        temperature=t_star,
        ece_before=ece(bins_before),
        ece_after=ece(bins_after),
        nll_before=nll_before,
        nll_after=nll_after,
        bins_before=bins_before,
        bins_after=bins_after,
    )


def calibration_record(result: CalibrationResult) -> dict:
    names = ("temperature", "ece_before", "ece_after", "nll_before", "nll_after")
    return {name: getattr(result, name) for name in names}


def bins_csv(bins: ReliabilityBins) -> str:
    lines = ["bin_lo,bin_hi,count,conf,acc"]
    for lo, hi, count, conf, acc in bins.rows():
        lines.append(f"{lo:.6g},{hi:.6g},{count},{conf:.10g},{acc:.10g}")
    return "\n".join(lines) + "\n"
