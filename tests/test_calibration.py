from __future__ import annotations

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgreport.calibration import (
    DEFAULT_SEARCH_RANGE,
    ReliabilityBins,
    _nll_slope,
    bins_csv,
    confidence_correctness,
    ece,
    fit_temperature,
    nll,
    reliability_bins,
)
from surgreport.detection import (
    PROBABILITY_FLOOR, bernoulli_log_likelihood, probabilities_from_logits, weighted_bce,
)

from conftest import traced_peak


def test_reliability_bins_single_bin_case():
    bins = reliability_bins(np.array([0.95, 0.95]), np.array([1, 1]), 10)
    assert bins.counts[-1] == 2
    assert bins.confidence[-1] == pytest.approx(0.95)
    assert bins.accuracy[-1] == 1.0
    assert sum(bins.counts) == 2


def test_reliability_bins_empty_inputs():
    bins = reliability_bins(np.array([]), np.array([]), 10)
    assert bins.counts == (0,) * 10
    assert bins.total == 0
    assert ece(bins) == 0.0


def test_reliability_bins_edge_assignment():
    # floor(c * M) with c = 1 assigned to the last bin
    bins = reliability_bins(np.array([0.0, 0.099, 0.1, 0.999, 1.0]), np.zeros(5), 10)
    assert bins.counts[0] == 2
    assert bins.counts[1] == 1
    assert bins.counts[9] == 2


def test_reliability_bins_match_histogram_oracle():
    rng = random.Random(3)
    conf = np.array([rng.random() for _ in range(1000)])
    correct = np.array([rng.randint(0, 1) for _ in range(1000)])
    m = 10
    bins = reliability_bins(conf, correct, m)
    counts = [0] * m
    for c in conf:
        counts[min(int(c * m), m - 1)] += 1
    assert list(bins.counts) == counts


def test_reliability_bins_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        reliability_bins(np.array([0.5]), np.array([1, 0]), 10)


def test_ece_perfect_calibration():
    bins = reliability_bins(np.ones(50), np.ones(50), 10)
    assert ece(bins) == 0.0


def test_ece_single_bin_hand_value():
    bins = ReliabilityBins(1, counts=(10,), confidence=(0.9,), accuracy=(0.6,))
    assert ece(bins) == pytest.approx(0.3)


def test_ece_two_bin_hand_value():
    bins = ReliabilityBins(2, counts=(5, 5), confidence=(0.4, 0.8), accuracy=(0.6, 0.6))
    assert ece(bins) == pytest.approx(0.2)


def test_ece_bounded():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(1, 200)
        conf = np.array([rng.random() for _ in range(n)])
        correct = np.array([rng.randint(0, 1) for _ in range(n)])
        value = ece(reliability_bins(conf, correct, rng.randint(1, 25)))
        assert 0.0 <= value <= 1.0


def test_nll_uniform_two_class():
    assert nll(np.array([[0.0, 0.0]]), np.array([0])) == pytest.approx(math.log(2), rel=1e-12)


def test_nll_saturated_labels():
    z = np.zeros((4, 5))
    z[np.arange(4), np.arange(4)] = 50.0
    assert nll(z, np.arange(4)) == pytest.approx(0.0, abs=1e-9)


def test_nll_matches_brute_force_oracle():
    rng = random.Random(21)
    for _ in range(300):
        n, k = rng.randint(1, 8), rng.randint(2, 6)
        z = np.array([[rng.uniform(-5, 5) for _ in range(k)] for _ in range(n)])
        labels = np.array([rng.randrange(k) for _ in range(n)])
        t = rng.uniform(0.1, 5.0)
        total = 0.0
        for i in range(n):
            scaled = [v / t for v in z[i]]
            denom = sum(math.exp(v) for v in scaled)
            total -= math.log(math.exp(scaled[labels[i]]) / denom)
        assert nll(z, labels, t) == pytest.approx(total / n, abs=1e-12)


def test_nll_sigmoid_mode_oracle():
    rng = random.Random(22)
    for _ in range(200):
        n, k = rng.randint(1, 6), rng.randint(1, 5)
        z = np.array([[rng.uniform(-6, 6) for _ in range(k)] for _ in range(n)])
        bits = np.array([[rng.randint(0, 1) for _ in range(k)] for _ in range(n)], dtype=float)
        t = rng.uniform(0.2, 4.0)
        total = 0.0
        for i in range(n):
            for j in range(k):
                p = 1.0 / (1.0 + math.exp(-z[i][j] / t))
                p = min(max(p, 1e-12), 1 - 1e-12)
                total -= bits[i][j] * math.log(p) + (1 - bits[i][j]) * math.log(1 - p)
        assert nll(z, bits, t, mode="sigmoid") == pytest.approx(total / n, abs=1e-10)


def test_nll_rejects_empty_and_bad_temperature():
    with pytest.raises(ValueError, match="empty"):
        nll(np.zeros((0, 3)), np.zeros((0, 3)))
    with pytest.raises(ValueError, match="temperature"):
        nll(np.zeros((1, 3)), np.array([0]), temperature=0.0)


def _sampled_softmax_data(n=10_000, k=21, scale=1.5, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, scale, size=(n, k))
    probs = np.exp(z - z.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    labels = (probs.cumsum(axis=1) < rng.random((n, 1))).sum(axis=1)
    return z, labels


def test_fit_temperature_recovers_unit_scale():
    z, labels = _sampled_softmax_data(seed=1)
    result = fit_temperature(z, labels, mode="softmax")
    assert abs(result.temperature - 1.0) <= 0.05
    assert result.nll_after <= result.nll_before + 1e-9


def test_fit_temperature_recovers_doubled_scale():
    z, labels = _sampled_softmax_data(seed=2)
    result = fit_temperature(z * 2.0, labels, mode="softmax")
    assert abs(result.temperature - 2.0) <= 0.1


def test_fit_temperature_rejects_bad_range():
    z, labels = _sampled_softmax_data(n=10, seed=3)
    with pytest.raises(ValueError, match="search range"):
        fit_temperature(z, labels, search_range=(2.0, 1.0))


def test_fit_temperature_warns_on_degenerate_labels():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(50, 3))
    labels = np.zeros(50, dtype=int)
    with pytest.warns(UserWarning, match="constant"):
        result = fit_temperature(z, labels, mode="softmax")
    assert result.temperature > 0


def test_fit_temperature_includes_unit_candidate():
    # Labels sampled independently of tiny logits: scaling cannot help much,
    # and T* must never score worse than T = 1 on the fitting set.
    rng = np.random.default_rng(5)
    z = rng.normal(0, 0.01, size=(500, 4))
    labels = rng.integers(0, 4, size=500)
    result = fit_temperature(z, labels, mode="softmax")
    assert result.nll_after <= result.nll_before + 1e-9


def test_temperature_smoothing_shrinks_max_probability():
    rng = np.random.default_rng(6)
    z = rng.normal(0, 2.0, size=(200, 21))
    base = np.exp(z - z.max(axis=1, keepdims=True))
    base /= base.sum(axis=1, keepdims=True)
    for t in (1.5, 2.0, 8.0):
        scaled = np.exp(z / t - (z / t).max(axis=1, keepdims=True))
        scaled /= scaled.sum(axis=1, keepdims=True)
        assert np.all(scaled.max(axis=1) <= base.max(axis=1) + 1e-12)
        assert np.array_equal(np.argmax(scaled, axis=1), np.argmax(base, axis=1))


def test_confidence_correctness_modes():
    z = np.array([[2.0, -1.0, 0.0]])
    conf, correct = confidence_correctness(z, np.array([0]), 1.0, "softmax")
    assert len(conf) == 1 and correct[0] == 1.0
    bits = np.array([[1, 0, 1]], dtype=float)
    conf_s, correct_s = confidence_correctness(z, bits, 1.0, "sigmoid")
    assert conf_s.shape == (3,)
    assert list(correct_s) == [1.0, 0.0, 1.0]


def test_fit_temperature_sigmoid_mode_runs():
    rng = np.random.default_rng(7)
    z = rng.normal(0, 2.0, size=(400, 21))
    bits = (rng.random((400, 21)) < 1.0 / (1.0 + np.exp(-z))).astype(float)
    result = fit_temperature(z, bits, mode="sigmoid")
    assert 0.5 <= result.temperature <= 2.0
    assert result.nll_after <= result.nll_before + 1e-9


def test_bins_csv_header_and_rows():
    bins = reliability_bins(np.array([0.25, 0.75]), np.array([0, 1]), 4)
    text = bins_csv(bins)
    lines = text.strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count,conf,acc"
    assert len(lines) == 5


def _fit_temperature_oracle(z, bits, mode, search_range=DEFAULT_SEARCH_RANGE, tolerance=1e-4):
    """Reference fit: a 64-point scan over log T, then golden-section search
    of the best cell to `tolerance` in log T, with T = 1 kept when no worse."""
    t_lo, t_hi = search_range

    def objective(u):
        return nll(z, bits, math.exp(u), mode)

    grid = np.linspace(math.log(t_lo), math.log(t_hi), 64)
    best = int(np.argmin([objective(u) for u in grid]))
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > tolerance:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
    t_star = math.exp((a + b) / 2.0)
    if t_lo <= 1.0 <= t_hi and nll(z, bits, 1.0, mode) <= nll(z, bits, t_star, mode):
        t_star = 1.0
    return t_star


def _labelled_logits(rng, n, k, mode):
    """Logits and labels drawn from them: sigmoid bits per class; for softmax
    one sampled class per row, with some rows emptied and some given extras."""
    z = rng.normal(0.0, 1.5, size=(n, k))
    if mode == "sigmoid":
        return z, (rng.random((n, k)) < 1.0 / (1.0 + np.exp(-z))).astype(float)
    probs = np.exp(z - z.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    bits = np.zeros((n, k))
    bits[np.arange(n), (probs.cumsum(axis=1) < rng.random((n, 1))).sum(axis=1).clip(max=k - 1)] = 1
    bits[rng.random(n) < 0.2] = 0.0
    bits[rng.random((n, k)) < 0.1] = 1.0
    return z, bits


@pytest.mark.filterwarnings("ignore:validation labels are constant")
@settings(max_examples=200, deadline=None)
@given(
    mode=st.sampled_from(["softmax", "sigmoid"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    k=st.integers(1, 8),
    sharpen=st.floats(0.1, 10.0),
    t_lo=st.floats(0.2, 2.0),
    widen=st.floats(1.5, 10.0),
)
def test_fit_temperature_matches_grid_oracle(mode, seed, n, k, sharpen, t_lo, widen):
    # Logits within +-5 and T >= 0.2 keep every sigmoid probability above
    # the nll clip, where the clipped and unclipped objectives agree.
    rng = np.random.default_rng(seed)
    z, bits = _labelled_logits(rng, n, k, mode)
    logits = np.clip(z * sharpen, -5.0, 5.0)
    search_range = (t_lo, t_lo * widen)
    t_new = fit_temperature(logits, bits, mode, search_range).temperature
    t_old = _fit_temperature_oracle(logits, bits, mode, search_range)
    assert search_range[0] <= t_new <= search_range[1]
    assert nll(logits, bits, t_new, mode) <= nll(logits, bits, t_old, mode) + 1e-12
    _, curvature = _nll_slope(logits, bits, 1.0 / t_new, mode)
    interior = search_range[0] * 1.001 < t_old < search_range[1] / 1.001
    if interior and t_old != 1.0 and curvature > 1e-3:
        assert abs(t_new - t_old) / t_old <= 1e-3


@pytest.mark.parametrize("mode", ["softmax", "sigmoid"])
def test_nll_slope_matches_finite_differences(mode):
    rng = np.random.default_rng(11)
    z, bits = _labelled_logits(rng, 300, 6, mode)
    h = 1e-4
    for beta in (0.4, 1.0, 2.5):
        f = [nll(z, bits, 1.0 / (beta + i * h), mode) for i in (-1, 0, 1)]
        slope, curvature = _nll_slope(z, bits, beta, mode)
        assert slope == pytest.approx((f[2] - f[0]) / (2 * h), rel=1e-6, abs=1e-9)
        assert curvature == pytest.approx((f[2] - 2 * f[1] + f[0]) / h**2, rel=1e-4)


def _whole_matrix_slope(z, bits, beta, mode):
    """``_nll_slope`` as whole-matrix expressions, one temporary per operation."""
    p = probabilities_from_logits(z, mode, 1.0 / beta)
    if mode == "sigmoid":
        slope, curvature = (p - bits) * z, p * (1.0 - p) * z * z
    else:
        positives = bits.sum(axis=1, keepdims=True)
        centred = z - (p * z).sum(axis=1, keepdims=True)
        slope, curvature = (positives * p - bits) * z, positives * p * centred**2
    return float(slope.sum()) / len(z), float(curvature.sum()) / len(z)


@pytest.mark.parametrize("mode", ["softmax", "sigmoid"])
@pytest.mark.parametrize("scale", [1.0, 40.0, 1e300])
def test_nll_slope_is_bitwise_the_whole_matrix_expressions(mode, scale):
    rng = np.random.default_rng(13)
    z, bits = _labelled_logits(rng, 200, 7, mode)
    z = z * scale
    with np.errstate(all="ignore"):  # 1e300-scale logits overflow in the products
        for beta in (0.05, 0.7, 1.0, 3.3):
            got, expected = _nll_slope(z, bits, beta, mode), _whole_matrix_slope(z, bits, beta, mode)
            assert np.array_equal(got, expected, equal_nan=True)


@pytest.mark.parametrize("mode", ["softmax", "sigmoid"])
def test_fit_temperature_all_zero_logits_keep_unit_scale(mode):
    bits = np.eye(4)[[0, 1, 2, 3, 1]]
    assert fit_temperature(np.zeros((5, 4)), bits, mode).temperature == 1.0


@pytest.mark.parametrize("search_range", [DEFAULT_SEARCH_RANGE, (0.5, 7.28)])
def test_fit_temperature_optimum_beyond_range_gives_its_end(search_range):
    # Labels on the lowest logit: the NLL falls as T grows without bound.
    # 1 / (1 / 7.28) != 7.28 in floating point, so the end is not recovered
    # from beta by division.
    z = np.random.default_rng(12).normal(0.0, 2.0, size=(200, 5))
    result = fit_temperature(z, z.argmin(axis=1), "softmax", search_range)
    assert result.temperature == search_range[1]
    # Labels on the top logit of well-separated rows: the NLL falls as T shrinks.
    result = fit_temperature(z * 3.0, z.argmax(axis=1), "softmax", search_range)
    assert result.temperature == search_range[0]


@pytest.mark.parametrize("mode, bound", [("sigmoid", 4.5), ("softmax", 5.55)])
def test_fit_peak_is_below_its_bound_in_logits_matrices(mode, bound):
    # One float label matrix serves the whole fit. The slope and curvature are
    # made in one work matrix beside the squashed copy, and the Bernoulli
    # likelihood holds three matrices at once: sigmoid 4.0x here (6.0x with the
    # whole-matrix temporaries, 8.0x with a float label copy per call).
    # Softmax peaks in ``nll`` at 5.05x (6.05x with those temporaries).
    rng = np.random.default_rng(3)
    z = rng.normal(0.0, 3.0, (20_000, 21))
    labels = rng.random(z.shape) < 1.0 / (1.0 + np.exp(-z / 2.0))
    assert traced_peak(lambda: fit_temperature(z, labels, mode)) <= bound * z.nbytes


@pytest.mark.parametrize("mode", ["softmax", "sigmoid"])
@pytest.mark.parametrize("as_indices", [False, True])
def test_calibration_refuses_logits_and_labels_of_different_row_counts(mode, as_indices):
    rng = np.random.default_rng(8)
    z, bits = rng.normal(size=(5, 3)), (rng.random((7, 3)) < 0.5).astype(float)
    labels = bits.argmax(axis=1) if as_indices else bits
    for call in (
        lambda: confidence_correctness(z, labels, 1.0, mode),
        lambda: nll(z, labels, 1.0, mode),
    ):
        with pytest.raises(ValueError, match=r"^got 5 logit rows but 7 label rows$"):
            call()


def test_fit_temperature_refuses_one_label_row_before_any_warning():
    z, labels = _sampled_softmax_data(n=50, seed=9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the constant-labels warning must not come first
        with pytest.raises(ValueError, match=r"^got 50 logit rows but 1 label rows$"):
            fit_temperature(z, labels[:1])


def _inline_weighted_bce(y, z, w):
    """The loss as it was written before it shared ``bernoulli_log_likelihood``."""
    p = np.clip(probabilities_from_logits(z), PROBABILITY_FLOOR, 1.0 - PROBABILITY_FLOOR)
    terms = y * np.log(p) + (1.0 - y) * np.log(1.0 - p)
    return float(-(w * terms).sum())


def _inline_sigmoid_terms(z, bits, temperature):
    """Sigmoid ``nll``'s terms as it wrote them before it shared ``bernoulli_log_likelihood``."""
    p = np.clip(probabilities_from_logits(z, "sigmoid", temperature), PROBABILITY_FLOOR, 1 - PROBABILITY_FLOOR)
    return bits * np.log(p) + (1.0 - bits) * np.log(1.0 - p)


@pytest.mark.parametrize("saturation", [None, 40.0, 1e308])
def test_shared_bernoulli_terms_are_bitwise_the_inline_expressions(saturation):
    rng = np.random.default_rng(10)
    z = rng.normal(0.0, 2.0, (64, 21))
    if saturation is not None:  # every logit at +saturation or -saturation
        z = np.copysign(saturation, z)
    bits = (rng.random(z.shape) < 0.3).astype(float)
    w = rng.random(z.shape)
    with np.errstate(over="ignore"):  # +-1e308 / T overflows to +-inf for T < 1
        for t in (1.0, 0.5, 3.0):
            terms = _inline_sigmoid_terms(z, bits, t)
            assert bernoulli_log_likelihood(bits, z, t).tobytes() == terms.tobytes()
            assert nll(z, bits, t, "sigmoid") == float((-terms.sum(axis=1)).mean())
        assert weighted_bce(bits, z, w) == _inline_weighted_bce(bits, z, w)
        assert weighted_bce(bits[0], z[0], w[0]) == _inline_weighted_bce(bits[0], z[0], w[0])
