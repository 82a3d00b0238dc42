"""Metric correctness: hand-checked values, brute-force oracle equivalence,
and cross-checks against scipy (test-only dependency)."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from calibench import (
    BinStats,
    auc,
    brier,
    ece,
    hosmer_lemeshow,
    log_loss,
    mce,
    metric_report,
    reliability_bins,
)
from calibench.errors import (
    CalibenchError,
    DegenerateGroupingError,
    LengthMismatchError,
    NonFiniteScoreError,
    ProbabilityOutOfRangeError,
    SingleClassError,
    TooFewGroupsError,
)
from calibench.metrics import _stable_order

from oracles import slow_auc, slow_ece, slow_mce, slow_metric_report, slow_reliability


# ---------------------------------------------------------------------------
# hand-checked values
# ---------------------------------------------------------------------------

def test_ece_hand_values():
    assert ece([1.0, 1.0, 1.0], [1, 1, 1], bins=10) == 0.0
    assert ece([0.2, 0.2, 0.8, 0.8], [0, 1, 1, 1], bins=2) == pytest.approx(0.25, abs=1e-15)
    assert ece([0.2, 0.8], [0, 1], bins=2) == pytest.approx(0.2, abs=1e-15)


def test_mce_hand_values():
    assert mce([1.0, 1.0], [1, 1], bins=10) == 0.0
    assert mce([0.2, 0.2, 0.8, 0.8], [0, 1, 1, 1], bins=2) == pytest.approx(0.3, abs=1e-15)


def test_brier_hand_values():
    assert brier([1.0, 0.0], [1, 0]) == 0.0
    assert brier([0.5, 0.5], [0, 1]) == pytest.approx(0.25, abs=1e-15)
    assert brier([1.0, 1.0], [0, 0]) == 1.0


def test_log_loss_hand_values():
    assert log_loss([0.5, 0.5], [0, 1]) == pytest.approx(math.log(2.0), abs=1e-15)
    assert log_loss([1.0, 0.0], [1, 0]) == pytest.approx(1e-15, abs=1e-16)
    # a confident wrong answer is clipped at epsilon, costing -ln(1e-15)
    assert log_loss([0.0], [1]) == pytest.approx(-math.log(1e-15), rel=1e-12)


def test_auc_hand_values():
    assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=1e-15)
    assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert auc([0.5, 0.5, 0.5, 0.5], [0, 0, 1, 1]) == 0.5


def test_reliability_bins_hand_values():
    stats = reliability_bins([0.2, 0.2, 0.8, 0.8], [0, 1, 1, 1], bins=2)
    assert stats.counts.tolist() == [2, 2]
    np.testing.assert_allclose(stats.mean_confidence, [0.2, 0.8], atol=1e-15)
    np.testing.assert_allclose(stats.empirical_accuracy, [0.5, 1.0], atol=1e-15)
    assert not stats.empty.any()


def test_reliability_bins_empty_bins_flagged():
    stats = reliability_bins([0.05, 0.07], [0, 1], bins=10)
    assert stats.counts.tolist() == [2] + [0] * 9
    assert stats.empty.tolist() == [False] + [True] * 9
    assert np.isnan(stats.mean_confidence[1:]).all()
    assert np.isnan(stats.empirical_accuracy[1:]).all()


# ---------------------------------------------------------------------------
# oracle equivalence on random and adversarial inputs
# ---------------------------------------------------------------------------

def _random_prediction_sets(seed, cases, max_n):
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n = int(rng.integers(1, max_n + 1))
        kind = rng.integers(0, 3)
        if kind == 0:
            probs = rng.random(n)
        elif kind == 1:
            # boundary-heavy: exact multiples of 1/bins plus endpoints
            probs = rng.integers(0, 11, size=n) / 10.0
        else:
            probs = np.round(rng.random(n), 2)
        labels = (rng.random(n) < probs).astype(np.int64)
        yield probs, labels


def test_binned_metrics_match_linear_scan_oracle():
    for probs, labels in _random_prediction_sets(seed=1234, cases=300, max_n=60):
        for bins in (1, 2, 7, 10):
            got = reliability_bins(probs, labels, bins=bins)
            want_counts, want_conf, want_acc = slow_reliability(probs, labels, bins)
            assert got.counts.tolist() == want_counts
            for m in range(bins):
                if want_counts[m] == 0:
                    assert np.isnan(got.mean_confidence[m])
                    assert np.isnan(got.empirical_accuracy[m])
                else:
                    assert got.mean_confidence[m] == pytest.approx(want_conf[m], abs=1e-12)
                    assert got.empirical_accuracy[m] == pytest.approx(want_acc[m], abs=1e-12)
            assert ece(probs, labels, bins=bins) == pytest.approx(
                slow_ece(probs, labels, bins), abs=1e-12
            )
            assert mce(probs, labels, bins=bins) == pytest.approx(
                slow_mce(probs, labels, bins), abs=1e-12
            )


def test_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        scores = np.round(rng.random(n), 1)  # coarse grid forces ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == pytest.approx(
            slow_auc(scores, labels), abs=1e-12
        )


def test_auc_mid_ranks_match_scipy_rankdata_under_heavy_ties():
    rng = np.random.default_rng(5)
    for n, grid in ((50, 3), (2000, 7), (20000, 100)):
        scores = rng.integers(0, grid, size=n) / grid
        labels = (rng.random(n) < 0.3 + 0.4 * scores).astype(int)
        ranks = scipy.stats.rankdata(scores)
        n_pos = int(labels.sum())
        n_neg = n - n_pos
        expected = (float(ranks[labels == 1].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        assert auc(scores, labels) == expected


def test_mce_dominates_ece_everywhere():
    for probs, labels in _random_prediction_sets(seed=7, cases=200, max_n=80):
        assert mce(probs, labels, bins=10) >= ece(probs, labels, bins=10) - 1e-15


def test_bin_counts_always_sum_to_n():
    for probs, labels in _random_prediction_sets(seed=8, cases=100, max_n=50):
        stats = reliability_bins(probs, labels, bins=10)
        assert int(stats.counts.sum()) == probs.shape[0]
        assert stats.ece() == ece(probs, labels, bins=10)
        assert stats.mce() == mce(probs, labels, bins=10)


# ---------------------------------------------------------------------------
# Hosmer-Lemeshow
# ---------------------------------------------------------------------------

def test_hosmer_lemeshow_perfect_fit():
    # every group has observed == expected exactly
    probs = np.repeat([0.2, 0.5, 0.8], 10)
    labels = np.concatenate([
        [1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
        [1, 1, 1, 1, 1, 1, 1, 1, 0, 0],
    ])
    statistic, p = hosmer_lemeshow(probs, labels, groups=3)
    assert statistic == pytest.approx(0.0, abs=1e-12)
    assert p == pytest.approx(1.0, abs=1e-12)


def test_hosmer_lemeshow_three_group_hand_case():
    # groups contribute 0.2222, 0, 0.2222 -> statistic 4/9 on 1 df
    probs = [0.1, 0.1, 0.5, 0.5, 0.9, 0.9]
    labels = [0, 0, 0, 1, 1, 1]
    statistic, p = hosmer_lemeshow(probs, labels, groups=3)
    assert statistic == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert p == pytest.approx(float(scipy.stats.chi2.sf(4.0 / 9.0, df=1)), abs=1e-10)


def test_hosmer_lemeshow_matches_scipy_chi2_tail():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(40, 200))
        probs = rng.uniform(0.05, 0.95, size=n)
        labels = (rng.random(n) < probs).astype(np.int64)
        statistic, p = hosmer_lemeshow(probs, labels, groups=10)
        assert p == pytest.approx(float(scipy.stats.chi2.sf(statistic, df=8)), abs=1e-9)


def test_hosmer_lemeshow_rejects_bad_grouping():
    with pytest.raises(TooFewGroupsError):
        hosmer_lemeshow([0.2, 0.4, 0.6, 0.8], [0, 0, 1, 1], groups=2)
    with pytest.raises(TooFewGroupsError):
        hosmer_lemeshow([0.2, 0.4], [0, 1], groups=10)
    # expected counts vanish in every group -> everything merges away
    with pytest.raises(DegenerateGroupingError):
        hosmer_lemeshow([0.0] * 30, [0] * 30, groups=3)


# ---------------------------------------------------------------------------
# metric_report
# ---------------------------------------------------------------------------

def test_metric_report_is_consistent_with_individual_metrics():
    rng = np.random.default_rng(5)
    probs = rng.random(400)
    labels = (rng.random(400) < probs).astype(np.int64)
    report = metric_report(probs, labels, bins=10)
    assert report.ece == ece(probs, labels, bins=10)
    assert report.mce == mce(probs, labels, bins=10)
    assert report.brier == brier(probs, labels)
    assert report.log_loss == log_loss(probs, labels)
    assert report.auc == auc(probs, labels)
    assert report.reliability == 1.0 - report.ece
    statistic, p = hosmer_lemeshow(probs, labels, groups=10)
    assert report.hl_statistic == statistic
    assert report.hl_p_value == p
    assert report.n == 400
    assert report.bin_count == 10


def test_metric_report_degrades_hl_to_nan():
    # 5 samples cannot form 10 risk groups; the report flags NaN, not an error
    report = metric_report([0.1, 0.3, 0.5, 0.7, 0.9], [0, 0, 1, 1, 1], bins=5)
    assert math.isnan(report.hl_statistic)
    assert math.isnan(report.hl_p_value)
    assert report.ece >= 0.0


def _assert_same_report(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a == b or (math.isnan(a) and math.isnan(b)), (field.name, a, b)


def _report_or_error(report, probs, labels, hl_groups):
    try:
        return report(probs, labels, hl_groups=hl_groups)
    except SingleClassError:
        return SingleClassError


_probability = st.floats(0.0, 1.0)


@st.composite
def _report_inputs(draw):
    kind = draw(st.sampled_from(["distinct", "tied levels", "constant", "n below hl_groups"]))
    hl_groups = draw(st.integers(3, 12))
    if kind == "n below hl_groups":
        n = draw(st.integers(1, hl_groups - 1))
    else:
        n = draw(st.integers(2, 300))
    if kind == "distinct":
        probs = draw(st.lists(_probability, min_size=n, max_size=n, unique=True))
    elif kind == "constant":
        probs = [draw(_probability)] * n
    else:
        levels = draw(st.lists(_probability, min_size=1, max_size=6, unique=True))
        probs = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return np.array(probs), np.array(labels), hl_groups


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_report_inputs())
def test_metric_report_matches_the_merge_sort_oracle(inputs):
    probs, labels, hl_groups = inputs
    got = _report_or_error(metric_report, probs, labels, hl_groups)
    want = _report_or_error(slow_metric_report, probs, labels, hl_groups)
    if want is SingleClassError:
        assert got is SingleClassError
    else:
        _assert_same_report(got, want)


@pytest.mark.parametrize("levels", [65_536, 65_537, 100_000])
def test_metric_report_matches_the_merge_sort_oracle_on_many_tied_levels(levels):
    # 65,536 levels is the most that the uint16 ranks hold
    rng = np.random.default_rng(levels)
    probs = rng.permutation(np.arange(150_000) % levels) / levels
    labels = (rng.random(probs.size) < probs).astype(np.int64)
    assert np.unique(probs).size == levels
    np.testing.assert_array_equal(_stable_order(probs), np.argsort(probs, kind="mergesort"))
    _assert_same_report(metric_report(probs, labels), slow_metric_report(probs, labels))


def test_stable_order_keeps_nans_in_input_order():
    # auc accepts NaN scores; each takes its own rank by its sorted place
    rng = np.random.default_rng(71)
    distinct = rng.random(2000)
    distinct[rng.random(distinct.size) < 0.3] = np.nan
    tied = distinct.copy()
    tied[:10] = 0.5
    small = np.array([np.nan, 2.0, np.nan, 0.0, -0.0, 2.0, np.inf, np.nan])
    for scores in (distinct, tied, small):
        np.testing.assert_array_equal(_stable_order(scores), np.argsort(scores, kind="mergesort"))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_length_mismatch_rejected():
    with pytest.raises(LengthMismatchError):
        ece([0.5, 0.5], [1], bins=10)
    with pytest.raises(LengthMismatchError):
        brier([], [])


def test_out_of_range_probabilities_rejected():
    with pytest.raises(ProbabilityOutOfRangeError):
        ece([1.0001], [1], bins=10)
    with pytest.raises(ProbabilityOutOfRangeError):
        mce([-0.2, 0.5], [0, 1], bins=10)
    with pytest.raises(ProbabilityOutOfRangeError):
        brier([float("nan")], [1])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_auc_rejects_non_finite_scores_as_a_data_error(bad):
    # a NaN used to rank above every finite score: auc([nan, .2, .9, .1], ...) was 1.0
    with pytest.raises(NonFiniteScoreError, match="^scores must be finite"):
        auc([bad, 0.2, 0.9, 0.1], [1, 0, 1, 0])
    assert issubclass(NonFiniteScoreError, CalibenchError)


def test_non_binary_labels_rejected():
    with pytest.raises(ValueError):
        ece([0.5], [2], bins=10)
    with pytest.raises(ValueError):
        auc([0.5, 0.6], [0, 0.5])
