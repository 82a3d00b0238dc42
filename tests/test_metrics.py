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
from calibench.metrics import _auc, _bin_of, _brier, _log_loss, _metric_reports, _stable_order

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


@pytest.mark.parametrize("n, k", [(6, 300), (1000, 20)])
def test_block_kernels_score_each_row_as_the_public_metric_on_it(n, k):
    # the bootstrap scores (k, n) blocks of resamples; tied levels, 0 and 1
    # among them, and at n = 6 single-class rows, where auc raises
    rng = np.random.default_rng(n)
    probs = rng.choice([0.0, 0.1, 0.35, 0.8, 1.0], n)
    labels = (rng.random(n) < 0.3).astype(np.int64)
    rows = rng.integers(0, n, size=(k, n))
    p, y = probs[rows], labels[rows]
    order = np.argsort(p, axis=-1)
    aucs = _auc(np.take_along_axis(p, order, -1), np.take_along_axis(y, order, -1))
    briers, losses = _brier(p, y), _log_loss(p, y, 1e-15)
    assert aucs.shape == briers.shape == losses.shape == (k,)
    undefined = 0
    for i in range(k):
        assert briers[i].hex() == brier(p[i], y[i]).hex()
        assert losses[i].hex() == log_loss(p[i], y[i]).hex()
        try:
            assert aucs[i].hex() == auc(p[i], y[i]).hex()
        except SingleClassError:
            assert math.isnan(aucs[i])
            undefined += 1
    assert (undefined > 0) == (n == 6)


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


def _report_rows(rng, k, n, kind):
    """``(k, n)`` probabilities of one kind and labels holding both classes in every row."""
    if kind == "distinct":
        probs = rng.random((k, n))
    elif kind == "tied levels":  # 0 and 1 among the levels
        probs = rng.choice([0.0, 0.1, 0.35, 0.8, 1.0], (k, n))
    elif kind == "isotonic steps":  # what a fitted isotonic map gives: few sorted levels in runs
        probs = np.sort(rng.random((k, 4)), axis=1)[:, rng.integers(0, 4, n)]
    else:  # "zeros": expected counts of 0 that Hosmer-Lemeshow merges away
        probs = np.where(rng.random((k, n)) < 0.6, 0.0, rng.random((k, n)))
    labels = (rng.random((k, n)) < probs).astype(np.int64)
    labels[:, :2] = (0, 1)
    return probs, labels


@pytest.mark.parametrize("kind", ["distinct", "tied levels", "isotonic steps", "zeros"])
def test_a_block_reports_each_row_as_metric_report_does_alone(kind):
    # the run loop scores its queued rows as (k, n) blocks; n % 10 != 0,
    # n below hl_groups (NaN Hosmer-Lemeshow) and one-row blocks included
    rng = np.random.default_rng(len(kind))
    hl_defined = 0
    for n, k, bins, hl_groups in [
        (200, 41, 10, 10), (203, 7, 10, 10), (37, 12, 13, 10), (7, 5, 10, 10), (55, 1, 1, 3),
        (1000, 3, 20, 12),
    ]:
        probs, labels = _report_rows(rng, k, n, kind)
        reports = _metric_reports(probs, labels, bins, hl_groups)
        assert len(reports) == k
        for p, y, got in zip(probs, labels, reports):
            want = metric_report(p, y, bins=bins, hl_groups=hl_groups)
            for field in dataclasses.fields(want):
                a, b = getattr(got, field.name), getattr(want, field.name)
                if isinstance(b, float):
                    a, b = float(a).hex(), float(b).hex()
                assert a == b, (kind, n, field.name, a, b)
            # the public binned metrics run the kernel that scored the block
            stats = reliability_bins(p, y, bins)
            singles = {"ece": (ece(p, y, bins), stats.ece()), "mce": (mce(p, y, bins), stats.mce())}
            for name, values in singles.items():
                for value in values:
                    assert value.hex() == getattr(want, name).hex(), (kind, n, name)
            hl_defined += math.isfinite(got.hl_statistic)
    assert hl_defined > 0


def test_stable_order_of_a_block_is_each_rows_merge_sort():
    rng = np.random.default_rng(3)
    for probs in (rng.random((9, 50)), rng.choice([0.0, 0.5, 1.0], (9, 50)), np.zeros((2, 5))):
        expected = np.stack([np.argsort(row, kind="mergesort") for row in probs])
        np.testing.assert_array_equal(_stable_order(probs), expected)


@pytest.mark.parametrize("bins", [1, 3, 7, 10, 13, 20, 100, 1000])
def test_bin_of_matches_a_binary_search_over_the_edges(bins):
    # the rounded product p * bins, stepped down below its bin's left edge
    # and up at its right one, against a binary search over the edges: on
    # uniforms, every edge k/bins, both float neighbours of each, 0, the
    # smallest subnormal and 1, as a vector and as a block
    edges = np.arange(bins + 1) / bins
    probs = np.concatenate([
        np.random.default_rng(bins).random(200_000), edges, np.nextafter(edges, 0.0),
        np.nextafter(edges, 1.0), [0.0, 5e-324, 1.0],
    ])
    expected = np.minimum(np.searchsorted(edges, probs, side="right") - 1, bins - 1)
    got_edges, got = _bin_of(probs, bins)
    np.testing.assert_array_equal(got_edges, edges)
    np.testing.assert_array_equal(got, expected)
    block = probs[: probs.size // 4 * 4].reshape(4, -1)
    np.testing.assert_array_equal(_bin_of(block, bins)[1], expected[: block.size].reshape(4, -1))


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
