"""Statistical machinery: distribution CDFs against scipy and closed forms,
test procedures against hand calculations and scipy equivalents."""

import math

import numpy as np
import pytest
import scipy.stats

from calibench import (
    bonferroni,
    chi2_cdf,
    cohens_d_paired,
    mean_ci,
    normal_cdf,
    paired_t_test,
    shapiro_wilk,
    t_cdf,
)
from calibench.errors import (
    DegenerateVarianceError,
    EmptyFamilyError,
    InvalidDFError,
    LengthMismatchError,
    SampleSizeOutOfRangeError,
    TooFewSamplesError,
)


# ---------------------------------------------------------------------------
# distribution functions
# ---------------------------------------------------------------------------

def test_t_cdf_symmetry_and_hand_value():
    for df in (1, 2, 5, 30):
        assert t_cdf(0.0, df) == pytest.approx(0.5, abs=1e-14)
    # closed form for df=2: P(T > t) = (1 - t/sqrt(2+t^2)) / 2
    t = 3.464
    want = 1.0 - 0.5 * (1.0 - t / math.sqrt(2.0 + t * t))
    assert t_cdf(t, 2) == pytest.approx(want, abs=1e-12)
    assert t_cdf(t, 2) == pytest.approx(0.9629, abs=5e-5)


def test_t_cdf_df1_is_cauchy():
    for x in (-5.0, -1.0, -0.3, 0.7, 2.0, 10.0):
        want = 0.5 + math.atan(x) / math.pi
        assert t_cdf(x, 1) == pytest.approx(want, abs=1e-12)


def test_t_cdf_matches_scipy_grid():
    for df in (1, 2, 3, 7, 12, 49, 200):
        for x in np.linspace(-8.0, 8.0, 33):
            assert t_cdf(float(x), df) == pytest.approx(
                float(scipy.stats.t.cdf(x, df)), abs=1e-10
            )


def test_cdfs_reject_a_nan_x_as_bad_input():
    # not NotConvergedError, which the CLI reports as a numerical failure
    with pytest.raises(ValueError, match="^x must be a number, got nan"):
        t_cdf(float("nan"), 5)
    with pytest.raises(ValueError, match=r"^chi-square requires x >= 0, got nan"):
        chi2_cdf(float("nan"), 5)
    assert t_cdf(math.inf, 5) == 1.0 and t_cdf(-math.inf, 5) == 0.0


def test_chi2_cdf_matches_scipy_grid():
    assert chi2_cdf(0.0, 5) == 0.0
    for df in (1, 2, 4, 8, 10, 30):
        for x in np.linspace(0.01, 60.0, 40):
            assert chi2_cdf(float(x), df) == pytest.approx(
                float(scipy.stats.chi2.cdf(x, df)), abs=1e-10
            )


def test_normal_cdf_matches_scipy_grid():
    for x in np.linspace(-6.0, 6.0, 49):
        assert normal_cdf(float(x)) == pytest.approx(
            float(scipy.stats.norm.cdf(x)), abs=1e-12
        )


def test_invalid_df_rejected():
    with pytest.raises(InvalidDFError):
        t_cdf(1.0, 0)
    with pytest.raises(InvalidDFError):
        chi2_cdf(1.0, -3)


# ---------------------------------------------------------------------------
# paired t-test
# ---------------------------------------------------------------------------

def test_paired_t_identical_samples():
    result = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.t_statistic == 0.0
    assert result.p_value == 1.0
    assert result.degenerate


def test_paired_t_hand_case():
    # differences (1, 2, 3): t = 2 / (1/sqrt(3)) = 2*sqrt(3)
    result = paired_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
    assert result.t_statistic == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
    assert result.df == 2
    assert result.p_value == pytest.approx(0.0742, abs=5e-5)
    assert result.mean_diff == pytest.approx(2.0, abs=1e-15)


def test_paired_t_antisymmetry():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(3, 30))
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        fwd = paired_t_test(a, b)
        rev = paired_t_test(b, a)
        assert fwd.t_statistic == pytest.approx(-rev.t_statistic, abs=1e-12)
        assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)


def test_paired_t_matches_scipy():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(3, 60))
        a = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
        b = a + rng.standard_normal(n) * 0.5 + rng.uniform(-1, 1)
        mine = paired_t_test(a, b)
        ref = scipy.stats.ttest_rel(a, b)
        assert mine.t_statistic == pytest.approx(float(ref.statistic), abs=1e-9)
        assert mine.p_value == pytest.approx(float(ref.pvalue), abs=1e-9)


def test_paired_t_constant_nonzero_difference():
    result = paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
    assert result.degenerate
    assert result.p_value == 0.0
    assert math.isinf(result.t_statistic) and result.t_statistic > 0


def test_paired_t_rejects_non_finite_values():
    with pytest.raises(ValueError, match="finite"):
        paired_t_test([1.0, float("nan"), 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="finite"):
        cohens_d_paired([1.0, 2.0, 3.0], [1.0, float("inf"), 2.0])


def test_paired_t_length_mismatch():
    with pytest.raises(LengthMismatchError):
        paired_t_test([1.0, 2.0], [1.0])


# ---------------------------------------------------------------------------
# effect size
# ---------------------------------------------------------------------------

def test_cohens_d_hand_case_and_scale_invariance():
    a = np.array([2.0, 4.0, 6.0])
    b = np.array([1.0, 2.0, 3.0])
    assert cohens_d_paired(a, b) == pytest.approx(2.0, abs=1e-12)
    assert cohens_d_paired(b + 10.0 * (a - b), b) == pytest.approx(2.0, abs=1e-12)


def test_cohens_d_degenerate_conventions():
    with pytest.warns(UserWarning):
        assert cohens_d_paired([1.0, 2.0], [1.0, 2.0]) == 0.0
    with pytest.raises(DegenerateVarianceError):
        cohens_d_paired([2.0, 3.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# Bonferroni
# ---------------------------------------------------------------------------

def test_bonferroni_thresholds():
    threshold, decisions = bonferroni([0.01], 0.05)
    assert threshold == 0.05
    assert decisions.tolist() == [True]
    threshold, _ = bonferroni([0.5] * 15, 0.05)
    assert threshold == 0.05 / 15
    assert threshold == pytest.approx(0.003333, abs=5e-7)
    threshold, _ = bonferroni([0.5] * 30, 0.05)
    assert threshold == 0.05 / 30
    assert threshold == pytest.approx(0.00167, abs=5e-6)


def test_bonferroni_decisions_are_strict_comparisons():
    threshold, decisions = bonferroni([0.01, 0.025, 0.024999], 0.05 * 2)
    assert threshold == pytest.approx(0.1 / 3, abs=1e-15)
    assert decisions.tolist() == [True, True, True]
    _, decisions = bonferroni([0.05, 0.04999, 0.9], 0.05)
    assert decisions.tolist() == [False, False, False]


def test_bonferroni_empty_family():
    with pytest.raises(EmptyFamilyError):
        bonferroni([], 0.05)


# ---------------------------------------------------------------------------
# confidence intervals
# ---------------------------------------------------------------------------

def test_mean_ci_constant_sample():
    interval = mean_ci([3.0, 3.0, 3.0, 3.0])
    assert (interval.mean, interval.lower, interval.upper) == (3.0, 3.0, 3.0)


def test_mean_ci_hand_case():
    interval = mean_ci([1.0, 2.0, 3.0], level=0.95)
    assert interval.mean == pytest.approx(2.0, abs=1e-15)
    assert interval.lower == pytest.approx(-0.484, abs=5e-4)
    assert interval.upper == pytest.approx(4.484, abs=5e-4)


def test_mean_ci_matches_scipy_quantile():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(2, 50))
        x = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
        for level in (0.8, 0.9, 0.95, 0.99):
            interval = mean_ci(x, level=level)
            q = float(scipy.stats.t.ppf(0.5 + level / 2.0, n - 1))
            half = q * x.std(ddof=1) / math.sqrt(n)
            assert interval.lower == pytest.approx(x.mean() - half, rel=1e-8, abs=1e-9)
            assert interval.upper == pytest.approx(x.mean() + half, rel=1e-8, abs=1e-9)


def test_mean_ci_widens_with_level():
    x = [0.4, 1.9, 2.2, 3.3, 0.1]
    narrow = mean_ci(x, level=0.95)
    wide = mean_ci(x, level=0.99)
    assert wide.lower < narrow.lower
    assert wide.upper > narrow.upper


def test_mean_ci_needs_two_samples():
    with pytest.raises(TooFewSamplesError):
        mean_ci([1.0])


def test_mean_ci_rejects_a_non_finite_sample_by_name():
    with pytest.raises(ValueError, match="^samples must be finite"):
        mean_ci([1.0, float("nan"), 2.0])


# ---------------------------------------------------------------------------
# Shapiro-Wilk
# ---------------------------------------------------------------------------

def test_shapiro_wilk_matches_scipy():
    rng = np.random.default_rng(3)
    for n in (3, 10, 50, 200, 1000, 4999):
        x = rng.standard_normal(n) * 2.3 + 1.0
        mine = shapiro_wilk(x)
        ref = scipy.stats.shapiro(x)
        assert mine.w_statistic == pytest.approx(float(ref.statistic), abs=1e-8)
        assert mine.p_value == pytest.approx(float(ref.pvalue), abs=1e-5)
        assert mine.n == n


def test_shapiro_wilk_affine_invariance():
    rng = np.random.default_rng(17)
    x = rng.standard_normal(100)
    base = shapiro_wilk(x)
    moved = shapiro_wilk(3.0 * x + 7.0)
    assert abs(base.w_statistic - moved.w_statistic) < 1e-10


def test_shapiro_wilk_rejects_obviously_non_normal():
    rng = np.random.default_rng(8)
    bimodal = np.concatenate([rng.normal(-4, 0.3, 500), rng.normal(4, 0.3, 500)])
    assert shapiro_wilk(bimodal).p_value < 1e-6


def test_shapiro_wilk_degenerate_and_size_limits():
    with pytest.raises(DegenerateVarianceError):
        shapiro_wilk([2.0, 2.0, 2.0, 2.0])
    with pytest.raises(SampleSizeOutOfRangeError):
        shapiro_wilk([1.0, 2.0])
    with pytest.raises(SampleSizeOutOfRangeError):
        shapiro_wilk(np.random.default_rng(0).standard_normal(5001))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_shapiro_wilk_rejects_a_non_finite_sample_by_name(bad):
    with pytest.raises(ValueError, match="^samples must be finite"):
        shapiro_wilk([1.0, bad, 2.0, 3.0, 4.0])
