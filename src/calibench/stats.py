"""Statistical machinery: special functions, paired tests, and normality.

Everything here is self-contained (numpy + math only).  The distribution
functions are computed from first principles:

* ``t_cdf``      — regularized incomplete beta via continued fractions,
* ``chi2_cdf``   — regularized lower incomplete gamma (series / continued
  fraction split at x = s + 1),
* ``normal_cdf`` — complementary error function.

Continued fractions use the modified Lentz method and iterate to a relative
tolerance of 1e-14 (comfortably below the documented 1e-10 absolute accuracy
target), after Numerical Recipes §6.2–6.4.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateVarianceError,
    EmptyFamilyError,
    InvalidDFError,
    LengthMismatchError,
    NotConvergedError,
    SampleSizeOutOfRangeError,
    TooFewSamplesError,
)
from ._util import as_float_vector

__all__ = [
    "PairedComparison",
    "IntervalEstimate",
    "NormalityReport",
    "normal_cdf",
    "t_cdf",
    "chi2_cdf",
    "paired_t_test",
    "cohens_d_paired",
    "bonferroni",
    "mean_ci",
    "shapiro_wilk",
]

_EPS = 1e-14
_FPMIN = 1e-300
_MAX_ITER = 500


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairedComparison:
    """Outcome of a two-sided paired t-test on ``a - b``.

    ``significant_at_corrected_alpha`` is filled in by whoever owns the
    comparison family (see :func:`bonferroni` and the benchmark harness);
    a fresh test always carries ``False``.  ``degenerate`` flags the
    zero-variance conventions: sd = 0 with zero mean gives t = 0, p = 1;
    sd = 0 with nonzero mean gives t = ±inf, p = 0.
    """

    name_a: str
    name_b: str
    mean_diff: float
    t_statistic: float
    df: int
    p_value: float
    cohens_d: float
    significant_at_corrected_alpha: bool = False
    degenerate: bool = False


@dataclass(frozen=True)
class IntervalEstimate:
    """A point estimate with a two-sided confidence interval."""

    mean: float
    lower: float
    upper: float
    level: float

    def __post_init__(self):
        if not (self.lower <= self.mean <= self.upper):
            raise ValueError(
                f"interval must satisfy lower <= mean <= upper, got "
                f"({self.lower}, {self.mean}, {self.upper})"
            )
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")


@dataclass(frozen=True)
class NormalityReport:
    """Shapiro-Wilk W statistic with its approximate p-value."""

    w_statistic: float
    p_value: float
    n: int


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise NotConvergedError("incomplete beta continued fraction did not converge")


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # use the continued fraction on the side where it converges fastest
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _reg_lower_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x)."""
    if x <= 0.0:
        return 0.0
    ln_pref = -x + s * math.log(x) - math.lgamma(s)
    if x < s + 1.0:
        # series representation
        ap = s
        total = 1.0 / s
        term = total
        for _ in range(_MAX_ITER):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _EPS:
                return total * math.exp(ln_pref)
        raise NotConvergedError("incomplete gamma series did not converge")
    # continued fraction for the upper tail Q(s, x)
    b = x + 1.0 - s
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return 1.0 - math.exp(ln_pref) * h
    raise NotConvergedError("incomplete gamma continued fraction did not converge")


def _check_df(df) -> int:
    if isinstance(df, bool) or df != int(df):
        raise InvalidDFError(f"degrees of freedom must be a positive integer, got {df!r}")
    df = int(df)
    if df < 1:
        raise InvalidDFError(f"degrees of freedom must be >= 1, got {df}")
    return df


def normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x) = erfc(-x / sqrt(2)) / 2."""
    return 0.5 * math.erfc(-float(x) / math.sqrt(2.0))


def t_cdf(x: float, df) -> float:
    """CDF of Student's t distribution with ``df`` degrees of freedom."""
    df = _check_df(df)
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must be a number, got nan")
    if x == 0.0:
        return 0.5
    tail = 0.5 * _reg_inc_beta(0.5 * df, 0.5, df / (df + x * x))
    return 1.0 - tail if x > 0.0 else tail


def chi2_cdf(x: float, df) -> float:
    """CDF of the chi-square distribution with ``df`` degrees of freedom."""
    df = _check_df(df)
    x = float(x)
    if not x >= 0.0:
        raise ValueError(f"chi-square requires x >= 0, got {x}")
    return _reg_lower_gamma(0.5 * df, 0.5 * x)


def _invert_cdf(cdf, p: float, lo: float, hi: float) -> float:
    """Invert a continuous monotone CDF by bisection to ~1e-13."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def _normal_quantile(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    return _invert_cdf(normal_cdf, p, -14.0, 14.0)


@lru_cache(maxsize=128)
def _t_quantile(p: float, df: int) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    return _invert_cdf(lambda x: t_cdf(x, df), p, -1e9, 1e9)


# ---------------------------------------------------------------------------
# paired comparisons
# ---------------------------------------------------------------------------

def _paired_diffs(a, b) -> np.ndarray:
    av = as_float_vector(a, "a")
    bv = as_float_vector(b, "b")
    if av.size != bv.size:
        raise LengthMismatchError(f"paired vectors differ in length: {av.size} vs {bv.size}")
    if av.size < 2:
        raise TooFewSamplesError("paired comparison needs n >= 2")
    if not (np.isfinite(av).all() and np.isfinite(bv).all()):
        raise ValueError("paired values must be finite (no NaN or inf)")
    return av - bv


def paired_t_test(a, b, name_a: str = "a", name_b: str = "b") -> PairedComparison:
    """Two-sided paired t-test on the differences ``a - b``.

    t = mean(d) / (sd(d) / sqrt(n)) with the sample standard deviation
    (n - 1 denominator); p = 2 * (1 - t_cdf(|t|, n - 1)).
    """
    d = _paired_diffs(a, b)
    n = d.size
    df = n - 1
    md = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if md == 0.0:
            return PairedComparison(name_a, name_b, 0.0, 0.0, df, 1.0, 0.0, degenerate=True)
        t = math.copysign(math.inf, md)
        return PairedComparison(name_a, name_b, md, t, df, 0.0, t, degenerate=True)
    t = md / (sd / math.sqrt(n))
    p = 2.0 * (1.0 - t_cdf(abs(t), df))
    return PairedComparison(name_a, name_b, md, t, df, min(p, 1.0), md / sd)


def cohens_d_paired(a, b) -> float:
    """Paired effect size d_z = mean(a - b) / sd(a - b)."""
    d = _paired_diffs(a, b)
    md = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if md == 0.0:
            warnings.warn("zero differences: Cohen's d set to 0 by convention", stacklevel=2)
            return 0.0
        raise DegenerateVarianceError("differences have zero variance but nonzero mean")
    return md / sd


def bonferroni(p_values, family_alpha: float):
    """Bonferroni correction: threshold = family_alpha / m, reject where p < threshold.

    Returns ``(threshold, decisions)`` with ``decisions`` a boolean array.
    """
    p = as_float_vector(p_values, "p_values")
    if p.size == 0:
        raise EmptyFamilyError("cannot correct over an empty family of p-values")
    if not 0.0 < family_alpha < 1.0:
        raise ValueError("family_alpha must lie in (0, 1)")
    if (p < 0.0).any() or (p > 1.0).any() or not np.isfinite(p).all():
        raise ValueError("p-values must lie in [0, 1]")
    threshold = family_alpha / p.size
    return threshold, p < threshold


def _finite_samples(samples) -> np.ndarray:
    x = as_float_vector(samples, "samples")
    if not np.isfinite(x).all():
        raise ValueError("samples must be finite (no NaN or inf)")
    return x


def mean_ci(samples, level: float = 0.95) -> IntervalEstimate:
    """t-based confidence interval: mean +/- t_{(1+level)/2, n-1} * sd / sqrt(n)."""
    x = _finite_samples(samples)
    if x.size < 2:
        raise TooFewSamplesError("confidence interval needs n >= 2")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    n = x.size
    m = float(x.mean())
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        return IntervalEstimate(m, m, m, level)
    half = _t_quantile(0.5 * (1.0 + level), n - 1) * sd / math.sqrt(n)
    return IntervalEstimate(m, m - half, m + half, level)


# ---------------------------------------------------------------------------
# Shapiro-Wilk (Royston's AS R94 approximation)
# ---------------------------------------------------------------------------

# polynomial corrections for the two largest order-statistic weights,
# highest degree first, evaluated at u = 1/sqrt(n)
_SW_C1 = (-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, 0.0)
_SW_C2 = (-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0)


@lru_cache(maxsize=128)
def _sw_weights(n: int) -> np.ndarray:
    """Royston's approximate normalized weights a_1..a_n (antisymmetric)."""
    if n == 3:
        return np.array([-math.sqrt(0.5), 0.0, math.sqrt(0.5)])
    m = np.array([_normal_quantile((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)])
    ssq = float(m @ m)
    u = 1.0 / math.sqrt(n)
    a_n = m[-1] / math.sqrt(ssq) + float(np.polyval(_SW_C1, u))
    if n > 5:
        a_n1 = m[-2] / math.sqrt(ssq) + float(np.polyval(_SW_C2, u))
        phi = (ssq - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / (
            1.0 - 2.0 * a_n ** 2 - 2.0 * a_n1 ** 2
        )
        a = m / math.sqrt(phi)
        a[-1], a[-2] = a_n, a_n1
        a[0], a[1] = -a_n, -a_n1
    else:
        phi = (ssq - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_n ** 2)
        a = m / math.sqrt(phi)
        a[-1] = a_n
        a[0] = -a_n
    a.setflags(write=False)
    return a


def shapiro_wilk(samples) -> NormalityReport:
    """Shapiro-Wilk normality test (Royston 1995, AS R94 approximations).

    Supports 3 <= n <= 5000, the validity range of the polynomial
    approximations for the weights and the p-value transform.
    """
    x = np.sort(_finite_samples(samples))
    n = x.size
    if not 3 <= n <= 5000:
        raise SampleSizeOutOfRangeError(f"Shapiro-Wilk supports 3 <= n <= 5000, got {n}")
    if x[0] == x[-1]:
        raise DegenerateVarianceError("Shapiro-Wilk is undefined for a constant sample")

    a = _sw_weights(n)
    centered = x - x.mean()
    w = float((a @ x) ** 2 / (centered @ centered))
    w = min(w, 1.0)

    if n == 3:
        p = (6.0 / math.pi) * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        return NormalityReport(w, min(max(p, 0.0), 1.0), n)

    one_minus_w = 1.0 - w
    if one_minus_w <= 0.0:
        return NormalityReport(w, 1.0, n)
    if n <= 11:
        gamma = -2.273 + 0.459 * n
        arg = gamma - math.log(one_minus_w)
        if arg <= 0.0:
            return NormalityReport(w, 0.0, n)
        y = -math.log(arg)
        mu = 0.5440 - 0.39978 * n + 0.025054 * n ** 2 - 0.0006714 * n ** 3
        sigma = math.exp(1.3822 - 0.77857 * n + 0.062767 * n ** 2 - 0.0020322 * n ** 3)
    else:
        ln_n = math.log(n)
        y = math.log(one_minus_w)
        mu = -1.5861 - 0.31082 * ln_n - 0.083751 * ln_n ** 2 + 0.0038915 * ln_n ** 3
        sigma = math.exp(-0.4803 - 0.082676 * ln_n + 0.0030302 * ln_n ** 2)
    z = (y - mu) / sigma
    return NormalityReport(w, 1.0 - normal_cdf(z), n)
