"""Calibration and discrimination metrics for binary probabilistic classifiers.

Conventions
-----------
* Probabilities are binned into ``M`` equal-width bins; bin ``m`` covers
  ``[(m-1)/M, m/M)`` and the final bin is closed at 1.0.  A single binning
  routine backs ``ece``, ``mce`` and ``reliability_bins``, so the three are
  exactly consistent with each other.
* ``acc(B)`` is the empirical positive frequency inside a bin and ``conf(B)``
  the mean predicted probability; ECE is the count-weighted mean of
  ``|acc - conf|``, MCE the maximum over non-empty bins.
* AUC counts ties as 1/2 and is computed from rank sums in O(n log n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGroupingError,
    LengthMismatchError,
    NonFiniteScoreError,
    ProbabilityOutOfRangeError,
    SingleClassError,
    TooFewGroupsError,
)
from ._util import as_binary_labels, as_float_vector, readonly
from . import stats

__all__ = [
    "BinStats",
    "MetricReport",
    "ece",
    "mce",
    "brier",
    "log_loss",
    "auc",
    "reliability_bins",
    "hosmer_lemeshow",
    "metric_report",
]


@dataclass(frozen=True)
class BinStats:
    """Per-bin reliability-diagram data.

    ``mean_confidence`` and ``empirical_accuracy`` are NaN for empty bins;
    use :attr:`empty` to tell genuinely empty bins from data.
    """

    bin_edges: np.ndarray        # M + 1 increasing edges spanning [0, 1]
    counts: np.ndarray           # per-bin sample counts, sum to n
    mean_confidence: np.ndarray  # conf(B_m), NaN where empty
    empirical_accuracy: np.ndarray  # acc(B_m), NaN where empty

    @property
    def empty(self) -> np.ndarray:
        return self.counts == 0

    def ece(self) -> float:
        """Recompute ECE exactly from the stored bins."""
        n = int(self.counts.sum())
        gaps = np.abs(self.empirical_accuracy - self.mean_confidence)
        filled = ~self.empty
        return float(np.sum(self.counts[filled] * gaps[filled]) / n)

    def mce(self) -> float:
        """Recompute MCE (max gap over non-empty bins) from the stored bins."""
        gaps = np.abs(self.empirical_accuracy - self.mean_confidence)
        return float(gaps[~self.empty].max())


@dataclass(frozen=True)
class MetricReport:
    """All metrics from one evaluation pass.

    ``reliability`` is defined as ``1 - ece``.  ``hl_statistic`` and
    ``hl_p_value`` are NaN when the Hosmer-Lemeshow grouping is degenerate
    (fewer than 3 effective groups, or n below the group count).
    """

    ece: float
    mce: float
    brier: float
    log_loss: float
    auc: float
    reliability: float
    hl_statistic: float
    hl_p_value: float
    n: int
    bin_count: int


def _validate_pairs(probs, labels):
    p = as_float_vector(probs, "probs")
    y = as_binary_labels(labels)
    if p.size != y.size:
        raise LengthMismatchError(f"probs and labels differ in length: {p.size} vs {y.size}")
    if p.size == 0:
        raise LengthMismatchError("at least one (prob, label) pair is required")
    if not np.isfinite(p).all() or (p < 0.0).any() or (p > 1.0).any():
        raise ProbabilityOutOfRangeError("probabilities must lie in [0, 1]")
    return p, y


def reliability_bins(probs, labels, bins: int = 10) -> BinStats:
    """Equal-width reliability-diagram statistics.

    Each probability lands in exactly one bin (left edge inclusive, right
    edge exclusive, last bin closed at 1.0); counts sum to n.
    """
    p, y = _validate_pairs(probs, labels)
    return _reliability_bins(p, y, bins)


def _bin_of(p, bins: int):
    """``(edges, bin index of each probability)``: the one definition of bin
    membership behind every binned metric."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    # edge i is i/bins correctly rounded, so bin membership is reproducible
    # from the definition alone (linspace edges can differ in the last ulp)
    edges = np.arange(bins + 1, dtype=np.float64) / bins
    idx = np.searchsorted(edges, p, side="right") - 1
    return edges, np.minimum(idx, bins - 1)  # p == 1.0 belongs to the last bin


def _reliability_bins(p, y, bins: int) -> BinStats:
    edges, idx = _bin_of(p, bins)
    counts = np.bincount(idx, minlength=bins)
    conf = np.full(bins, np.nan)
    acc = np.full(bins, np.nan)
    filled = counts > 0
    conf[filled] = np.bincount(idx, weights=p, minlength=bins)[filled] / counts[filled]
    acc[filled] = np.bincount(idx, weights=y, minlength=bins)[filled] / counts[filled]
    return BinStats(readonly(edges), readonly(counts), readonly(conf), readonly(acc))


def ece(probs, labels, bins: int = 10) -> float:
    """Expected calibration error: sum_m |B_m|/n * |acc(B_m) - conf(B_m)|."""
    return reliability_bins(probs, labels, bins).ece()


def mce(probs, labels, bins: int = 10) -> float:
    """Maximum calibration error: max over non-empty bins of |acc - conf|."""
    return reliability_bins(probs, labels, bins).mce()


def _resampled_ece_mce(p, y, bin_of, bins: int, rows):
    """ECE and MCE of each resample ``(p[r], y[r])`` for the rows ``r`` of the
    index array ``rows``, from validated pairs and their bins ``bin_of``.

    One bincount per statistic over the keys ``row * bins + bin`` gives every
    row's counts and sums.  Bincount adds in array order, so each row's bins
    equal those of :func:`_reliability_bins` on its resample bit for bit,
    and each ECE sums the filled bins' terms in bin order, as
    :meth:`BinStats.ece` does.
    """
    k, n = rows.shape
    keys = bin_of[rows]
    keys += bins * np.arange(k)[:, None]
    keys = keys.ravel()
    counts = np.bincount(keys, minlength=k * bins).reshape(k, bins)
    sum_p = np.bincount(keys, weights=p[rows].ravel(), minlength=k * bins).reshape(k, bins)
    sum_y = np.bincount(keys, weights=y[rows].ravel(), minlength=k * bins).reshape(k, bins)
    with np.errstate(invalid="ignore"):  # 0/0 in empty bins
        gaps = np.abs(sum_y / counts - sum_p / counts)
    filled = counts > 0
    # each row's filled terms moved to its front, in bin order; a row sum over
    # a contiguous slice of exactly those terms adds them as np.sum does on
    # the 1-D array (adding the empty bins as zeros, or np.add.reduceat,
    # changes the order and the last bit)
    width = filled.sum(axis=1)
    front = np.zeros((k, bins))
    front[np.arange(bins) < width[:, None]] = counts[filled] * gaps[filled]
    ece = np.empty(k)
    for m in np.unique(width):
        group = width == m
        ece[group] = front[group, :m].sum(axis=1)
    return ece / n, np.fmax.reduce(gaps, axis=1)


def brier(probs, labels) -> float:
    """Mean squared error between probabilities and binary outcomes."""
    p, y = _validate_pairs(probs, labels)
    return _brier(p, y)


def _brier(p, y) -> float:
    return float(np.mean((p - y) ** 2))


def log_loss(probs, labels, epsilon: float = 1e-15) -> float:
    """Mean negative log-likelihood with probabilities clipped to [eps, 1-eps]."""
    p, y = _validate_pairs(probs, labels)
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 0.5), got {epsilon}")
    return _log_loss(p, y, epsilon)


def _log_loss(p, y, epsilon: float) -> float:
    q = np.clip(p, epsilon, 1.0 - epsilon)
    return float(-np.mean(y * np.log(q) + (1 - y) * np.log1p(-q)))


def auc(scores, labels) -> float:
    """Rank-based AUC: P(score of random positive > score of random negative).

    Ties contribute 1/2 via mid-ranks, so the result is invariant under any
    strictly increasing transform of the scores.  Scores must be finite.
    """
    s = as_float_vector(scores, "scores")
    y = as_binary_labels(labels)
    if s.size != y.size:
        raise LengthMismatchError(f"scores and labels differ in length: {s.size} vs {y.size}")
    if not np.isfinite(s).all():
        raise NonFiniteScoreError("scores must be finite (no NaN or inf)")
    return _auc(s, y, _stable_order(s))


def _stable_order(p) -> np.ndarray:
    """``p``'s stable argsort, as ``argsort(kind="mergesort")`` gives it.

    The default argsort already is that permutation when sorted ``p`` has
    no two equal neighbours.  Otherwise the stable argsort of the dense
    ranks from that sort is; with at most 65,536 levels the ranks are
    ``uint16``, which NumPy radix-sorts faster than it merge-sorts floats.
    NaNs sort last and tie with each other, as they do in a merge sort.
    """
    order = np.argsort(p)
    sorted_p = p[order]
    rises = sorted_p[1:] != sorted_p[:-1]
    if p.size and np.isnan(sorted_p[-1]):
        rises[np.flatnonzero(np.isnan(sorted_p))[0]:] = False
    if rises.all():
        return order
    levels = int(np.count_nonzero(rises)) + 1
    ranks = np.empty(p.size, dtype=np.uint16 if levels <= 1 << 16 else np.intp)
    ranks[order[0]] = 0
    ranks[order[1:]] = np.cumsum(rises)
    return np.argsort(ranks, kind="stable")


def _auc(s, y, order) -> float:
    """AUC of validated pairs; ``order`` sorts ``s``.  Tied scores share a
    mid-rank, so any sorting order gives the same AUC."""
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("AUC needs at least one positive and one negative label")
    ranks = np.empty(s.size, dtype=np.float64)
    sorted_scores = s[order]
    # mid-ranks: average the 1-based positions within each tie group
    boundaries = np.flatnonzero(np.diff(sorted_scores) != 0) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [s.size]))
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    rank_sum_pos = float(ranks[y == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def hosmer_lemeshow(probs, labels, groups: int = 10):
    """Hosmer-Lemeshow goodness-of-fit test over equal-count risk groups.

    Samples are sorted by predicted probability and split into ``groups``
    near-equal groups; the statistic sums (O-E)^2/E over both outcome cells;
    the p-value uses a chi-square with (effective groups - 2) degrees of
    freedom.  Groups whose expected count in either cell falls below 1e-9
    are merged with their right neighbor (the last group merges leftward).

    Returns ``(statistic, p_value)``.
    """
    p, y = _validate_pairs(probs, labels)
    return _hosmer_lemeshow(p, y, groups, _stable_order(p))


def _hosmer_lemeshow(p, y, groups: int, order):
    """Hosmer-Lemeshow of validated pairs; ``order`` is ``p``'s stable
    argsort, which decides the group of each tied probability."""
    if groups < 3 or p.size < groups:
        raise TooFewGroupsError(f"need n >= groups >= 3, got n={p.size}, groups={groups}")
    cells = []  # (observed positives, expected positives, count)
    for chunk in np.array_split(order, groups):
        cells.append((float(y[chunk].sum()), float(p[chunk].sum()), len(chunk)))

    merged = []
    carry = None
    for o1, e1, cnt in cells:
        if carry is not None:
            o1, e1, cnt = o1 + carry[0], e1 + carry[1], cnt + carry[2]
            carry = None
        e0 = cnt - e1
        if e1 < 1e-9 or e0 < 1e-9:
            carry = (o1, e1, cnt)
        else:
            merged.append((o1, e1, cnt))
    if carry is not None:
        if merged:
            o1, e1, cnt = merged.pop()
            merged.append((o1 + carry[0], e1 + carry[1], cnt + carry[2]))
        else:
            merged.append(carry)

    effective = len(merged)
    if effective < 3:
        raise DegenerateGroupingError(
            f"only {effective} effective group(s) after merging; need >= 3"
        )
    statistic = 0.0
    for o1, e1, cnt in merged:
        e0 = cnt - e1
        o0 = cnt - o1
        statistic += (o1 - e1) ** 2 / e1 + (o0 - e0) ** 2 / e0
    df = effective - 2
    p_value = 1.0 - stats.chi2_cdf(statistic, df)
    return statistic, p_value


def metric_report(probs, labels, bins: int = 10, hl_groups: int = 10) -> MetricReport:
    """Evaluate every metric at once for a single prediction set.

    Hosmer-Lemeshow fields degrade to NaN rather than raising when the
    grouping is infeasible (tiny folds, near-constant probabilities), so
    benchmark loops never abort on an edge-case fold.
    """
    p, y = _validate_pairs(probs, labels)
    bin_stats = _reliability_bins(p, y, bins)
    e = bin_stats.ece()
    order = _stable_order(p)  # Hosmer-Lemeshow needs it stable, AUC any sort
    try:
        hl_stat, hl_p = _hosmer_lemeshow(p, y, hl_groups, order)
    except (TooFewGroupsError, DegenerateGroupingError):
        hl_stat, hl_p = float("nan"), float("nan")
    return MetricReport(
        ece=e,
        mce=bin_stats.mce(),
        brier=_brier(p, y),
        log_loss=_log_loss(p, y, 1e-15),
        auc=_auc(p, y, order),
        reliability=1.0 - e,
        hl_statistic=hl_stat,
        hl_p_value=hl_p,
        n=p.size,
        bin_count=bins,
    )
