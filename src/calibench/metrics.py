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

from .errors import DegenerateGroupingError, SingleClassError, TooFewGroupsError
from ._util import check_finite, check_int, check_pairs, check_real, readonly
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


def reliability_bins(probs, labels, bins: int = 10) -> BinStats:
    """Equal-width reliability-diagram statistics.

    Each probability lands in exactly one bin (left edge inclusive, right
    edge exclusive, last bin closed at 1.0); counts sum to n.
    """
    p, y = check_pairs(probs, labels)
    return _reliability_bins(p, y, check_int(bins, "bins", 1))


def _bin_of(p, bins: int):
    """``(edges, bin index of each probability)``: the one definition of bin
    membership behind every binned metric, for pairs or ``(k, n)`` blocks."""
    # edge i is i/bins correctly rounded, so bin membership is reproducible
    # from the definition alone (linspace edges can differ in the last ulp)
    edges = np.arange(bins + 1, dtype=np.float64) / bins
    # the rounded product p * bins lands at most one bin off; a step down
    # where p is below its bin's left edge and up where it reaches the right
    # one give the index of the last edge <= p, which a binary search would
    idx = np.multiply(p, bins, out=np.empty(p.shape, np.intp), casting="unsafe")
    np.minimum(idx, bins - 1, out=idx)
    idx -= p < edges[idx]
    idx += p >= edges[1:][idx]
    return edges, np.minimum(idx, bins - 1, out=idx)  # p == 1.0 belongs to the last bin


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


def _resampled(metric: str, probs, labels, bins: int, blocks):
    """Value of ``metric``, one of ``bootstrap_metric_ci``'s, on each resample
    ``(p[r], y[r])`` of checked pairs for the rows ``r`` of each index block
    in ``blocks``, in order; NaN for an AUC on one class.  Each row of a
    gathered block is scored by the kernel behind the public metric, bit
    for bit as on that resample alone."""
    p = np.ascontiguousarray(probs, dtype=np.float64)
    # the labels are 0 or 1: as float64 they are bincount's weights as they
    # stand; as int8 the other metrics' gathered blocks are an eighth the size
    binned = metric in ("ece", "mce", "reliability")
    y = np.asarray(labels).astype(np.float64 if binned else np.int8)
    _, bin_of = _bin_of(p, bins)
    values = []
    for rows in blocks:
        if metric == "brier":
            values.append(_brier(p[rows], y[rows]))
        elif metric == "log_loss":
            values.append(_log_loss(p[rows], y[rows], 1e-15))
        elif metric == "auc":
            by_score = np.take_along_axis(rows, np.argsort(p[rows], axis=-1), -1)
            values.append(_auc(p[by_score], y[by_score]))
        else:
            e, m = _ece_mce(p[rows], y[rows], bin_of[rows], bins)
            values.append({"ece": e, "mce": m, "reliability": 1.0 - e}[metric])
    return np.concatenate(values)


def _ece_mce(p, y, keys, bins: int):
    """ECE and MCE of each row of ``(k, n)`` blocks of validated pairs whose
    bins from :func:`_bin_of` are ``keys``, which become the bincount keys
    in place.

    One bincount per statistic over the keys ``row * bins + bin`` gives every
    row's counts and sums.  Bincount adds in array order, so each row's bins
    equal those of :func:`_reliability_bins` on the row bit for bit, and
    each ECE sums the filled bins' terms in bin order, as
    :meth:`BinStats.ece` does.
    """
    k, n = p.shape
    keys += bins * np.arange(k)[:, None]
    keys = keys.ravel()
    counts = np.bincount(keys, minlength=k * bins).reshape(k, bins)
    sum_p = np.bincount(keys, weights=p.ravel(), minlength=k * bins).reshape(k, bins)
    sum_y = np.bincount(keys, weights=y.ravel(), minlength=k * bins).reshape(k, bins)
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
    return float(_brier(*check_pairs(probs, labels)))


def _brier(p, y):
    """Brier score of validated pairs, or of each row of ``(k, n)`` blocks."""
    return np.mean((p - y) ** 2, axis=-1)


def log_loss(probs, labels, epsilon: float = 1e-15) -> float:
    """Mean negative log-likelihood with probabilities clipped to [eps, 1-eps]."""
    p, y = check_pairs(probs, labels)
    return float(_log_loss(p, y, check_real(epsilon, "epsilon", 0.0, 0.5)))


def _log_loss(p, y, epsilon: float):
    """Log loss of validated pairs, or of each row of ``(k, n)`` blocks."""
    q = np.clip(p, epsilon, 1.0 - epsilon)
    return -np.mean(y * np.log(q) + (1 - y) * np.log1p(-q), axis=-1)


def auc(scores, labels) -> float:
    """Rank-based AUC: P(score of random positive > score of random negative).

    Ties contribute 1/2 via mid-ranks, so the result is invariant under any
    strictly increasing transform of the scores.  Scores must be finite.
    """
    s, y = check_pairs(scores, labels, "scores", check_finite, 0)
    _check_two_classes(y)
    order = np.argsort(s)
    return float(_auc(s[order], y[order]))


def _check_two_classes(y) -> None:
    """SingleClassError unless validated labels hold both classes, as AUC needs."""
    positives = int(y.sum())
    if positives == 0 or positives == y.size:
        raise SingleClassError("labels: AUC needs at least one positive and one negative label")


def _stable_order(p) -> np.ndarray:
    """The stable argsort of ``p`` along its last axis, as
    ``argsort(kind="mergesort")`` gives it, for a vector or each row of a
    ``(k, n)`` block.

    The default argsort already is that permutation when no sorted row has
    two equal neighbours.  Otherwise the stable argsort of each row's dense
    ranks from that sort is; with at most 65,536 levels in a row the ranks
    are ``uint16``, which NumPy radix-sorts faster than it merge-sorts floats.
    """
    order = np.argsort(p, axis=-1)
    sorted_p = np.take_along_axis(p, order, -1)
    rises = sorted_p[..., 1:] != sorted_p[..., :-1]
    if rises.all():
        return order
    levels = int(np.count_nonzero(rises, axis=-1).max()) + 1
    ranks = np.empty(p.shape, dtype=np.uint16 if levels <= 1 << 16 else np.intp)
    np.put_along_axis(ranks, order[..., :1], 0, -1)
    np.put_along_axis(ranks, order[..., 1:], np.cumsum(rises, axis=-1, dtype=ranks.dtype), -1)
    return np.argsort(ranks, axis=-1, kind="stable")


def _auc(sorted_s, sorted_y):
    """AUC of validated pairs sorted by score along the last axis, of one
    1-D pair or of each row of a ``(k, n)`` block; NaN where the pairs hold
    one class.

    A tie group of ``m`` scores from 0-based place ``a`` of its row shares
    the mid-rank ``a + (m + 1)/2``.  Twice every rank sum is an integer,
    exact in any order of addition, so each AUC is one rounding of an exact
    ratio, and a row's AUC equals that of its pairs alone bit for bit.
    """
    n = sorted_s.shape[-1]
    n_pos = sorted_y.sum(axis=-1)
    pairs = n_pos * (n - n_pos)
    first = np.empty(sorted_s.shape, dtype=bool)  # True where a tie group starts
    first[..., 0] = True
    np.not_equal(sorted_s[..., 1:], sorted_s[..., :-1], out=first[..., 1:])
    starts = np.flatnonzero(first)
    sizes = np.append(starts[1:], sorted_s.size) - starts
    twice_ranks = np.repeat(2 * (starts % n) + sizes + 1, sizes).reshape(sorted_s.shape)
    twice_u = (twice_ranks * sorted_y).sum(axis=-1) - n_pos * (n_pos + 1)
    return np.divide(twice_u, 2 * pairs, out=np.full(pairs.shape, np.nan), where=pairs > 0)


def hosmer_lemeshow(probs, labels, groups: int = 10):
    """Hosmer-Lemeshow goodness-of-fit test over equal-count risk groups.

    Samples are sorted by predicted probability and split into ``groups``
    near-equal groups; the statistic sums (O-E)^2/E over both outcome cells;
    the p-value uses a chi-square with (effective groups - 2) degrees of
    freedom.  Groups whose expected count in either cell falls below 1e-9
    are merged with their right neighbor (the last group merges leftward).

    Returns ``(statistic, p_value)``.
    """
    p, y = check_pairs(probs, labels)
    groups = check_int(groups, "groups")
    order = _stable_order(p)
    observed, expected, counts = _hl_cells(p[order], y[order], groups)
    return _hosmer_lemeshow(observed.tolist(), expected.tolist(), counts)


def _hl_cells(sorted_p, sorted_y, groups: int):
    """``(observed positives, expected positives, group sizes)`` of the
    Hosmer-Lemeshow groups of validated pairs sorted stably by probability
    along the last axis, of one 1-D pair or each row of a ``(k, n)`` block;
    the sums are float arrays ending in a ``groups`` axis.

    The groups are those ``np.array_split`` deals, the first ``n % groups``
    one longer.  Each is a slice of a row, and a sum along the contiguous
    last axis of a view adds as the 1-D sum of that slice does.
    """
    n = sorted_p.shape[-1]
    if groups < 3 or n < groups:
        raise TooFewGroupsError(f"need n >= groups >= 3, got n={n}, groups={groups}")
    size, longer = divmod(n, groups)
    cut = longer * (size + 1)
    lead = sorted_p.shape[:-1]

    def group_sums(a):
        head = a[..., :cut].reshape(*lead, longer, size + 1).sum(axis=-1)
        tail = a[..., cut:].reshape(*lead, groups - longer, size).sum(axis=-1)
        return np.concatenate([head, tail], axis=-1).astype(np.float64)

    counts = [size + 1] * longer + [size] * (groups - longer)
    return group_sums(sorted_y), group_sums(sorted_p), counts


def _hosmer_lemeshow(observed, expected, counts):
    """Hosmer-Lemeshow ``(statistic, p_value)`` from one row of
    :func:`_hl_cells`, as lists."""
    merged = []
    carry = None
    for o1, e1, cnt in zip(observed, expected, counts):
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
    p, y = check_pairs(probs, labels)
    bins = check_int(bins, "bins", 1)
    hl_groups = check_int(hl_groups, "hl_groups")
    _check_two_classes(y)
    return _metric_reports(p[None], y[None], bins, hl_groups)[0]


def _metric_reports(p, y, bins: int, hl_groups: int) -> tuple:
    """The :class:`MetricReport` of each row of ``(k, n)`` blocks of
    validated pairs whose every row holds both classes; each equals
    :func:`metric_report` on its row alone, bit for bit, since every
    kernel scores a row as it scores that row on its own."""
    k, n = p.shape
    ece, mce = _ece_mce(p, y, _bin_of(p, bins)[1], bins)
    brier, log_loss = _brier(p, y), _log_loss(p, y, 1e-15)
    order = _stable_order(p)  # Hosmer-Lemeshow needs it stable, AUC any sort
    sorted_p, sorted_y = np.take_along_axis(p, order, -1), np.take_along_axis(y, order, -1)
    del order
    auc = _auc(sorted_p, sorted_y)
    hl = [(float("nan"), float("nan"))] * k
    try:
        observed, expected, counts = _hl_cells(sorted_p, sorted_y, hl_groups)
    except TooFewGroupsError:
        pass
    else:
        for row, cells in enumerate(zip(observed.tolist(), expected.tolist())):
            try:
                hl[row] = _hosmer_lemeshow(*cells, counts)
            except DegenerateGroupingError:
                pass
    columns = zip(ece.tolist(), mce.tolist(), brier.tolist(), log_loss.tolist(), auc.tolist(), hl)
    return tuple(
        MetricReport(e, m, b, loss, a, 1.0 - e, *hl_row, n=n, bin_count=bins)
        for e, m, b, loss, a, hl_row in columns
    )
