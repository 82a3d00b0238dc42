"""Independent reference implementations used to check the library.

Everything here is deliberately brute force: exhaustive enumeration and
per-sample Python loops, sharing no code with the package under test
(the row-wise CSV loaders build the package's own result and error types,
and the per-draw bootstrap scores each resample with the public metrics).
"""

import csv
import math

import numpy as np

from calibench.calibrators import ScoreSet
from calibench.datasets import Dataset, Provenance
from calibench.errors import (
    EmptyFileError,
    MissingColumnError,
    NonBinaryLabelError,
    NonNumericFeatureError,
)


def brute_force_isotonic(scores, labels):
    """Exhaustive monotone least-squares fit.

    Groups tied scores, then enumerates every contiguous partition of the
    distinct scores into blocks (2^(k-1) of them); each block is assigned
    its weighted label mean; partitions whose block values are not
    non-decreasing are infeasible; the feasible partition with minimal
    squared error is the isotonic solution (it is unique in the fitted
    values).  Only usable for tiny inputs.

    Returns (distinct_scores, fitted_value_per_distinct_score).
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    order = np.argsort(scores, kind="mergesort")
    ss, ys = scores[order], labels[order]

    knots, sums, counts = [], [], []
    for s, y in zip(ss, ys):
        if knots and knots[-1] == s:
            sums[-1] += y
            counts[-1] += 1
        else:
            knots.append(s)
            sums.append(y)
            counts.append(1)
    k = len(knots)

    best_sse = None
    best_values = None
    for mask in range(1 << (k - 1)):
        # bit i set => block boundary between distinct scores i and i+1
        values = []
        feasible = True
        sse = 0.0
        prev = -np.inf
        start = 0
        for i in range(k):
            if i == k - 1 or (mask >> i) & 1:
                total = sum(sums[start : i + 1])
                count = sum(counts[start : i + 1])
                v = total / count
                if v < prev - 1e-12:
                    feasible = False
                    break
                prev = v
                # labels are 0/1, so sum of y^2 equals sum of y
                sse += v * v * count - 2.0 * v * total + total
                values.extend([v] * (i + 1 - start))
                start = i + 1
        if feasible and (best_sse is None or sse < best_sse - 1e-12):
            best_sse = sse
            best_values = values
    return np.array(knots), np.array(best_values)


def slow_reliability(probs, labels, bins):
    """Per-sample linear-scan binning: bin m covers [m/bins, (m+1)/bins),
    last bin closed at 1.  Returns (counts, confidences, accuracies), the
    latter two holding None for empty bins."""
    counts = [0] * bins
    prob_sums = [0.0] * bins
    label_sums = [0.0] * bins
    for p, y in zip(probs, labels):
        b = bins - 1
        for m in range(bins):
            if m / bins <= p < (m + 1) / bins:
                b = m
                break
        counts[b] += 1
        prob_sums[b] += p
        label_sums[b] += y
    conf = [prob_sums[m] / counts[m] if counts[m] else None for m in range(bins)]
    acc = [label_sums[m] / counts[m] if counts[m] else None for m in range(bins)]
    return counts, conf, acc


def slow_ece(probs, labels, bins):
    counts, conf, acc = slow_reliability(probs, labels, bins)
    n = sum(counts)
    return sum(
        counts[m] / n * abs(acc[m] - conf[m]) for m in range(bins) if counts[m]
    )


def slow_mce(probs, labels, bins):
    counts, conf, acc = slow_reliability(probs, labels, bins)
    return max(abs(acc[m] - conf[m]) for m in range(bins) if counts[m])


def slow_auc(scores, labels):
    """Pair-counting AUC: fraction of (positive, negative) pairs ranked
    correctly, ties counting 1/2."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def slow_metric_report(probs, labels, bins=10, hl_groups=10):
    """:func:`calibench.metric_report` on the stable order
    ``argsort(kind="mergesort")``, which defines the Hosmer-Lemeshow groups.

    The binned and pointwise fields come from the public metrics; AUC is
    built from mid-ranks over that order and Hosmer-Lemeshow from its
    groups, with the package's arithmetic, so a report built on the same
    order matches this one bit for bit.
    """
    from calibench import brier, ece, log_loss, mce
    from calibench.errors import SingleClassError
    from calibench.metrics import MetricReport
    from calibench.stats import chi2_cdf

    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    order = np.argsort(p, kind="mergesort")

    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("AUC needs at least one positive and one negative label")
    sorted_p = p[order]
    ranks = np.empty(p.size)
    start = 0
    for end in range(1, p.size + 1):
        if end == p.size or sorted_p[end] != sorted_p[start]:
            ranks[order[start:end]] = 0.5 * (start + end + 1)
            start = end
    auc = (float(ranks[y == 1].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    hl_stat = hl_p = math.nan
    if 3 <= hl_groups <= p.size:
        cells = [
            [float(y[chunk].sum()), float(p[chunk].sum()), len(chunk)]
            for chunk in np.array_split(order, hl_groups)
        ]
        merged, carry = [], None
        for cell in cells:
            if carry is not None:
                cell = [a + b for a, b in zip(cell, carry)]
                carry = None
            if cell[1] < 1e-9 or cell[2] - cell[1] < 1e-9:
                carry = cell
            else:
                merged.append(cell)
        if carry is not None:
            if merged:
                carry = [a + b for a, b in zip(merged.pop(), carry)]
            merged.append(carry)
        if len(merged) >= 3:
            hl_stat = 0.0
            for o1, e1, cnt in merged:
                hl_stat += (o1 - e1) ** 2 / e1 + ((cnt - o1) - (cnt - e1)) ** 2 / (cnt - e1)
            hl_p = 1.0 - chi2_cdf(hl_stat, len(merged) - 2)

    e = ece(p, y, bins)
    return MetricReport(
        ece=e, mce=mce(p, y, bins), brier=brier(p, y), log_loss=log_loss(p, y), auc=auc,
        reliability=1.0 - e, hl_statistic=hl_stat, hl_p_value=hl_p, n=p.size, bin_count=bins,
    )


def masked_sigmoid(z):
    """The logistic function through boolean masks: ``1/(1 + exp(-z))``
    where ``z >= 0`` and ``exp(z)/(1 + exp(z))`` elsewhere (NaN included)."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def full_knot_isotonic_lookup(knots, values, scores):
    """An isotonic map's value at the largest knot <= each score, found
    among all knots; the first value below the first knot, NaN for NaN."""
    s = np.asarray(scores, dtype=np.float64)
    idx = np.clip(np.searchsorted(knots, s, side="right") - 1, 0, knots.size - 1)
    out = np.asarray(values, dtype=np.float64)[idx]
    out[np.isnan(s)] = np.nan
    return out


def per_draw_bootstrap(probs, labels, metric, bins, level, draws, seed):
    """The percentile bootstrap by its definition: per draw, one
    ``rng.integers(0, n, size=n)`` call and one call of the public metric on
    the resample, skipping draws where it is undefined.  Returns
    ``(samples, IntervalEstimate)``."""
    from calibench import metrics
    from calibench.errors import SingleClassError
    from calibench.stats import IntervalEstimate

    evaluators = {
        "ece": lambda p, y: metrics.ece(p, y, bins=bins),
        "mce": lambda p, y: metrics.mce(p, y, bins=bins),
        "brier": metrics.brier,
        "log_loss": metrics.log_loss,
        "auc": metrics.auc,
        "reliability": lambda p, y: 1.0 - metrics.ece(p, y, bins=bins),
    }
    evaluate = evaluators[metric]
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    point = float(evaluate(p, y))
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(draws):
        idx = rng.integers(0, p.size, size=p.size)
        try:
            samples.append(float(evaluate(p[idx], y[idx])))
        except SingleClassError:
            continue
    if not samples:
        raise ValueError(f"metric {metric!r} was undefined on every bootstrap draw")
    tail = 0.5 * (1.0 - level)
    lower, upper = np.quantile(samples, [tail, 1.0 - tail])
    interval = IntervalEstimate(
        mean=point,
        lower=min(float(lower), point),
        upper=max(float(upper), point),
        level=level,
    )
    return np.array(samples), interval


def slow_forest_tree(x, y, max_depth, mtry, rng):
    """One tree of ``fit_forest`` grown node by node, as a list of node dicts
    numbered breadth-first.

    The generator draws the bootstrap first, then, per level, one
    ``random((k, d)).argsort(1)[:, :mtry]`` for the level's k splittable
    nodes in order.  Each node scans every boundary between distinct values
    of its candidates in draw order and keeps the first that beats the best
    gain so far (at least 1e-12); rows at or below the threshold go left.
    """
    n, d = x.shape
    boot = rng.integers(0, n, size=n)
    xb, yb = x[boot], y[boot]
    nodes = []
    level = [np.arange(n)]
    for depth in range(max_depth + 1):
        splittable = [r for r in level if depth < max_depth and 0 < yb[r].sum() < r.size]
        draws = iter(rng.random((len(splittable), d)).argsort(1)[:, :mtry] if splittable else ())
        next_level = []
        for rows in level:
            m = rows.size
            pos = float(yb[rows].sum())
            node = {"feature": -1, "threshold": 0.0, "left": -1, "right": -1,
                    "value": float(yb[rows].mean()), "count": m}
            if depth < max_depth and 0 < pos < m:
                parent_gini = 2.0 * (pos / m) * (1.0 - pos / m)
                best_gain, best = 1e-12, None
                for f in next(draws):
                    values = sorted(set(xb[rows, f].tolist()))
                    for lo, hi in zip(values[:-1], values[1:]):
                        go_left = xb[rows, f] <= lo
                        n_left, pos_left = float(go_left.sum()), float(yb[rows][go_left].sum())
                        n_right, pos_right = m - n_left, pos - pos_left
                        p_left, p_right = pos_left / n_left, pos_right / n_right
                        child = (
                            n_left * 2.0 * p_left * (1.0 - p_left)
                            + n_right * 2.0 * p_right * (1.0 - p_right)
                        ) / m
                        if parent_gini - child > best_gain:
                            best_gain, best = parent_gini - child, (int(f), 0.5 * (lo + hi))
                if best is not None:
                    go_left = xb[rows, best[0]] <= best[1]
                    node.update(feature=best[0], threshold=best[1], value=0.0)
                    node["left"] = len(next_level)  # made absolute below
                    next_level += [rows[go_left], rows[~go_left]]
            nodes.append(node)
        base = len(nodes)
        for node in nodes[base - len(level):]:
            if node["feature"] >= 0:
                node["left"] += base
                node["right"] = node["left"] + 1
        level = next_level
        if not level:
            break
    return nodes


# ---------------------------------------------------------------------------
# row-wise CSV loaders: one csv row at a time, one float() per cell
# ---------------------------------------------------------------------------

def _row_label(cell: str, row: int, path: str):
    try:
        value = float(cell)
    except ValueError:
        raise NonBinaryLabelError(
            f"{path}: row {row}: label {cell!r} is not 0 or 1"
        ) from None
    if value == 0.0:
        return 0
    if value == 1.0:
        return 1
    raise NonBinaryLabelError(f"{path}: row {row}: label {cell!r} is not 0 or 1")


def _row_number(cell: str, row: int, column: str, path: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise NonNumericFeatureError(
            f"{path}: row {row}, column {column!r}: {cell!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise NonNumericFeatureError(
            f"{path}: row {row}, column {column!r}: {cell!r} is not finite"
        )
    return value


def _csv_rows(handle, path: str):
    """``(row number, cells)`` per csv row of ``handle``, the header as row
    0.  A row csv cannot split, or text that is not UTF-8, raises
    NonNumericFeatureError naming the file."""
    reader = csv.reader(handle)
    row_number = 0
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise NonNumericFeatureError(f"{path}: row {row_number}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise NonNumericFeatureError(f"{path}: {exc}") from None
        yield row_number, row
        row_number += 1


def row_load_csv(path: str, label_column: str = "y") -> Dataset:
    """``datasets.load_csv`` as it was before the C parse: the reference for
    every value, error class, message and row number it gives."""
    with open(path, "r", newline="") as handle:
        reader = _csv_rows(handle, path)
        try:
            _, header = next(reader)
        except StopIteration:
            raise EmptyFileError(f"{path}: file is empty") from None
        header = [name.strip() for name in header]
        if label_column not in header:
            raise MissingColumnError(
                f"{path}: label column {label_column!r} not in header {header}"
            )
        label_pos = header.index(label_column)
        feature_names = tuple(name for i, name in enumerate(header) if i != label_pos)
        if not feature_names:
            raise MissingColumnError(f"{path}: no feature columns besides {label_column!r}")
        rows = []
        labels = []
        for row_number, row in reader:
            if len(row) != len(header):
                raise NonNumericFeatureError(
                    f"{path}: row {row_number} has {len(row)} cells, expected {len(header)}"
                )
            labels.append(_row_label(row[label_pos].strip(), row_number, path))
            rows.append(
                [
                    _row_number(cell.strip(), row_number, header[i], path)
                    for i, cell in enumerate(row)
                    if i != label_pos
                ]
            )
    if not rows:
        raise EmptyFileError(f"{path}: no data rows")
    return Dataset(
        np.asarray(rows, dtype=np.float64),
        np.asarray(labels, dtype=np.int64),
        feature_names,
        Provenance.from_file(path),
    )


def row_load_score_csv(path: str) -> ScoreSet:
    """``datasets.load_score_csv`` as it was before the C parse."""
    with open(path, "r", newline="") as handle:
        reader = _csv_rows(handle, path)
        try:
            header = [name.strip() for name in next(reader)[1]]
        except StopIteration:
            raise EmptyFileError(f"{path}: file is empty") from None
        for required in ("score", "y"):
            if required not in header:
                raise MissingColumnError(
                    f"{path}: column {required!r} not in header {header}"
                )
        score_pos = header.index("score")
        label_pos = header.index("y")
        scores = []
        labels = []
        for row_number, row in reader:
            if len(row) != len(header):
                raise NonNumericFeatureError(
                    f"{path}: row {row_number} has {len(row)} cells, expected {len(header)}"
                )
            scores.append(_row_number(row[score_pos].strip(), row_number, "score", path))
            labels.append(_row_label(row[label_pos].strip(), row_number, path))
    if not scores:
        raise EmptyFileError(f"{path}: no data rows")
    return ScoreSet(np.asarray(scores, dtype=np.float64), np.asarray(labels, dtype=np.int64))
