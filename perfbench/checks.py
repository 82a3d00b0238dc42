"""Correctness checks of each unit's outputs.

Every check compares against a computation made apart from calibench
(NumPy and SciPy here) or against a property the method must have, never
against a stored copy of an earlier output.  A failed check raises
:class:`CheckFailed`.
"""

from __future__ import annotations

import math
import re
import statistics
from collections import defaultdict

import numpy as np


class CheckFailed(Exception):
    """A unit's output is wrong."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _close(a, b, rel, abs_=1e-12):
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def _num(value):
    return math.nan if value is None else float(value)


def _sps():
    # imported on first use, so that a run's timed loop and peak memory
    # precede the SciPy import
    from scipy import stats

    return stats


# ---------------------------------------------------------------------------
# failed units
# ---------------------------------------------------------------------------

STALL_MESSAGE = "numerical failure: Platt fit: gradient norm "


def check_failure(code, stderr, may_stall):
    """A unit that exits non-zero must be the unit kept for the Platt
    stall, failing with exit 3 and the stall's message.  Any other
    failure -- a traceback, another error, a pool unit that stalls -- is
    a wrong outcome."""
    last = (stderr.strip().splitlines() or ["(no message)"])[-1]
    require(may_stall, f"a unit that should complete failed: exit {code}: {last}")
    require(code == 3 and last.startswith(STALL_MESSAGE),
            f"the stall unit failed otherwise than by the Platt stall: exit {code}: {last}")


# ---------------------------------------------------------------------------
# results files of `calibench benchmark`
# ---------------------------------------------------------------------------

def check_results(payload, n_rows=None):
    """Structure, per-record invariants, aggregates and paired tests."""
    config = payload["config"]
    methods = list(config["methods"])
    folds, repeats = config["folds"], config["repeats"]
    records = payload["records"]

    keys = [(r["repeat"], r["fold"], r["method_name"]) for r in records]
    expected = {(r, f, m) for r in range(repeats) for f in range(folds) for m in methods}
    require(len(keys) == len(set(keys)), "duplicate (repeat, fold, method) records")
    require(set(keys) == expected, "records do not cover every (repeat, fold, method) once")

    cells = {}
    for rec in records:
        m = rec["metrics"]
        where = f"record {rec['repeat']}/{rec['fold']}/{rec['method_name']}"
        require(0.0 <= m["ece"] <= m["mce"] <= 1.0, f"{where}: not 0 <= ece <= mce <= 1")
        require(m["reliability"] == 1.0 - m["ece"], f"{where}: reliability != 1 - ece")
        cells[(rec["repeat"], rec["fold"], rec["method_name"])] = m

    if n_rows is not None:
        for repeat in range(repeats):
            for method in methods:
                total = sum(cells[(repeat, f, method)]["n"] for f in range(folds))
                require(total == n_rows, f"repeat {repeat} {method}: n sums to {total}, not {n_rows}")

    if "platt" in methods and "uncalibrated" in methods:
        for repeat in range(repeats):
            for fold in range(folds):
                require(
                    cells[(repeat, fold, "platt")]["auc"] == cells[(repeat, fold, "uncalibrated")]["auc"],
                    f"cell {repeat}/{fold}: platt auc differs from uncalibrated auc",
                )

    _check_aggregates(payload["aggregates"], records)
    _check_comparisons(payload, cells, methods, folds, repeats)


def _check_aggregates(rows, records):
    groups = defaultdict(list)
    for rec in records:
        groups[(rec["model_name"], rec["method_name"])].append(rec["metrics"])
    seen = set()
    for row in rows:
        key = (row["model_name"], row["method_name"])
        where = f"aggregate {key[1]} {row['metric']}"
        require(key in groups, f"{where}: no records")
        seen.add((key, row["metric"]))
        values = [_num(m[row["metric"]]) for m in groups[key]]
        values = [v for v in values if math.isfinite(v)]
        require(row["runs"] == len(values), f"{where}: runs {row['runs']} != {len(values)}")
        if not values:
            continue
        mean = math.fsum(values) / len(values)
        require(_close(_num(row["mean"]), mean, 1e-10), f"{where}: mean {row['mean']!r} != {mean!r}")
        if len(values) < 2:
            continue
        sd = statistics.stdev(values)
        require(_close(_num(row["sd"]), sd, 1e-9), f"{where}: sd {row['sd']!r} != {sd!r}")
        half = float(_sps().t.ppf(0.975, len(values) - 1)) * sd / math.sqrt(len(values))
        require(
            _close(_num(row["ci_lower"]), mean - half, 1e-9)
            and _close(_num(row["ci_upper"]), mean + half, 1e-9),
            f"{where}: ci [{row['ci_lower']!r}, {row['ci_upper']!r}] != t-based "
            f"[{mean - half!r}, {mean + half!r}]",
        )
    for key in groups:
        for metric in ("ece", "brier", "auc"):
            require((key, metric) in seen, f"no aggregate for {key[1]} {metric}")


def _check_comparisons(payload, cells, methods, folds, repeats):
    metrics = payload["comparison_metrics"]
    pairs = [(a, b) for i, a in enumerate(methods) for b in methods[i + 1:]]
    rows = payload["comparisons"]
    require(
        [(r["metric"], r["name_a"], r["name_b"]) for r in rows]
        == [(m, a, b) for m in metrics for a, b in pairs],
        "comparisons do not cover every method pair on every comparison metric",
    )
    if len(methods) == 3:
        require(metrics == ["ece", "brier"], f"comparison metrics {metrics}")
        require(payload["bonferroni_threshold"] == 0.05 / 6, "bonferroni threshold != 0.05/6")
    threshold = payload["bonferroni_threshold"]
    order = [(r, f) for r in range(repeats) for f in range(folds)]
    for row in rows:
        where = f"comparison {row['metric']} {row['name_a']}-{row['name_b']}"
        a = np.array([cells[(r, f, row["name_a"])][row["metric"]] for r, f in order])
        b = np.array([cells[(r, f, row["name_b"])][row["metric"]] for r, f in order])
        require(row["df"] == a.size - 1, f"{where}: df {row['df']}")
        require(_close(row["mean_diff"], math.fsum(a - b) / a.size, 1e-9), f"{where}: mean_diff")
        if row["degenerate"]:
            require(np.all(a - b == (a - b)[0]), f"{where}: flagged degenerate")
            continue
        expected = _sps().ttest_rel(a, b)
        require(
            _close(_num(row["t_statistic"]), float(expected.statistic), 1e-8),
            f"{where}: t {row['t_statistic']!r} != {float(expected.statistic)!r}",
        )
        require(
            _close(_num(row["p_value"]), float(expected.pvalue), 1e-6, 1e-12),
            f"{where}: p {row['p_value']!r} != {float(expected.pvalue)!r}",
        )
        require(
            row["significant_at_corrected_alpha"] == (row["p_value"] < threshold),
            f"{where}: significance flag disagrees with p < {threshold}",
        )


def mean_ece(payload, method):
    for row in payload["aggregates"]:
        if row["method_name"] == method and row["metric"] == "ece":
            return row["mean"]
    raise CheckFailed(f"no ece aggregate for {method}")


def check_logreg_directions(payload):
    """isotonic < Platt < uncalibrated, inside the reference benchmark's bands."""
    u, p, i = (mean_ece(payload, m) for m in ("uncalibrated", "platt", "isotonic"))
    require(i < p < u, f"ece order broken: isotonic {i}, platt {p}, uncalibrated {u}")
    require(0.11 <= u <= 0.18, f"uncalibrated ece {u} outside [0.11, 0.18]")
    require(0.02 <= p <= 0.08, f"platt ece {p} outside [0.02, 0.08]")
    require(0.0 <= i <= 0.03, f"isotonic ece {i} outside [0, 0.03]")


def check_forest_directions(payload):
    u, i = mean_ece(payload, "uncalibrated"), mean_ece(payload, "isotonic")
    require(u > 0.10, f"forest uncalibrated ece {u} not > 0.10")
    require(i < 0.06, f"forest isotonic ece {i} not < 0.06")


# ---------------------------------------------------------------------------
# external scores
# ---------------------------------------------------------------------------

def reference_metrics(scores, labels, bins=10):
    """ECE, Brier and AUC of raw scores, computed without calibench."""
    p = np.clip(scores, 0.0, 1.0)
    y = labels.astype(np.float64)
    edges = np.arange(bins + 1) / bins
    which = np.digitize(p, edges[1:-1], right=False)
    ece = 0.0
    for b in range(bins):
        inside = which == b
        if inside.any():
            ece += inside.sum() * abs(y[inside].mean() - p[inside].mean())
    ece /= p.size
    brier = float(np.mean((p - y) ** 2))
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    ranks = _sps().rankdata(p)
    auc = (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return {"ece": float(ece), "brier": brier, "auc": float(auc)}


def check_external(payload, references):
    """``references[(repeat, fold)]`` holds reference_metrics of that cell's test file."""
    cells = {(r["repeat"], r["fold"], r["method_name"]): r["metrics"] for r in payload["records"]}
    for (repeat, fold), ref in references.items():
        raw = cells[(repeat, fold, "uncalibrated")]
        for name, value in ref.items():
            require(
                abs(raw[name] - value) <= 1e-9,
                f"cell {repeat}/{fold}: uncalibrated {name} {raw[name]!r} != {value!r}",
            )
        for method in ("platt", "isotonic"):
            require(
                cells[(repeat, fold, method)]["ece"] < raw["ece"],
                f"cell {repeat}/{fold}: {method} ece not below uncalibrated",
            )


# ---------------------------------------------------------------------------
# the selection pipeline
# ---------------------------------------------------------------------------

_LINE = {
    "selection": re.compile(r"^selection: (.*)$", re.M),
    "method": re.compile(r"^chosen method: (\w+)$", re.M),
    "ece": re.compile(r"^test ece: (\S+)$", re.M),
    "ci": re.compile(r"^test ece 95% bootstrap ci: \[(\S+), (\S+)\]$", re.M),
}
_CAL_SIZE = re.compile(r"^platt: cal size (\d+) < 500$")
_SHAPIRO = re.compile(r"^isotonic: shapiro-wilk p=(\S+) < 0\.05$")
_CV = re.compile(r"^cv: mean ece platt=(\S+) isotonic=(\S+) -> (\w+)$")


def _field(stdout, name):
    match = _LINE[name].search(stdout)
    require(match is not None, f"pipeline output lacks its {name} line")
    return match.groups() if name == "ci" else match.group(1)


def _half_up(count, ratio):
    return min(max(math.floor(count * ratio + 0.5), 1), count - 1)


def expected_cal_size(labels):
    """Calibration-split size of the documented 60/20/20 partition: per
    class, round-half-up 60 % to train, then half of the rest to cal."""
    size = 0
    for count in np.bincount(labels, minlength=2):
        rest = count - _half_up(count, 0.6)
        size += _half_up(rest, 0.5)
    return int(size)


def check_isotonic_map(body):
    knots = np.asarray(body["knots"], dtype=np.float64)
    values = np.asarray(body["values"], dtype=np.float64)
    require(knots.size == values.size and knots.size > 0, "isotonic map: knots/values sizes")
    require(bool(np.all(np.diff(knots) > 0)), "isotonic map: knots not strictly increasing")
    require(bool(np.all(np.diff(values) >= 0)), "isotonic map: values decrease")
    require(bool(np.all((values >= 0) & (values <= 1))), "isotonic map: values outside [0, 1]")


def check_pipeline(stdout, map_payload, branches):
    """``branches``: the selection rules this dataset may fire.  Returns
    the selection trace."""
    trace = _field(stdout, "selection")
    method = _field(stdout, "method")
    require(list(map_payload) == [method], f"map kind {list(map_payload)} != chosen {method}")
    if trace.startswith("platt: cal size"):
        branch = "cal_size"
        match = _CAL_SIZE.match(trace)
        require(match is not None and int(match.group(1)) < 500, f"trace {trace!r}")
        require(method == "platt", f"cal-size rule chose {method}")
    elif trace.startswith("isotonic: shapiro-wilk"):
        branch = "shapiro_wilk"
        match = _SHAPIRO.match(trace)
        require(match is not None and float(match.group(1)) < 0.05, f"trace {trace!r}")
        require(method == "isotonic", f"shapiro-wilk rule chose {method}")
    else:
        branch = "cv"
        match = _CV.match(trace)
        require(match is not None, f"trace {trace!r}")
        platt, iso, named = float(match.group(1)), float(match.group(2)), match.group(3)
        # the trace rounds to 4 digits; the rule compares full values, ties go to platt
        allowed = {"platt"} if platt < iso else {"isotonic"} if iso < platt else {"platt", "isotonic"}
        require(named in allowed, f"cv trace names {named}, lower ece is {sorted(allowed)}")
        require(method == named, f"cv trace names {named}, chose {method}")
    require(branch in branches, f"selection rule {branch} fired, expected one of {branches}")
    if method == "isotonic":
        check_isotonic_map(map_payload["isotonic"])
    else:
        body = map_payload["platt"]
        require(math.isfinite(body["A"]) and math.isfinite(body["B"]), "platt map not finite")
    ece = float(_field(stdout, "ece"))
    lower, upper = (float(v) for v in _field(stdout, "ci"))
    require(lower <= ece <= upper, f"bootstrap ci [{lower}, {upper}] misses test ece {ece}")
    return trace
