"""Acceptance suite: ten end-to-end criteria covering solver exactness,
statistical correctness, benchmark reproduction, scaling, and the selection
pipeline.  Each test prints one ``[criterion NN] name: PASS|FAIL`` line
(run with ``pytest tests/test_acceptance.py -v -s`` for the scorecard)
before asserting, so a failing criterion still reports its verdict."""

import hashlib
import time

import numpy as np
import pytest

from oracles import brute_force_isotonic

from calibench.calibrators import (
    PlattMap,
    ScoreSet,
    _pav_block_starts,
    apply_map,
    fit_isotonic,
    fit_platt,
)
from calibench.datasets import Dataset, Provenance, SyntheticConfig, generate_synthetic
from calibench.harness import (
    ExperimentConfig,
    ForestSpec,
    LogregSpec,
    run_convergence_study,
    run_enhanced_calibration,
    run_repeated_cv,
    save_results,
)
from calibench.metrics import auc, metric_report
from calibench.stats import bonferroni, paired_t_test, shapiro_wilk


def _verdict(number: int, name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[criterion {number:02d}] {name}: {status}", flush=True)
    assert not failures, "; ".join(failures)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


# ---------------------------------------------------------------------------
# 1. isotonic fit vs exhaustive oracle
# ---------------------------------------------------------------------------

def test_criterion_01_isotonic_matches_exhaustive_oracle():
    failures = []
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for case in range(1000):
        n = int(rng.integers(1, 13))
        scores = rng.random(n)
        labels = (rng.random(n) < 0.5).astype(np.int64)
        iso = fit_isotonic(ScoreSet(scores, labels))
        distinct, expected = brute_force_isotonic(scores, labels)
        got = apply_map(iso, distinct)
        gap = float(np.max(np.abs(np.atleast_1d(got) - expected)))
        if gap > worst:
            worst = gap
    elapsed = time.perf_counter() - start
    if worst > 1e-9:
        failures.append(f"worst oracle gap {worst:.3e} exceeds 1e-9")
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, limit 30s")
    _verdict(1, "isotonic-oracle-equivalence", failures)


# ---------------------------------------------------------------------------
# 2. isotonic solution structure
# ---------------------------------------------------------------------------

def test_criterion_02_isotonic_solution_structure():
    failures = []
    rng = np.random.default_rng(202)
    for case in range(10_000):
        n = int(rng.integers(1, 61))
        # boundary-heavy score grid so ties are common
        scores = rng.integers(0, 21, size=n) / 20.0
        labels = (rng.random(n) < 0.5).astype(np.int64)
        iso = fit_isotonic(ScoreSet(scores, labels))

        order = np.argsort(scores, kind="mergesort")
        fitted = np.atleast_1d(apply_map(iso, scores[order]))
        y_sorted = labels[order].astype(np.float64)

        if (np.diff(fitted) < 0).any():
            failures.append(f"case {case}: fitted values decrease")
            break
        if np.unique(fitted).size > n:
            failures.append(f"case {case}: more distinct values than samples")
            break
        # each maximal run of one fitted value averages exactly its labels
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.not_equal(fitted[1:], fitted[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        sums = np.add.reduceat(y_sorted, starts)
        counts = np.diff(np.append(starts, n)).astype(np.float64)
        if not np.array_equal(sums / counts, fitted[starts]):
            failures.append(f"case {case}: block value is not the exact label mean")
            break
    _verdict(2, "isotonic-solution-structure", failures)


# ---------------------------------------------------------------------------
# 3. sigmoid-fit parameter recovery
# ---------------------------------------------------------------------------

def test_criterion_03_sigmoid_fit_recovers_parameters():
    failures = []
    start = time.perf_counter()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        s = rng.uniform(-4.0, 4.0, 10_000)
        y = (rng.random(10_000) < _sigmoid(2.0 * s + 1.0)).astype(np.int64)
        fit = fit_platt(ScoreSet(s, y))
        if not (1.8 <= fit.A <= 2.2):
            failures.append(f"seed {seed}: A={fit.A:.4f} outside [1.8, 2.2]")
        if not (0.8 <= fit.B <= 1.2):
            failures.append(f"seed {seed}: B={fit.B:.4f} outside [0.8, 1.2]")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, limit 10s")
    _verdict(3, "sigmoid-parameter-recovery", failures)


# ---------------------------------------------------------------------------
# 4. isotonic convergence rate
# ---------------------------------------------------------------------------

def test_criterion_04_isotonic_convergence_rate():
    failures = []
    start = time.perf_counter()
    study = run_convergence_study(
        g_star=lambda s: np.asarray(s, dtype=np.float64),
        sizes=(100, 1_000, 10_000, 100_000),
        trials=20,
        seed=0,
    )
    elapsed = time.perf_counter() - start
    if not (-0.45 <= study.slope <= -0.22):
        failures.append(f"log-log slope {study.slope:.4f} outside [-0.45, -0.22]")
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s, limit 60s")
    _verdict(4, "isotonic-convergence-rate", failures)


# ---------------------------------------------------------------------------
# 5 & 6. benchmark reproduction on the synthetic dataset
# ---------------------------------------------------------------------------

def _benchmark_table(model, feature_mode):
    config = ExperimentConfig(
        source=SyntheticConfig(n=1000, d=10, seed=42),
        model=model,
        methods=("uncalibrated", "platt", "isotonic"),
        feature_mode=feature_mode,
        folds=5,
        repeats=10,
        bins=10,
        base_seed=42,
    )
    return run_repeated_cv(config)


def _mean_ece(table, method):
    for row in table.aggregates:
        if row.method_name == method and row.metric == "ece":
            return row.mean
    raise AssertionError(f"no ece aggregate for {method!r}")


def test_criterion_05_logreg_benchmark_reproduction():
    failures = []
    start = time.perf_counter()
    table = _benchmark_table(LogregSpec(C=1.0), "informative")
    elapsed = time.perf_counter() - start
    uncal = _mean_ece(table, "uncalibrated")
    platt = _mean_ece(table, "platt")
    iso = _mean_ece(table, "isotonic")
    if not (0.11 <= uncal <= 0.18):
        failures.append(f"uncalibrated ece {uncal:.4f} outside [0.11, 0.18]")
    if not (0.02 <= platt <= 0.08):
        failures.append(f"platt ece {platt:.4f} outside [0.02, 0.08]")
    if not (0.00 <= iso <= 0.03):
        failures.append(f"isotonic ece {iso:.4f} outside [0.00, 0.03]")
    if not (iso < platt < uncal):
        failures.append(
            f"expected isotonic < platt < uncalibrated, got "
            f"{iso:.4f}, {platt:.4f}, {uncal:.4f}"
        )
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.1f}s, limit 300s")
    _verdict(5, "logreg-benchmark-reproduction", failures)


@pytest.fixture(scope="module")
def forest_benchmark():
    """The README forest benchmark, run once for criterion 06 and the pin:
    its result table and the seconds the run took."""
    start = time.perf_counter()
    table = _benchmark_table(ForestSpec(trees=100, depth=10), "full")
    return table, time.perf_counter() - start


def test_criterion_06_forest_benchmark_direction(forest_benchmark):
    failures = []
    table, elapsed = forest_benchmark
    uncal = _mean_ece(table, "uncalibrated")
    iso = _mean_ece(table, "isotonic")
    if not uncal > 0.10:
        failures.append(f"uncalibrated ece {uncal:.4f} not > 0.10")
    if not iso < 0.06:
        failures.append(f"isotonic ece {iso:.4f} not < 0.06")
    rows = [
        c.result
        for c in table.comparisons
        if c.metric == "ece"
        and {c.result.name_a, c.result.name_b} == {"uncalibrated", "isotonic"}
    ]
    if len(rows) != 1:
        failures.append("missing uncalibrated-vs-isotonic ece comparison")
    elif not rows[0].significant_at_corrected_alpha:
        failures.append(
            f"comparison not significant: p={rows[0].p_value:.3e} vs "
            f"threshold {table.bonferroni_threshold:.6f}"
        )
    if elapsed >= 600.0:
        failures.append(f"took {elapsed:.1f}s, limit 600s")
    _verdict(6, "forest-benchmark-direction", failures)


def test_readme_forest_benchmark_results_are_pinned(forest_benchmark, tmp_path):
    # the twin of the README logreg pin: the sha256 of the forest results
    # file is the byte-identity gate for changes to the grower
    out = tmp_path / "results.json"
    save_results(forest_benchmark[0], str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "0e9bd265725f5c70a6927f44ca2a27816136a847f01435b2e35df9dbcba34360"
    )


# ---------------------------------------------------------------------------
# 7. statistical machinery
# ---------------------------------------------------------------------------

def test_criterion_07_statistical_machinery():
    failures = []

    # paired t-test vs the closed-form df=2 two-sided p-value 1 - |t|/sqrt(2+t^2)
    for diffs in ([1.0, 2.0, 3.0], [1.0, -1.0, 3.0], [-0.5, -2.0, -6.5]):
        a = np.asarray(diffs)
        b = np.zeros(3)
        result = paired_t_test(a, b)
        t = abs(result.t_statistic)
        closed_form = 1.0 - t / np.sqrt(2.0 + t * t)
        if result.df != 2:
            failures.append(f"diffs {diffs}: df {result.df} != 2")
        if abs(result.p_value - closed_form) > 1e-6:
            failures.append(
                f"diffs {diffs}: p={result.p_value:.8f} vs closed form "
                f"{closed_form:.8f}"
            )

    # corrected thresholds for 15- and 30-comparison families
    threshold_15, _ = bonferroni(np.full(15, 0.5), 0.05)
    threshold_30, _ = bonferroni(np.full(30, 0.5), 0.05)
    if threshold_15 != 0.05 / 15:
        failures.append(f"15-family threshold {threshold_15!r} != 0.05/15")
    if threshold_30 != 0.05 / 30:
        failures.append(f"30-family threshold {threshold_30!r} != 0.05/30")

    # normality-test Type-I error at nominal 0.05
    rng = np.random.default_rng(7)
    rejections = sum(
        shapiro_wilk(rng.normal(size=50)).p_value < 0.05 for _ in range(1000)
    )
    rate = rejections / 1000.0
    if not (0.03 <= rate <= 0.07):
        failures.append(f"normality Type-I rate {rate:.3f} outside [0.03, 0.07]")

    _verdict(7, "statistical-machinery", failures)


# ---------------------------------------------------------------------------
# 8. metric invariants
# ---------------------------------------------------------------------------

def test_criterion_08_metric_invariants():
    failures = []
    rng = np.random.default_rng(808)
    for case in range(10_000):
        n = int(rng.integers(2, 41))
        probs = rng.random(n)
        labels = (rng.random(n) < probs).astype(np.int64)
        labels[0] = 0
        labels[1] = 1
        report = metric_report(probs, labels, bins=10)

        if not (0.0 <= report.ece <= 1.0):
            failures.append(f"case {case}: ece {report.ece} outside [0, 1]")
            break
        if report.mce < report.ece:
            failures.append(f"case {case}: mce {report.mce} < ece {report.ece}")
            break
        if abs(report.reliability - (1.0 - report.ece)) > 1e-12:
            failures.append(f"case {case}: reliability != 1 - ece")
            break

        # AUC is rank-based: any strictly increasing transform preserves it
        uniq = np.unique(probs)
        new_values = np.cumsum(rng.random(uniq.size) + 1e-3)
        transformed = new_values[np.searchsorted(uniq, probs)]
        if auc(transformed, labels) != report.auc:
            failures.append(f"case {case}: auc changed under increasing transform")
            break

        # an increasing sigmoid map preserves it too
        sigmoid_map = PlattMap(
            A=0.1 + 4.9 * rng.random(), B=-3.0 + 6.0 * rng.random()
        )
        if auc(apply_map(sigmoid_map, probs), labels) != report.auc:
            failures.append(f"case {case}: auc changed under sigmoid map")
            break
    _verdict(8, "metric-invariants", failures)


# ---------------------------------------------------------------------------
# 9. isotonic solver scaling
# ---------------------------------------------------------------------------

def _pav_core_seconds(sizes, rng) -> list:
    """Best of 5 times of the PAV core at each of ``sizes``, the sizes timed
    in turn within each repetition so that a change in machine speed during
    the measurement hits all of them alike."""
    inputs = [(rng.random(n), np.ones(n)) for n in sizes]
    best = [float("inf")] * len(sizes)
    for _ in range(5):
        for k, (values, weights) in enumerate(inputs):
            started = time.perf_counter()
            _pav_block_starts(values, weights)
            best[k] = min(best[k], time.perf_counter() - started)
    return best


def test_criterion_09_isotonic_solver_scaling():
    failures = []
    rng = np.random.default_rng(909)
    _pav_core_seconds([2_000_000], rng)  # warm-up: page in allocations
    for n in (100_000, 500_000, 1_000_000):
        t_n, t_2n = _pav_core_seconds([n, 2 * n], rng)
        ratio = t_2n / t_n
        if ratio > 2.5:
            failures.append(
                f"n={n}: doubling cost ratio {ratio:.2f} > 2.5 "
                f"({t_n * 1e3:.2f}ms -> {t_2n * 1e3:.2f}ms)"
            )
    scores = rng.random(2_000_000)
    labels = (rng.random(2_000_000) < scores).astype(np.int64)
    data = ScoreSet(scores, labels)
    started = time.perf_counter()
    fit_isotonic(data)
    full_fit = time.perf_counter() - started
    if full_fit >= 2.0:
        failures.append(f"full 2e6-point fit took {full_fit:.2f}s, limit 2s")
    _verdict(9, "isotonic-solver-scaling", failures)


# ---------------------------------------------------------------------------
# 10. selection-pipeline branching
# ---------------------------------------------------------------------------

def _gaussian_feature_dataset(n, coefficient, seed):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 3))
    logits = coefficient * features[:, 0]
    labels = (rng.random(n) < _sigmoid(logits)).astype(np.int64)
    return Dataset(
        features=features,
        labels=labels,
        feature_names=("f1", "f2", "f3"),
        provenance=Provenance.from_seed(seed),
    )


def test_criterion_10_selection_pipeline_branching():
    failures = []

    # (a) 1000 samples -> 200-sample calibration split -> small-sample rule
    small = run_enhanced_calibration(
        generate_synthetic(SyntheticConfig(n=1000, d=10, seed=42)),
        LogregSpec(C=1.0),
        seed=0,
    )
    if small.branch != "cal_size" or small.method_name != "platt":
        failures.append(
            f"small-calibration case fired {small.branch!r}/{small.method_name!r}"
        )
    if small.selection_trace != "platt: cal size 200 < 500":
        failures.append(f"small-calibration trace {small.selection_trace!r}")

    # (b) steep sigmoid -> bimodal model scores -> normality-test rule
    bimodal = run_enhanced_calibration(
        _gaussian_feature_dataset(5000, coefficient=4.0, seed=0),
        LogregSpec(C=1.0),
        seed=0,
    )
    if bimodal.branch != "shapiro_wilk" or bimodal.method_name != "isotonic":
        failures.append(
            f"bimodal case fired {bimodal.branch!r}/{bimodal.method_name!r}"
        )
    if not bimodal.selection_trace.startswith("isotonic: shapiro-wilk p="):
        failures.append(f"bimodal trace {bimodal.selection_trace!r}")

    # (c) weak signal -> near-normal scores -> cross-validation rule
    nearly_normal = run_enhanced_calibration(
        _gaussian_feature_dataset(5000, coefficient=0.2, seed=0),
        LogregSpec(C=1.0),
        seed=0,
    )
    if nearly_normal.branch != "cv":
        failures.append(f"near-normal case fired {nearly_normal.branch!r}")
    if not nearly_normal.selection_trace.startswith("cv: mean ece platt="):
        failures.append(f"near-normal trace {nearly_normal.selection_trace!r}")
    if not nearly_normal.selection_trace.endswith(
        f"-> {nearly_normal.method_name}"
    ):
        failures.append("near-normal trace does not name the chosen method")

    branches = {small.branch, bimodal.branch, nearly_normal.branch}
    if branches != {"cal_size", "shapiro_wilk", "cv"}:
        failures.append(f"branches covered: {sorted(branches)}")
    _verdict(10, "selection-pipeline-branching", failures)
