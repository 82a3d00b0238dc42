"""Experiment orchestration: the calibration-selection pipeline, the
repeated stratified-CV benchmark, method comparison with paired statistics,
the isotonic convergence-rate study, and results persistence.

The selection pipeline partitions a dataset 60/20/20 (train/cal/test),
trains the base model on train, scores the calibration split, and picks the
calibration method by three mutually exclusive rules evaluated in order:
fewer than 500 calibration samples -> Platt; Shapiro-Wilk non-normality of
the calibration scores (p < 0.05) -> isotonic; otherwise 5-fold CV on the
calibration split choosing the lower mean ECE (ties go to Platt).  The
fired rule is recorded verbatim in the artifact's selection trace.

The benchmark protocol runs stratified k-fold CV repeated r times.  Within
each fold the training portion is split 75/25 (stratified) into a model-fit
part and a calibration part, every requested method's map is fit on the
calibration part only, and all methods are evaluated on the fold's test
portion — calibration data is disjoint from both model training and
evaluation by construction (checked at runtime in debug mode).  Each run's
seed derives from (base_seed, repeat, fold) through a splitmix64 chain, so
results are independent of execution order.

That independence lets a forest benchmark fit its cells on every usable
CPU.  When the model is a forest, the process may run on at least two
CPUs (``os.sched_getaffinity``) and the platform offers the ``fork`` start
method, each cell's model fit and scoring runs in a pool of
``min(CPUs, cells)`` forked workers (a run has at least two cells, since
``folds >= 2``), and the results come back in cell order.  Calibration, metrics, aggregation and
statistics stay in the calling process, which calibrates one cell while
the workers fit the next; the results file is byte-identical to a serial
run's.  Any other run fits its cells in the calling process.  There is no
setting for this: ``taskset -c 0 calibench benchmark ...`` pins a run to
one CPU and so to the serial path.  Forest fits take ~95 % of a forest
run.  Each task carries its run (the config, dataset and cell, ~97 kB
pickled for the README forest run, which adds ~1 MB to its peak RSS), so
runs in threads share no state; ``multiprocessing`` is imported only
when a pool is made, so no other run pays for the import.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .calibrators import METHODS, ScoreSet, apply_map, fit_calibrated_pipeline
from .datasets import (
    Dataset,
    SyntheticConfig,
    deal_folds,
    generate_synthetic,
    load_csv,
    load_score_csv,
    make_fold_plan,
    select_features,
    stratified_split,
    subset,
)
from .errors import (
    IncompleteRecordsError,
    InvalidSpecError,
    SchemaVersionMismatchError,
    TooFewSamplesError,
)
from .metrics import (
    MetricReport, _check_two_classes, _metric_reports, _resampled, auc, brier, ece, log_loss, mce,
    metric_report,
)
from .models import fit_forest, fit_logistic, score_dataset
from .stats import (
    IntervalEstimate,
    PairedComparison,
    bonferroni,
    mean_ci,
    paired_t_test,
    shapiro_wilk,
)
from ._util import (
    check_counts, check_int, check_real, check_type, from_json, mix_seed, to_json,
    write_json,
)

__all__ = [
    "SCHEMA_VERSION",
    "AGGREGATE_METRICS",
    "DEFAULT_COMPARISON_METRICS",
    "CsvSource",
    "ScoreFilePair",
    "ScoreFileSource",
    "LogregSpec",
    "ForestSpec",
    "ExternalSpec",
    "ExperimentConfig",
    "RunRecord",
    "AggregateRow",
    "ComparisonRow",
    "ResultTable",
    "PipelineArtifact",
    "ConvergenceStudy",
    "run_enhanced_calibration",
    "run_repeated_cv",
    "compare_methods",
    "aggregate_records",
    "run_convergence_study",
    "bootstrap_metric_ci",
    "save_results",
    "load_results",
    "config_to_json",
    "config_from_json",
    "table_to_json",
    "table_from_json",
]

SCHEMA_VERSION = "1"

# MetricReport's float fields, in order: what aggregates and comparisons range over
AGGREGATE_METRICS = tuple(f.name for f in dataclasses.fields(MetricReport) if f.type == "float")

# metrics whose pairwise comparisons a benchmark run emits by default
DEFAULT_COMPARISON_METRICS = ("ece", "brier")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CsvSource:
    """Benchmark data read from a labeled CSV file."""

    json_kind = "csv"
    path: str
    label_column: str = "y"


@dataclass(frozen=True, init=False)
class ScoreFilePair:
    """Pre-computed score files for one (repeat, fold) cell: an optional
    calibration file and a test file, each with columns ``score,y``.

    The fields are declared ``cal`` first, the order of their JSON keys;
    the constructor takes ``(test, cal=None)``.
    """

    cal: str | None = None
    test: str

    def __init__(self, test: str, cal: str | None = None):
        object.__setattr__(self, "test", test)
        object.__setattr__(self, "cal", cal)


@dataclass(frozen=True)
class ScoreFileSource:
    """Externally produced scores, one :class:`ScoreFilePair` per
    (repeat, fold) cell in repeat-major order (len == folds * repeats)."""

    json_kind = "scores"
    entries: tuple[ScoreFilePair, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        for entry in self.entries:
            check_type(entry, ScoreFilePair, "entries")


@dataclass(frozen=True)
class LogregSpec:
    """Use the in-repo logistic regression as the base model."""

    json_kind = model_name = "logreg"
    C: float = 1.0

    def __post_init__(self):
        check_real(self.C, "C", 0.0)


@dataclass(frozen=True)
class ForestSpec:
    """Use the in-repo bagged tree forest as the base model."""

    json_kind = model_name = "forest"
    trees: int = field(default=100, metadata={"min": 1})
    depth: int = field(default=10, metadata={"min": 1})

    def __post_init__(self):
        check_counts(self)


@dataclass(frozen=True)
class ExternalSpec:
    """Scores come from files; no model is trained."""

    json_kind = model_name = "external"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a benchmark run depends on.

    ``feature_mode`` is ``"full"``, ``"informative"`` (the first two
    columns), or an explicit tuple of distinct column indices, at least one,
    kept as plain ints (NumPy integers are taken, bools are not); an index
    beyond the data's columns shows only once the data is built.
    """

    source: SyntheticConfig | CsvSource | ScoreFileSource
    model: LogregSpec | ForestSpec | ExternalSpec
    methods: tuple[str, ...] = METHODS
    feature_mode: str | tuple[int, ...] = "full"
    folds: int = field(default=5, metadata={"min": 2})
    repeats: int = field(default=10, metadata={"min": 1})
    bins: int = field(default=10, metadata={"min": 1})
    base_seed: int = field(default=0, metadata={"min": 0})
    family_alpha: float = 0.05

    def __post_init__(self):
        check_type(self.source, (SyntheticConfig, CsvSource, ScoreFileSource), "source")
        check_type(self.model, (LogregSpec, ForestSpec, ExternalSpec), "model")
        methods = tuple(str(m).lower() for m in self.methods)
        if not methods:
            raise ValueError("methods must be non-empty")
        for m in methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; valid: {', '.join(METHODS)}")
        if len(set(methods)) != len(methods):
            raise ValueError("methods must be unique")
        object.__setattr__(self, "methods", methods)
        if isinstance(self.feature_mode, str):
            if self.feature_mode not in ("full", "informative"):
                raise ValueError(
                    f"feature_mode must be 'full', 'informative', or index tuple, "
                    f"got {self.feature_mode!r}"
                )
        else:
            indices = tuple(self.feature_mode)
            valid = all(
                isinstance(i, (int, np.integer)) and not isinstance(i, bool) and i >= 0
                for i in indices
            )
            if not indices or not valid or len(set(indices)) != len(indices):
                raise ValueError(
                    f"feature_mode indices must be distinct integers >= 0, at least one, "
                    f"got {self.feature_mode!r}"
                )
            object.__setattr__(self, "feature_mode", tuple(map(int, indices)))
        check_counts(self)
        check_real(self.family_alpha, "family_alpha", 0.0, 1.0)
        external_model = isinstance(self.model, ExternalSpec)
        external_source = isinstance(self.source, ScoreFileSource)
        if external_model != external_source:
            raise ValueError("an external model requires a score-file source and vice versa")
        if external_source:
            expected = self.folds * self.repeats
            if len(self.source.entries) != expected:
                raise ValueError(
                    f"score-file source needs folds*repeats = {expected} entries, "
                    f"got {len(self.source.entries)}"
                )
            needs_cal = any(m != "uncalibrated" for m in methods)
            if needs_cal and any(e.cal is None for e in self.source.entries):
                raise ValueError("calibrated methods require a 'cal' score file in every entry")


# ---------------------------------------------------------------------------
# result rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunRecord:
    """Metrics of one (repeat, fold, model, method) evaluation."""

    repeat: int
    fold: int
    model_name: str
    method_name: str
    metrics: MetricReport


@dataclass(frozen=True)
class AggregateRow:
    """Mean / sd / 95% CI of one metric for one (model, method) cell,
    over the runs where the metric was finite."""

    model_name: str
    method_name: str
    metric: str
    mean: float
    sd: float
    ci_lower: float
    ci_upper: float
    runs: int


@dataclass(frozen=True)
class ComparisonRow:
    """One paired method comparison on one metric; JSON holds it as one
    object, ``metric`` then the fields of ``result``."""

    metric: str
    result: PairedComparison = field(metadata={"json": "inline"})


@dataclass(frozen=True)
class ResultTable:
    """A benchmark's complete output: records, aggregates, comparisons."""

    config: ExperimentConfig
    records: tuple[RunRecord, ...]
    aggregates: tuple[AggregateRow, ...]
    comparisons: tuple[ComparisonRow, ...]
    comparison_metrics: tuple[str, ...]
    bonferroni_threshold: float | None


@dataclass(frozen=True)
class PipelineArtifact:
    """Outcome of the end-to-end calibration-selection pipeline.

    ``holdout`` pairs the calibrated test-split probabilities with their
    labels (what ``report`` was computed from), so callers can derive
    further statistics — e.g. a bootstrap CI — without re-running.
    """

    model: object
    method_name: str
    calibration_map: object
    report: MetricReport
    selection_trace: str
    branch: str
    holdout: ScoreSet


@dataclass(frozen=True)
class ConvergenceStudy:
    """Isotonic error vs sample size and the fitted log-log slope."""

    sizes: tuple
    mean_errors: np.ndarray
    trial_errors: np.ndarray
    slope: float
    intercept: float


# ---------------------------------------------------------------------------
# the calibration-selection pipeline
# ---------------------------------------------------------------------------

_SMALL_CAL_LIMIT = 500
_NORMALITY_ALPHA = 0.05
_SELECTION_FOLDS = 5


def _fit_base_model(model_spec, data: Dataset, seed: int):
    if isinstance(model_spec, LogregSpec):
        return fit_logistic(data, C=model_spec.C)
    if isinstance(model_spec, ForestSpec):
        return fit_forest(data, model_spec.trees, model_spec.depth, seed=seed)
    raise ValueError(f"cannot train a base model from {type(model_spec).__name__}")


def _cv_mean_ece(cal_scores: ScoreSet, method: str, fold_of: np.ndarray, folds: int, bins: int) -> float:
    per_fold = []
    for fold in range(folds):
        held_out = fold_of == fold
        fit_part = ScoreSet(cal_scores.scores[~held_out], cal_scores.labels[~held_out])
        cal_map = fit_calibrated_pipeline(fit_part, method)
        probs = apply_map(cal_map, cal_scores.scores[held_out])
        per_fold.append(ece(probs, cal_scores.labels[held_out], bins=bins))
    return float(np.mean(per_fold))


def run_enhanced_calibration(data: Dataset, model_spec, seed: int) -> PipelineArtifact:
    """Run the selection pipeline end to end on one dataset.

    Partitions 60/20/20 (train/cal/test, stratified), trains the base
    model, picks the calibration method by the three ordered rules
    (calibration size, score normality, CV), fits the chosen map on the
    full calibration split, and reports held-out test metrics.
    """
    counts = np.bincount(check_type(data, Dataset, "data").labels, minlength=2)
    seed = check_int(seed, "seed", 0)
    if counts.min() < 3:
        raise TooFewSamplesError(
            f"each class needs >= 3 samples, got {counts[0]} neg / {counts[1]} pos"
        )
    train, rest = stratified_split(data, 0.6, seed=mix_seed(seed, 1))
    cal, test = stratified_split(rest, 0.5, seed=mix_seed(seed, 2))
    model = _fit_base_model(model_spec, train, seed=mix_seed(seed, 3))
    cal_scores = score_dataset(model, cal)
    test_scores = score_dataset(model, test)

    if cal.n < _SMALL_CAL_LIMIT:
        chosen = "platt"
        branch = "cal_size"
        trace = f"platt: cal size {cal.n} < {_SMALL_CAL_LIMIT}"
    else:
        normality = shapiro_wilk(cal_scores.scores)
        if normality.p_value < _NORMALITY_ALPHA:
            chosen = "isotonic"
            branch = "shapiro_wilk"
            trace = (
                f"isotonic: shapiro-wilk p={normality.p_value:.4g} < {_NORMALITY_ALPHA}"
            )
        else:
            branch = "cv"
            rng = np.random.default_rng(mix_seed(seed, 4))
            fold_of = deal_folds(cal_scores.labels, _SELECTION_FOLDS, rng)
            ece_platt = _cv_mean_ece(cal_scores, "platt", fold_of, _SELECTION_FOLDS, 10)
            ece_iso = _cv_mean_ece(cal_scores, "isotonic", fold_of, _SELECTION_FOLDS, 10)
            chosen = "platt" if ece_platt <= ece_iso else "isotonic"
            trace = (
                f"cv: mean ece platt={ece_platt:.4g} isotonic={ece_iso:.4g} -> {chosen}"
            )

    cal_map = fit_calibrated_pipeline(cal_scores, chosen)
    probs = apply_map(cal_map, test_scores.scores)
    report = metric_report(probs, test_scores.labels, bins=10)
    return PipelineArtifact(
        model=model,
        method_name=chosen,
        calibration_map=cal_map,
        report=report,
        selection_trace=trace,
        branch=branch,
        holdout=ScoreSet(probs, test_scores.labels),
    )


# ---------------------------------------------------------------------------
# the repeated-CV benchmark
# ---------------------------------------------------------------------------

def _materialize_dataset(config: ExperimentConfig) -> Dataset:
    if isinstance(config.source, SyntheticConfig):
        data = generate_synthetic(config.source)
    else:
        data = load_csv(config.source.path, config.source.label_column)
    if config.feature_mode == "full":
        return data
    if config.feature_mode == "informative":
        return select_features(data, [0, 1])
    return select_features(data, list(config.feature_mode))


def _cell(config: ExperimentConfig, data: Dataset, cell):
    """``(cal ScoreSet, test ScoreSet)`` of fold assignment ``cell`` of a
    run on ``data``: fit the base model on the fit part of the fold's
    training rows, and score the calibration part and the test rows."""
    if __debug__:
        overlap = np.intersect1d(cell.train_indices, cell.test_indices)
        assert overlap.size == 0, "train/test leakage in fold plan"
    run_seed = mix_seed(config.base_seed, cell.repeat_index, cell.fold_index)
    train_data = subset(data, cell.train_indices)
    test_data = subset(data, cell.test_indices)
    fit_part, cal_part = stratified_split(train_data, 0.75, seed=mix_seed(run_seed, 1))
    if __debug__:
        assert fit_part.n + cal_part.n == train_data.n, "fit/cal split must partition train"
    model = _fit_base_model(config.model, fit_part, seed=mix_seed(run_seed, 2))
    return score_dataset(model, cal_part), score_dataset(model, test_data)


def _fork_pool(config: ExperimentConfig, cells: int):
    """A pool of forked workers to fit the run's cells, or None to fit them
    in this process; the conditions are in the module docstring."""
    if not isinstance(config.model, ForestSpec):
        return None
    import os

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if cpus < 2:
        return None
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork").Pool(min(cpus, cells))


def _cells(config: ExperimentConfig):
    """Yield ``(repeat, fold, cal ScoreSet or None, test ScoreSet)`` for
    every CV cell in repeat-major order.

    Score files are read as their cell comes up, the test file first; the
    calibration file only when some method needs it.  Each path is parsed
    once per run, however many entries name it.  An in-repo model's cells
    are fit by :func:`_cell`, in this process or in a pool of forked
    workers; closing the generator, or an error from a cell, ends the
    pool and its workers.
    """
    if isinstance(config.source, ScoreFileSource):
        needs_cal = any(m != "uncalibrated" for m in config.methods)
        parsed = {}

        def read(path):
            if path not in parsed:
                parsed[path] = load_score_csv(path)
            return parsed[path]

        for index, entry in enumerate(config.source.entries):
            test_scores = read(entry.test)
            cal_scores = read(entry.cal) if needs_cal else None
            repeat, fold = divmod(index, config.folds)
            yield repeat, fold, cal_scores, test_scores
        return
    data = _materialize_dataset(config)
    assignments = make_fold_plan(data, config.folds, config.repeats, config.base_seed).assignments
    fit = functools.partial(_cell, config, data)
    pool = _fork_pool(config, len(assignments))
    try:
        fitted = map(fit, assignments) if pool is None else pool.imap(fit, assignments)
        for cell, (cal_scores, test_scores) in zip(assignments, fitted):
            yield cell.repeat_index, cell.fold_index, cal_scores, test_scores
    finally:
        if pool is not None:
            pool.terminate()


def aggregate_records(records) -> tuple:
    """Per (model, method, metric) mean / sd / 95% CI over finite values.

    A metric that is NaN for a run (the goodness-of-fit test can be
    undefined under degenerate grouping) is excluded from that metric's
    aggregation; ``runs`` records how many values remained.
    """
    groups: dict = {}
    for record in records:
        groups.setdefault((record.model_name, record.method_name), []).append(record.metrics)
    rows = []
    for (model_name, method_name), reports in sorted(groups.items()):
        for metric in AGGREGATE_METRICS:
            values = np.array([getattr(r, metric) for r in reports], dtype=np.float64)
            values = values[np.isfinite(values)]
            runs = int(values.size)
            if runs == 0:
                mean = sd = lo = hi = float("nan")
            elif runs == 1:
                mean = float(values[0])
                sd = lo = hi = float("nan")
            else:
                mean = float(values.mean())
                sd = float(values.std(ddof=1))
                interval = mean_ci(values, level=0.95)
                lo, hi = interval.lower, interval.upper
            rows.append(
                AggregateRow(model_name, method_name, metric, mean, sd, lo, hi, runs)
            )
    return tuple(rows)


def _paired_values(records, method: str, metric: str) -> dict:
    return {
        (r.repeat, r.fold): getattr(r.metrics, metric) for r in records if r.method_name == method
    }


def _comparisons_for(records, methods, metrics, family_alpha: float):
    """All unordered method pairs on each metric, Bonferroni-corrected
    across every emitted pair."""
    pairs = list(itertools.combinations(methods, 2))
    results = []  # (metric, PairedComparison) in emission order
    for metric in metrics:
        per_method = {m: _paired_values(records, m, metric) for m in methods}
        keys = sorted(per_method[methods[0]])
        for m in methods:
            if sorted(per_method[m]) != keys or not keys:
                raise IncompleteRecordsError(
                    f"method {m!r} lacks complete (repeat, fold) records for {metric!r}"
                )
            undefined = sum(not math.isfinite(v) for v in per_method[m].values())
            if undefined:
                raise IncompleteRecordsError(
                    f"method {m!r} has an undefined {metric!r} in {undefined} of "
                    f"{len(keys)} records; a paired comparison needs every value"
                )
        for name_a, name_b in pairs:
            a = np.array([per_method[name_a][k] for k in keys])
            b = np.array([per_method[name_b][k] for k in keys])
            results.append((metric, paired_t_test(a, b, name_a=name_a, name_b=name_b)))
    threshold, decisions = bonferroni([r.p_value for _, r in results], family_alpha)
    return threshold, tuple(
        ComparisonRow(metric, dataclasses.replace(r, significant_at_corrected_alpha=bool(d)))
        for (metric, r), d in zip(results, decisions)
    )


# points a run queues for scoring before it scores the queue: blocks of ~20
# README-size rows pay (~28 against ~160 us a row one at a time); 1 << 13
# added ~0.4 MB to a README logreg run's peak RSS, 1 << 12 ~0.2 MB
_QUEUED_POINTS = 1 << 12


def run_repeated_cv(config: ExperimentConfig) -> ResultTable:
    """Run the full benchmark protocol and assemble the result table.

    Emits one record per (repeat, fold, method); aggregates every metric
    and compares all method pairs on the default comparison metrics with a
    Bonferroni threshold spanning every emitted pair.  Deterministic for a
    fixed config.

    Each cell's test labels must hold both classes, as :func:`metric_report`
    requires.  Each (repeat, fold, method)'s calibrated test probabilities,
    a map of finite scores and so in [0, 1], are queued; the queue is
    scored whenever it holds ``_QUEUED_POINTS`` points, and at the end, a
    ``(rows, n)`` block per test-set length ``n``.  Every report equals
    the row's own :func:`metric_report` bit for bit.
    """
    records = []
    queue = {}  # test-set length -> [(repeat, fold, method, probs, labels)]
    queued = 0
    cells = _cells(config)
    try:
        for repeat, fold, cal_scores, test_scores in cells:
            _check_two_classes(test_scores.labels)
            for method in config.methods:
                cal_map = fit_calibrated_pipeline(cal_scores, method)
                probs = apply_map(cal_map, test_scores.scores)
                # the queue keeps the ScoreSet's labels, not a copy per method
                row = (repeat, fold, method, probs, test_scores.labels)
                queue.setdefault(probs.size, []).append(row)
                queued += probs.size
                if queued >= _QUEUED_POINTS:
                    records += _scored(queue, config)
                    queued = 0
    finally:
        cells.close()  # ends a worker pool now, not when the generator is collected
    records += _scored(queue, config)
    records.sort(key=lambda r: (r.model_name, r.method_name, r.repeat, r.fold))
    records = tuple(records)
    aggregates = aggregate_records(records)
    if len(config.methods) >= 2:
        metrics = DEFAULT_COMPARISON_METRICS
        threshold, comparisons = _comparisons_for(
            records, config.methods, metrics, config.family_alpha
        )
    else:
        metrics, threshold, comparisons = (), None, ()
    return ResultTable(
        config=config,
        records=records,
        aggregates=aggregates,
        comparisons=comparisons,
        comparison_metrics=tuple(metrics),
        bonferroni_threshold=threshold,
    )


def _scored(queue: dict, config: ExperimentConfig) -> list:
    """The RunRecords of :func:`run_repeated_cv`'s queued rows, scored a
    block per test-set length; empties the queue."""
    records = []
    for rows in queue.values():
        probs, labels = ([row[i] for row in rows] for i in (3, 4))
        if len(rows) > 1:
            probs, labels = np.stack(probs), np.stack(labels)
        else:  # a lone row, such as a large test set, is scored in place, not copied
            probs, labels = probs[0][None], labels[0][None]
        reports = _metric_reports(probs, labels, config.bins, 10)  # metric_report's hl_groups
        records += (
            RunRecord(repeat, fold, config.model.model_name, method, report)
            for (repeat, fold, method, _, _), report in zip(rows, reports)
        )
    queue.clear()
    return records


def compare_methods(table: ResultTable, metric: str, family_alpha: float | None = None) -> list:
    """Pairwise paired t-tests between all methods on one metric.

    The Bonferroni family is the emitted pairs for this metric; each
    comparison's ``significant_at_corrected_alpha`` reflects the corrected
    threshold ``family_alpha / len(pairs)``.  ``family_alpha`` defaults to
    the table's configured value.
    """
    if metric not in AGGREGATE_METRICS:
        raise ValueError(f"unknown metric {metric!r}; valid: {', '.join(AGGREGATE_METRICS)}")
    if family_alpha is None:
        family_alpha = table.config.family_alpha
    check_real(family_alpha, "family_alpha", 0.0, 1.0)
    methods = table.config.methods
    if len(methods) < 2:
        raise IncompleteRecordsError("comparisons need at least two methods")
    _, rows = _comparisons_for(table.records, methods, (metric,), family_alpha)
    return [row.result for row in rows]


# ---------------------------------------------------------------------------
# convergence-rate study
# ---------------------------------------------------------------------------

_EVAL_SAMPLE = 10_000


def run_convergence_study(g_star, sizes, trials: int, seed: int) -> ConvergenceStudy:
    """Measure isotonic-fit error against a known monotone truth.

    For each size n and trial: draw s ~ U[0,1] and y ~ Bernoulli(g_star(s)),
    fit the isotonic map, and average |fit(s') - g_star(s')| over a fresh
    10,000-point evaluation sample.  Returns per-size mean errors and the
    least-squares slope of log(mean error) against log(n).
    """
    sizes = tuple(check_int(n, "sizes") for n in sizes)
    trials, seed = check_int(trials, "trials"), check_int(seed, "seed", 0)
    if len(sizes) < 4:
        raise InvalidSpecError(f"need >= 4 sample sizes, got {len(sizes)}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InvalidSpecError("sizes must be strictly increasing")
    if sizes[0] < 1:
        raise InvalidSpecError("sizes must be positive")
    if sizes[-1] < 100 * sizes[0]:
        raise InvalidSpecError(f"sizes must span >= 2 decades, got {sizes[0]}..{sizes[-1]}")
    if trials < 10:
        raise InvalidSpecError(f"need >= 10 trials, got {trials}")
    grid = np.linspace(0.0, 1.0, 1001)
    vals = np.asarray(g_star(grid), dtype=np.float64)
    if vals.shape != grid.shape or not np.isfinite(vals).all():
        raise InvalidSpecError("g_star must map [0,1] vectors to finite values")
    if (vals < 0.0).any() or (vals > 1.0).any():
        raise InvalidSpecError("g_star values must lie in [0, 1]")
    if (np.diff(vals) < -1e-12).any():
        raise InvalidSpecError("g_star must be non-decreasing on [0, 1]")

    trial_errors = np.empty((len(sizes), trials))
    for i, n in enumerate(sizes):
        for j in range(trials):
            rng = np.random.default_rng(mix_seed(seed, i, j))
            s = rng.random(n)
            y = (rng.random(n) < g_star(s)).astype(np.int64)
            iso = fit_calibrated_pipeline(ScoreSet(s, y), "isotonic")
            s_eval = rng.random(_EVAL_SAMPLE)
            fitted = apply_map(iso, s_eval)
            trial_errors[i, j] = float(np.mean(np.abs(fitted - g_star(s_eval))))
    mean_errors = trial_errors.mean(axis=1)
    slope, intercept = np.polyfit(np.log(sizes), np.log(mean_errors), 1)
    return ConvergenceStudy(
        sizes=sizes,
        mean_errors=mean_errors,
        trial_errors=trial_errors,
        slope=float(slope),
        intercept=float(intercept),
    )


# ---------------------------------------------------------------------------
# single-split bootstrap CI
# ---------------------------------------------------------------------------

_BOOTSTRAP_METRICS = ("auc", "brier", "ece", "log_loss", "mce", "reliability")

# resample indices drawn per block: bounds each block's arrays at ~200 kB
_BLOCK_INDICES = 25_000


def bootstrap_metric_ci(
    probs,
    labels,
    metric: str = "ece",
    bins: int = 10,
    level: float = 0.95,
    draws: int = 1000,
    seed: int = 0,
) -> IntervalEstimate:
    """Percentile-bootstrap CI of one metric on a single evaluation set.

    Resamples (prob, label) pairs with replacement ``draws`` times; draws
    where the metric is undefined (a single-class resample for AUC, the
    only such case) are skipped.  The interval is widened, if needed, to
    contain the full-data point estimate.

    Draw ``i`` resamples with the ``i``-th of successive
    ``rng.integers(0, n, size=n)`` calls; they are drawn as rows of
    ``(rows, n)`` blocks, which is the same stream.  Every metric scores
    a whole block at once, each row bit for bit as the public function
    scores that resample.
    """
    if metric not in _BOOTSTRAP_METRICS:
        raise ValueError(f"unknown metric {metric!r}; valid: {', '.join(_BOOTSTRAP_METRICS)}")
    draws = check_int(draws, "draws", minimum=1)
    bins = check_int(bins, "bins", minimum=1)
    level, seed = check_real(level, "level", 0.0, 1.0), check_int(seed, "seed", 0)
    point, samples = _bootstrap_samples(probs, labels, metric, bins, draws, seed)
    if samples.size == 0:
        raise ValueError(f"metric {metric!r} was undefined on every bootstrap draw")
    tail = 0.5 * (1.0 - level)
    lower, upper = np.quantile(samples, [tail, 1.0 - tail])
    return IntervalEstimate(
        mean=point,
        lower=min(float(lower), point),
        upper=max(float(upper), point),
        level=level,
    )


def _bootstrap_samples(probs, labels, metric: str, bins: int, draws: int, seed: int):
    """``(point estimate, array of the defined draws' values)`` for
    :func:`bootstrap_metric_ci`, whose other arguments are already checked.
    The public metric that gives the point estimate checks the pairs."""
    public = {"auc": auc, "brier": brier, "log_loss": log_loss, "mce": mce}.get(metric, ece)
    binned = metric in ("ece", "mce", "reliability")
    point = public(probs, labels, bins=bins) if binned else public(probs, labels)
    if metric == "reliability":
        point = 1.0 - point
    n = np.size(probs)
    rng = np.random.default_rng(seed)
    per_block = max(1, _BLOCK_INDICES // n)
    blocks = (
        rng.integers(0, n, size=(min(per_block, draws - start), n))
        for start in range(0, draws, per_block)
    )
    samples = _resampled(metric, probs, labels, bins, blocks)
    return point, samples[~np.isnan(samples)]


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def config_to_json(config: ExperimentConfig) -> dict:
    """JSON-ready dict form of an ExperimentConfig: ``source`` and ``model``
    as ``{kind: {field: value}}``."""
    return to_json(config)


def config_from_json(payload: dict) -> ExperimentConfig:
    """Inverse of :func:`config_to_json`, strict about its input: an unknown
    key or a value of the wrong JSON type (``2.9`` or ``true`` as a count,
    a string as the method list) raises ``ValueError``; a missing required
    key raises ``KeyError``."""
    return from_json(ExperimentConfig, payload, "config")


def table_to_json(table: ResultTable) -> dict:
    """JSON-ready dict form of a ResultTable (schema version 1)."""
    return {"schema_version": SCHEMA_VERSION, **to_json(table)}


def table_from_json(payload: dict) -> ResultTable:
    """Inverse of :func:`table_to_json`, with schema checking.  As strict as
    :func:`config_from_json`, but every fault, in the embedded config too,
    raises :class:`SchemaVersionMismatchError`."""
    if not isinstance(payload, dict) or "records" not in payload:
        raise SchemaVersionMismatchError(
            "not a results file: top-level 'records' key is missing"
        )
    body = dict(payload)
    version = body.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatchError(
            f"results file has schema_version {version!r}; this library reads "
            f"{SCHEMA_VERSION!r}"
        )
    try:
        return from_json(ResultTable, body, "results")
    except (KeyError, ValueError) as exc:
        raise SchemaVersionMismatchError(exc.args[0]) from None


def save_results(table: ResultTable, path: str) -> None:
    """Write a ResultTable as JSON; a reload reproduces it exactly
    (floats keep full precision, NaN is stored as null and ±inf as
    "inf"/"-inf")."""
    write_json(path, table_to_json(table))


def load_results(path: str) -> ResultTable:
    """Read a ResultTable written by :func:`save_results`."""
    with open(path, "r") as handle:
        try:
            payload = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaVersionMismatchError(f"{path}: not valid JSON ({exc})") from None
    return table_from_json(payload)
