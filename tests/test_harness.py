"""Tests for the benchmark harness: experiment configuration, the
repeated-CV protocol, method comparisons, the selection pipeline, the
convergence study, bootstrap CIs, and results persistence."""

import json
import multiprocessing
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest

from calibench import cli, harness
from calibench.calibrators import ScoreSet, apply_map
from calibench.datasets import (
    Dataset,
    Provenance,
    SyntheticConfig,
    generate_synthetic,
    load_score_csv,
    save_score_csv,
)
from calibench.errors import (
    IncompleteRecordsError,
    InvalidSpecError,
    NonFiniteScoreError,
    SchemaVersionMismatchError,
    SingleClassError,
    TooFewSamplesError,
)
from calibench.harness import (
    AGGREGATE_METRICS,
    DEFAULT_COMPARISON_METRICS,
    CsvSource,
    ExperimentConfig,
    ExternalSpec,
    ForestSpec,
    LogregSpec,
    ScoreFilePair,
    ScoreFileSource,
    bootstrap_metric_ci,
    compare_methods,
    config_from_json,
    config_to_json,
    load_results,
    run_convergence_study,
    run_enhanced_calibration,
    run_repeated_cv,
    save_results,
    table_from_json,
    table_to_json,
)
from calibench.stats import paired_t_test

from oracles import per_draw_bootstrap, row_load_score_csv


def small_config(**overrides):
    defaults = dict(
        source=SyntheticConfig(n=400, d=4, seed=7),
        model=LogregSpec(C=1.0),
        methods=("uncalibrated", "platt", "isotonic"),
        folds=3,
        repeats=2,
        bins=10,
        base_seed=11,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_config_defaults_and_normalization():
    config = ExperimentConfig(
        source=SyntheticConfig(n=100, d=3, seed=0),
        model=LogregSpec(),
        methods=("PLATT", "Isotonic"),
    )
    assert config.methods == ("platt", "isotonic")
    assert config.folds == 5 and config.repeats == 10
    assert config.bins == 10 and config.base_seed == 0
    assert config.family_alpha == 0.05
    assert config.feature_mode == "full"


def test_config_rejects_bad_source_and_model():
    with pytest.raises(ValueError, match="source must be"):
        ExperimentConfig(source="nope", model=LogregSpec())
    with pytest.raises(ValueError, match="model must be"):
        ExperimentConfig(source=SyntheticConfig(100, 3, 0), model="nope")


def test_config_rejects_bad_methods():
    src = SyntheticConfig(100, 3, 0)
    with pytest.raises(ValueError, match="non-empty"):
        ExperimentConfig(source=src, model=LogregSpec(), methods=())
    with pytest.raises(ValueError, match="unknown method 'temperature'"):
        ExperimentConfig(source=src, model=LogregSpec(), methods=("temperature",))
    with pytest.raises(ValueError, match="unique"):
        ExperimentConfig(source=src, model=LogregSpec(), methods=("platt", "platt"))


def test_config_rejects_bad_numbers():
    src = SyntheticConfig(100, 3, 0)
    with pytest.raises(ValueError, match="folds"):
        ExperimentConfig(source=src, model=LogregSpec(), folds=1)
    with pytest.raises(ValueError, match="repeats"):
        ExperimentConfig(source=src, model=LogregSpec(), repeats=0)
    with pytest.raises(ValueError, match="repeats"):
        ExperimentConfig(source=src, model=LogregSpec(), repeats=True)
    with pytest.raises(ValueError, match="bins"):
        ExperimentConfig(source=src, model=LogregSpec(), bins=0)
    with pytest.raises(ValueError, match="base_seed"):
        ExperimentConfig(source=src, model=LogregSpec(), base_seed=-1)
    with pytest.raises(ValueError, match="family_alpha"):
        ExperimentConfig(source=src, model=LogregSpec(), family_alpha=1.0)
    with pytest.raises(ValueError, match="trees must be an integer >= 1, got 0"):
        ForestSpec(trees=0)
    with pytest.raises(ValueError, match="depth must be an integer >= 1, got -1"):
        ForestSpec(depth=-1)


def test_config_feature_mode():
    src = SyntheticConfig(100, 5, 0)
    assert ExperimentConfig(source=src, model=LogregSpec(), feature_mode="informative").feature_mode == "informative"
    tupled = ExperimentConfig(source=src, model=LogregSpec(), feature_mode=[0, 2])
    assert tupled.feature_mode == (0, 2)
    with pytest.raises(ValueError, match="feature_mode"):
        ExperimentConfig(source=src, model=LogregSpec(), feature_mode="sparse")
    # a fractional or bool index is not truncated, a repeated one not kept
    for bad in [(0, 1.7, True), (0, 1.7), (0, True), (1, 0, 1)]:
        with pytest.raises(ValueError, match="feature_mode indices must be distinct integers"):
            ExperimentConfig(source=src, model=LogregSpec(), feature_mode=bad)


def test_config_feature_mode_takes_numpy_integers_as_plain_ints():
    src = SyntheticConfig(100, 5, 0)
    for given in (np.array([0, 2]), (np.int32(0), np.uint8(2)), [np.int64(0), 2]):
        config = ExperimentConfig(source=src, model=LogregSpec(), feature_mode=given)
        assert config.feature_mode == (0, 2)
        assert all(type(i) is int for i in config.feature_mode)
        assert json.loads(json.dumps(config_to_json(config)))["feature_mode"] == [0, 2]
    for bad in (np.array([True, False]), (0, np.bool_(True)), np.array([0, -1])):
        with pytest.raises(ValueError, match="feature_mode indices must be distinct integers"):
            ExperimentConfig(source=src, model=LogregSpec(), feature_mode=bad)


def test_config_external_pairing_rules(tmp_path):
    entries = tuple(ScoreFilePair(test=f"t{i}.csv", cal=f"c{i}.csv") for i in range(6))
    config = ExperimentConfig(
        source=ScoreFileSource(entries),
        model=ExternalSpec(),
        methods=("platt",),
        folds=3,
        repeats=2,
    )
    assert config.model.model_name == "external"
    # external model and score-file source must come together
    with pytest.raises(ValueError, match="external model requires a score-file source"):
        ExperimentConfig(source=SyntheticConfig(100, 3, 0), model=ExternalSpec())
    with pytest.raises(ValueError, match="external model requires a score-file source"):
        ExperimentConfig(source=ScoreFileSource(entries), model=LogregSpec(), folds=3, repeats=2)
    # entry count must be folds * repeats
    with pytest.raises(ValueError, match="folds\\*repeats = 10 entries, got 6"):
        ExperimentConfig(source=ScoreFileSource(entries), model=ExternalSpec(), folds=5, repeats=2)
    # calibrated methods need a cal file in every entry
    no_cal = tuple(ScoreFilePair(test=f"t{i}.csv") for i in range(6))
    with pytest.raises(ValueError, match="require a 'cal' score file"):
        ExperimentConfig(
            source=ScoreFileSource(no_cal), model=ExternalSpec(),
            methods=("platt",), folds=3, repeats=2,
        )
    # uncalibrated-only runs do not
    ok = ExperimentConfig(
        source=ScoreFileSource(no_cal), model=ExternalSpec(),
        methods=("uncalibrated",), folds=3, repeats=2,
    )
    assert ok.methods == ("uncalibrated",)


def test_score_file_source_rejects_non_pairs():
    with pytest.raises(ValueError, match="ScoreFilePair"):
        ScoreFileSource(entries=("a.csv", "b.csv"))


# ---------------------------------------------------------------------------
# the repeated-CV benchmark
# ---------------------------------------------------------------------------

def test_benchmark_record_inventory():
    table = run_repeated_cv(small_config())
    # one record per (repeat, fold, method)
    assert len(table.records) == 2 * 3 * 3
    keys = {(r.repeat, r.fold, r.method_name) for r in table.records}
    assert keys == {
        (rep, fold, m)
        for rep in range(2)
        for fold in range(3)
        for m in ("uncalibrated", "platt", "isotonic")
    }
    assert all(r.model_name == "logreg" for r in table.records)
    # records are sorted by (model, method, repeat, fold)
    sort_keys = [(r.model_name, r.method_name, r.repeat, r.fold) for r in table.records]
    assert sort_keys == sorted(sort_keys)


def test_benchmark_is_deterministic():
    table_a = run_repeated_cv(small_config())
    table_b = run_repeated_cv(small_config())
    assert table_to_json(table_a) == table_to_json(table_b)


def test_runs_in_threads_return_their_serial_bytes():
    # the cells used to read their run from module state, so a thread could
    # score another thread's dataset; a forest run forks its pool, which a
    # process with threads should not do, so these are logreg runs
    from concurrent.futures import ThreadPoolExecutor

    configs = [
        small_config(source=SyntheticConfig(600 + 100 * i, 4, i), folds=3, repeats=4, base_seed=i)
        for i in range(4)
    ]

    def run(config):
        return json.dumps(table_to_json(run_repeated_cv(config)))

    serial = [run(config) for config in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-cell
    try:
        with ThreadPoolExecutor(4) as threads:
            for _ in range(3):
                assert list(threads.map(run, configs, timeout=120)) == serial
    finally:
        sys.setswitchinterval(interval)


def test_benchmark_records_independent_of_method_set():
    """A method's per-run metrics do not depend on which other methods ran."""
    full = run_repeated_cv(small_config())
    solo = run_repeated_cv(small_config(methods=("uncalibrated",)))
    full_uncal = {
        (r.repeat, r.fold): r.metrics
        for r in full.records
        if r.method_name == "uncalibrated"
    }
    solo_uncal = {(r.repeat, r.fold): r.metrics for r in solo.records}
    assert full_uncal == solo_uncal


def test_aggregate_metrics_are_the_report_floats_in_field_order():
    # results files store aggregates in this order; compare_methods names it
    assert AGGREGATE_METRICS == (
        "ece", "mce", "brier", "log_loss", "auc", "reliability", "hl_statistic", "hl_p_value",
    )


def test_benchmark_aggregates_recomputable():
    table = run_repeated_cv(small_config())
    assert len(table.aggregates) == 3 * len(AGGREGATE_METRICS)
    by_key = {(a.method_name, a.metric): a for a in table.aggregates}
    for method in ("uncalibrated", "platt", "isotonic"):
        per_run = [r.metrics for r in table.records if r.method_name == method]
        assert len(per_run) == 6
        for metric in AGGREGATE_METRICS:
            values = np.array([getattr(m, metric) for m in per_run])
            values = values[np.isfinite(values)]
            row = by_key[(method, metric)]
            assert row.model_name == "logreg"
            assert row.runs == values.size
            if values.size >= 2:
                assert row.mean == pytest.approx(values.mean(), abs=1e-12)
                assert row.sd == pytest.approx(values.std(ddof=1), abs=1e-12)
                assert row.ci_lower < row.mean < row.ci_upper or np.allclose(values, values[0])


def test_benchmark_comparisons_cover_all_pairs():
    table = run_repeated_cv(small_config())
    assert table.comparison_metrics == DEFAULT_COMPARISON_METRICS
    # 3 methods -> 3 pairs, times 2 metrics
    assert len(table.comparisons) == 6
    assert table.bonferroni_threshold == pytest.approx(0.05 / 6)
    seen = {(c.metric, c.result.name_a, c.result.name_b) for c in table.comparisons}
    assert len(seen) == 6
    for comparison in table.comparisons:
        assert comparison.metric in DEFAULT_COMPARISON_METRICS
        assert comparison.result.df == 5  # 6 paired runs
        assert comparison.result.significant_at_corrected_alpha == (
            comparison.result.p_value < table.bonferroni_threshold
        )


def test_single_method_run_emits_no_comparisons():
    table = run_repeated_cv(small_config(methods=("platt",)))
    assert table.comparisons == ()
    assert table.comparison_metrics == ()
    assert table.bonferroni_threshold is None


def test_compare_methods_matches_manual_t_test():
    table = run_repeated_cv(small_config())
    results = compare_methods(table, "log_loss")
    assert [(r.name_a, r.name_b) for r in results] == [
        ("uncalibrated", "platt"),
        ("uncalibrated", "isotonic"),
        ("platt", "isotonic"),
    ]
    picked = {
        (r.repeat, r.fold): r.metrics.log_loss
        for r in table.records
        if r.method_name == "uncalibrated"
    }
    other = {
        (r.repeat, r.fold): r.metrics.log_loss
        for r in table.records
        if r.method_name == "platt"
    }
    keys = sorted(picked)
    manual = paired_t_test(
        np.array([picked[k] for k in keys]),
        np.array([other[k] for k in keys]),
        name_a="uncalibrated",
        name_b="platt",
    )
    got = results[0]
    assert got.t_statistic == pytest.approx(manual.t_statistic, abs=1e-12)
    assert got.p_value == pytest.approx(manual.p_value, abs=1e-12)
    assert got.df == manual.df
    # corrected threshold spans this metric's three pairs
    assert got.significant_at_corrected_alpha == (got.p_value < 0.05 / 3)


def test_compare_methods_validates_input():
    table = run_repeated_cv(small_config())
    with pytest.raises(ValueError, match="unknown metric 'accuracy'; valid:"):
        compare_methods(table, "accuracy")
    with pytest.raises(ValueError, match="family_alpha"):
        compare_methods(table, "ece", family_alpha=0.0)
    solo = run_repeated_cv(small_config(methods=("platt",)))
    with pytest.raises(IncompleteRecordsError, match="at least two methods"):
        compare_methods(solo, "ece")


def test_forest_benchmark_runs():
    table = run_repeated_cv(
        small_config(
            source=SyntheticConfig(n=240, d=4, seed=3),
            model=ForestSpec(trees=10, depth=4),
            methods=("uncalibrated", "platt"),
            folds=2,
            repeats=1,
        )
    )
    assert len(table.records) == 4
    assert all(r.model_name == "forest" for r in table.records)
    for record in table.records:
        assert 0.0 <= record.metrics.ece <= 1.0


# ---------------------------------------------------------------------------
# forest cells fit by a pool of forked workers
# ---------------------------------------------------------------------------

def forest_config():
    return small_config(source=SyntheticConfig(n=300, d=4, seed=5), model=ForestSpec(trees=10, depth=4))


def use_cpus(monkeypatch, cpus):
    """Make ``harness`` see ``cpus`` as the CPUs this process may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


@pytest.fixture
def pools(monkeypatch):
    """The pools ``_cells`` makes, one entry (None: serial) per run."""
    made = []
    real = harness._fork_pool

    def spy(config, cells):
        made.append(real(config, cells))
        return made[-1]

    monkeypatch.setattr(harness, "_fork_pool", spy)
    return made


def test_pooled_forest_results_are_byte_identical_to_serial(tmp_path, monkeypatch, pools):
    results = []
    for cpus in ({0}, {0, 1}):
        use_cpus(monkeypatch, cpus)
        path = tmp_path / f"cpus-{len(cpus)}.json"
        save_results(run_repeated_cv(forest_config()), str(path))
        results.append(path.read_bytes())
    assert pools[0] is None and pools[1] is not None
    assert results[0] == results[1]
    assert multiprocessing.active_children() == []


def test_only_a_forest_run_with_two_cpus_and_fork_gets_a_pool(monkeypatch):
    use_cpus(monkeypatch, {0, 1, 2, 3})
    assert harness._fork_pool(small_config(), 6) is None  # logreg
    pool = harness._fork_pool(forest_config(), 3)
    try:
        assert len(multiprocessing.active_children()) == 3  # min(CPUs, cells) workers
    finally:
        pool.terminate()
    use_cpus(monkeypatch, {1})
    assert harness._fork_pool(forest_config(), 6) is None
    use_cpus(monkeypatch, {0, 1})
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert harness._fork_pool(forest_config(), 6) is None
    assert multiprocessing.active_children() == []


def test_an_error_in_the_parent_mid_run_ends_the_pool(monkeypatch, pools):
    use_cpus(monkeypatch, {0, 1})
    config = forest_config()
    real = harness.fit_calibrated_pipeline
    fits = []

    def fail_in_the_second_cell(cal_scores, method):
        fits.append(method)
        if len(fits) > len(config.methods):
            raise RuntimeError("planted calibration failure")
        return real(cal_scores, method)

    monkeypatch.setattr(harness, "fit_calibrated_pipeline", fail_in_the_second_cell)
    # pytest.raises keeps the traceback, and with it the run's frame and its
    # cell generator, alive: the pool must end without waiting for them
    with pytest.raises(RuntimeError, match="planted") as raised:
        run_repeated_cv(config)
    assert pools[0] is not None
    assert multiprocessing.active_children() == []
    assert raised.value.args == ("planted calibration failure",)


def test_an_error_in_a_worker_reaches_the_cli_as_the_same_data_error(tmp_path, monkeypatch, capsys, pools):
    use_cpus(monkeypatch, {0, 1})

    def single_class(*args, **kwargs):
        raise SingleClassError("planted: the fit part holds one class")

    monkeypatch.setattr(harness, "fit_forest", single_class)
    with pytest.raises(SingleClassError, match="planted") as raised:
        run_repeated_cv(forest_config())
    # raised in a worker: the pool attaches the worker's traceback as the cause
    assert type(raised.value.__cause__).__name__ == "RemoteTraceback"
    assert multiprocessing.active_children() == []

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_json(forest_config())))
    out = tmp_path / "results.json"
    code = cli.main(["benchmark", "--config", str(config_path), "--out", str(out)])
    assert code == 2
    assert "data error: planted: the fit part holds one class" in capsys.readouterr().err
    assert not out.exists()
    assert multiprocessing.active_children() == []
    assert len(pools) == 2 and all(pool is not None for pool in pools)


def test_external_benchmark_end_to_end(tmp_path):
    """Score-file mode: fit maps on cal files, evaluate on test files."""
    rng = np.random.default_rng(5)
    entries = []
    held = {}
    for repeat in range(2):
        for fold in range(2):
            def draw(n):
                s = rng.random(n)
                y = (rng.random(n) < s).astype(np.int64)
                return ScoreSet(s, y)

            cal, test = draw(120), draw(80)
            cal_path = tmp_path / f"cal_{repeat}_{fold}.csv"
            test_path = tmp_path / f"test_{repeat}_{fold}.csv"
            save_score_csv(cal, str(cal_path))
            save_score_csv(test, str(test_path))
            entries.append(ScoreFilePair(test=str(test_path), cal=str(cal_path)))
            held[(repeat, fold)] = (cal, test)
    config = ExperimentConfig(
        source=ScoreFileSource(tuple(entries)),
        model=ExternalSpec(),
        methods=("uncalibrated", "isotonic"),
        folds=2,
        repeats=2,
    )
    table = run_repeated_cv(config)
    assert len(table.records) == 8
    assert all(r.model_name == "external" for r in table.records)
    # uncalibrated records reproduce the raw test-file metrics
    from calibench.metrics import metric_report

    for record in table.records:
        if record.method_name != "uncalibrated":
            continue
        _, test = held[(record.repeat, record.fold)]
        expected = metric_report(test.scores, test.labels, bins=10)
        assert record.metrics == expected
    # isotonic records reproduce a fit on the matching cal file
    from calibench.calibrators import fit_calibrated_pipeline

    for record in table.records:
        if record.method_name != "isotonic":
            continue
        cal, test = held[(record.repeat, record.fold)]
        cal_map = fit_calibrated_pipeline(cal, "isotonic")
        probs = apply_map(cal_map, test.scores)
        assert record.metrics == metric_report(probs, test.labels, bins=10)


def test_external_benchmark_uncalibrated_needs_no_cal_files(tmp_path):
    rng = np.random.default_rng(9)
    entries = []
    for i in range(2):
        s = rng.random(60)
        y = (rng.random(60) < s).astype(np.int64)
        path = tmp_path / f"test_{i}.csv"
        save_score_csv(ScoreSet(s, y), str(path))
        entries.append(ScoreFilePair(test=str(path)))
    config = ExperimentConfig(
        source=ScoreFileSource(tuple(entries)),
        model=ExternalSpec(),
        methods=("uncalibrated",),
        folds=2,
        repeats=1,
    )
    table = run_repeated_cv(config)
    assert len(table.records) == 2


def _cross_fitted(tmp_path, n=300):
    """Two score files, each the other's calibration set (2 folds x 1 repeat)."""
    rng = np.random.default_rng(21)
    paths = []
    for name in ("a", "b"):
        s = rng.random(n)
        paths.append(str(tmp_path / f"{name}.csv"))
        save_score_csv(ScoreSet(s, (rng.random(n) < s ** 2).astype(np.int64)), paths[-1])
    a, b = paths
    config = ExperimentConfig(
        source=ScoreFileSource((ScoreFilePair(test=b, cal=a), ScoreFilePair(test=a, cal=b))),
        model=ExternalSpec(),
        methods=("uncalibrated", "platt", "isotonic"),
        folds=2,
        repeats=1,
    )
    return config, a, b


def test_external_run_parses_each_score_file_once(tmp_path, monkeypatch):
    config, a, b = _cross_fitted(tmp_path)
    calls = []

    def counting(path):
        calls.append(path)
        return load_score_csv(path)

    monkeypatch.setattr(harness, "load_score_csv", counting)
    run_repeated_cv(config)
    assert calls == [b, a]  # the first entry's test file, then its cal file


def test_external_results_match_the_row_parser_byte_for_byte(tmp_path, monkeypatch):
    config, _, _ = _cross_fitted(tmp_path)
    fast = json.dumps(table_to_json(run_repeated_cv(config)))
    monkeypatch.setattr(harness, "load_score_csv", row_load_score_csv)
    assert json.dumps(table_to_json(run_repeated_cv(config))) == fast


def test_external_run_with_a_bad_cal_file_is_a_data_error(tmp_path, capsys):
    config, a, _ = _cross_fitted(tmp_path)
    with open(a, "a") as handle:
        handle.write("0.5\n")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_json(config)))
    out = tmp_path / "results.json"
    assert cli.main(["benchmark", "--config", str(config_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"data error: {a}: row 301 has 1 cells, expected 2\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# the calibration-selection pipeline
# ---------------------------------------------------------------------------

def _steep_sigmoid_dataset(n, coefficient, seed):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 3))
    logits = coefficient * features[:, 0]
    labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(np.int64)
    return Dataset(
        features=features,
        labels=labels,
        feature_names=tuple(f"f{j+1}" for j in range(3)),
        provenance=Provenance.from_seed(seed),
    )


def test_pipeline_small_calibration_split_picks_platt():
    data = generate_synthetic(SyntheticConfig(n=1000, d=10, seed=42))
    artifact = run_enhanced_calibration(data, LogregSpec(C=1.0), seed=0)
    assert artifact.branch == "cal_size"
    assert artifact.method_name == "platt"
    assert artifact.selection_trace == "platt: cal size 200 < 500"
    # holdout is the 20% test split, paired probs/labels
    assert artifact.holdout.scores.size == 200
    assert artifact.report.n == 200
    probs = apply_map(artifact.calibration_map, np.array([0.1, 0.5, 0.9]))
    assert np.all((probs >= 0.0) & (probs <= 1.0))


def test_pipeline_non_normal_scores_pick_isotonic():
    data = _steep_sigmoid_dataset(5000, coefficient=4.0, seed=0)
    artifact = run_enhanced_calibration(data, LogregSpec(C=1.0), seed=0)
    assert artifact.branch == "shapiro_wilk"
    assert artifact.method_name == "isotonic"
    assert artifact.selection_trace.startswith("isotonic: shapiro-wilk p=")
    assert artifact.selection_trace.endswith("< 0.05")


def test_pipeline_normal_scores_fall_through_to_cv():
    data = _steep_sigmoid_dataset(5000, coefficient=0.2, seed=0)
    artifact = run_enhanced_calibration(data, LogregSpec(C=1.0), seed=0)
    assert artifact.branch == "cv"
    assert artifact.method_name in ("platt", "isotonic")
    assert artifact.selection_trace.startswith("cv: mean ece platt=")
    assert artifact.selection_trace.endswith(f"-> {artifact.method_name}")


def test_pipeline_is_deterministic():
    data = _steep_sigmoid_dataset(2000, coefficient=1.0, seed=4)
    one = run_enhanced_calibration(data, LogregSpec(C=1.0), seed=3)
    two = run_enhanced_calibration(data, LogregSpec(C=1.0), seed=3)
    assert one.report == two.report
    assert one.selection_trace == two.selection_trace
    # test split is 20% of the data
    assert one.holdout.scores.size == 400


def test_pipeline_rejects_tiny_classes():
    features = np.linspace(0.0, 1.0, 20).reshape(-1, 1)
    labels = np.array([1, 1] + [0] * 18)
    data = Dataset(
        features=features,
        labels=labels,
        feature_names=("f1",),
        provenance=Provenance.from_seed(0),
    )
    with pytest.raises(TooFewSamplesError, match=">= 3 samples"):
        run_enhanced_calibration(data, LogregSpec(C=1.0), seed=0)


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

def test_convergence_study_identity_truth():
    study = run_convergence_study(
        g_star=lambda s: s,
        sizes=(100, 316, 1000, 3162, 10000),
        trials=10,
        seed=0,
    )
    assert study.sizes == (100, 316, 1000, 3162, 10000)
    assert study.trial_errors.shape == (5, 10)
    assert study.mean_errors.shape == (5,)
    np.testing.assert_allclose(study.mean_errors, study.trial_errors.mean(axis=1))
    # error decays with n: negative slope, strictly smaller at the extremes
    assert study.slope < -0.2
    assert study.mean_errors[-1] < study.mean_errors[0]
    # slope/intercept reproduce a least-squares line on the log-log points
    slope, intercept = np.polyfit(np.log(study.sizes), np.log(study.mean_errors), 1)
    assert study.slope == pytest.approx(slope)
    assert study.intercept == pytest.approx(intercept)


def test_convergence_study_is_deterministic():
    kwargs = dict(g_star=lambda s: s, sizes=(50, 200, 1000, 5000), trials=10, seed=1)
    one = run_convergence_study(**kwargs)
    two = run_convergence_study(**kwargs)
    np.testing.assert_array_equal(one.trial_errors, two.trial_errors)
    assert one.slope == two.slope


def test_convergence_study_validates_spec():
    good = dict(g_star=lambda s: s, sizes=(10, 100, 500, 1000), trials=10, seed=0)
    with pytest.raises(InvalidSpecError, match=">= 4 sample sizes"):
        run_convergence_study(**{**good, "sizes": (10, 100, 1000)})
    with pytest.raises(InvalidSpecError, match="strictly increasing"):
        run_convergence_study(**{**good, "sizes": (10, 100, 100, 1000)})
    with pytest.raises(InvalidSpecError, match="2 decades"):
        run_convergence_study(**{**good, "sizes": (10, 20, 40, 80)})
    with pytest.raises(InvalidSpecError, match=">= 10 trials"):
        run_convergence_study(**{**good, "trials": 9})
    with pytest.raises(InvalidSpecError, match="non-decreasing"):
        run_convergence_study(**{**good, "g_star": lambda s: 1.0 - s})
    with pytest.raises(InvalidSpecError, match="lie in \\[0, 1\\]"):
        run_convergence_study(**{**good, "g_star": lambda s: 2.0 * s})
    with pytest.raises(InvalidSpecError, match="finite"):
        run_convergence_study(**{**good, "g_star": lambda s: s * np.nan})


# ---------------------------------------------------------------------------
# bootstrap CI
# ---------------------------------------------------------------------------

def test_bootstrap_ci_basics():
    rng = np.random.default_rng(0)
    probs = rng.random(400)
    labels = (rng.random(400) < probs).astype(np.int64)
    interval = bootstrap_metric_ci(probs, labels, metric="ece", seed=2)
    assert interval.level == 0.95
    assert interval.lower <= interval.mean <= interval.upper
    # deterministic given the seed
    again = bootstrap_metric_ci(probs, labels, metric="ece", seed=2)
    assert (interval.lower, interval.mean, interval.upper) == (
        again.lower,
        again.mean,
        again.upper,
    )
    # a wider level never shrinks the interval
    wide = bootstrap_metric_ci(probs, labels, metric="ece", seed=2, level=0.99)
    assert wide.lower <= interval.lower and wide.upper >= interval.upper


def test_bootstrap_ci_validates_input():
    probs = np.array([0.2, 0.8, 0.5, 0.7])
    labels = np.array([0, 1, 0, 1])
    with pytest.raises(ValueError, match="unknown metric 'f1'; valid:"):
        bootstrap_metric_ci(probs, labels, metric="f1")
    with pytest.raises(ValueError, match="draws"):
        bootstrap_metric_ci(probs, labels, draws=0)


# bootstrap_metric_ci at the last change before the draws of brier, log_loss
# and auc called the metrics' kernels: (mean, lower, upper) as float.hex
BOOTSTRAP_PINS = {
    "auc": ("0x1.d00e025ae0eeap-1", "0x1.b746dd1dbabefp-1", "0x1.e50bd4d042866p-1"),
    "brier": ("0x1.1a9fb946f3c51p-3", "0x1.d7aa7b5c3e1f3p-4", "0x1.485b7d30399acp-3"),
    "ece": ("0x1.43be7e82a6294p-3", "0x1.008b5feafc4c2p-3", "0x1.ae95cbf96bc3ep-3"),
    "log_loss": ("0x1.b6a17ca322366p-2", "0x1.7d47c50305911p-2", "0x1.ef2d22c1c4e9dp-2"),
    "mce": ("0x1.b670ae7ba7364p-2", "0x1.1649d2c1d76fap-2", "0x1.48d12b8a1d72fp-1"),
    "reliability": ("0x1.af10605f5675bp-1", "0x1.945a8d01a50f1p-1", "0x1.bfdd280540ed0p-1"),
}


@pytest.mark.parametrize("metric", sorted(BOOTSTRAP_PINS))
def test_bootstrap_intervals_are_pinned_bit_for_bit(metric):
    rng = np.random.default_rng(2024)
    probs = rng.random(200)
    labels = (rng.random(200) < probs ** 2).astype(np.int64)
    ci = bootstrap_metric_ci(probs, labels, metric=metric, draws=1000, seed=11)
    assert (ci.mean.hex(), ci.lower.hex(), ci.upper.hex()) == BOOTSTRAP_PINS[metric]


def test_bootstrap_ci_skips_undefined_draws():
    # AUC is undefined on single-class resamples; with tiny n those happen
    rng = np.random.default_rng(3)
    probs = rng.random(8)
    labels = np.array([0, 0, 0, 0, 0, 0, 0, 1])
    interval = bootstrap_metric_ci(probs, labels, metric="auc", draws=200, seed=0)
    assert np.isfinite(interval.mean)


def test_bootstrap_auc_ci_rejects_a_nan_score():
    # the NaN used to give every draw an AUC of 1.0: the interval [1.0, 1.0]
    with pytest.raises(NonFiniteScoreError, match="scores"):
        bootstrap_metric_ci([np.nan, 0.2, 0.9, 0.1], [1, 0, 1, 0], metric="auc", draws=50)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"level": 1.5}, "level must be a number in (0, 1), got 1.5"),
        ({"level": float("nan")}, "level must be a number in (0, 1), got nan"),
        ({"level": 0}, "level must be a number in (0, 1), got 0"),
        ({"level": 1.0}, "level must be a number in (0, 1), got 1.0"),
        ({"level": "0.9"}, "level must be a number in (0, 1), got '0.9'"),
        ({"draws": True}, "draws must be an integer >= 1, got True"),
        ({"draws": 2.5}, "draws must be an integer >= 1, got 2.5"),
        ({"draws": 0}, "draws must be an integer >= 1, got 0"),
        ({"bins": 0}, "bins must be an integer >= 1, got 0"),
        ({"bins": 2.5}, "bins must be an integer >= 1, got 2.5"),
        ({"bins": 0, "metric": "brier"}, "bins must be an integer >= 1, got 0"),
    ],
    ids=["level-above-1", "level-nan", "level-0", "level-1", "level-str", "draws-bool",
         "draws-float", "draws-0", "bins-0", "bins-float", "bins-0-brier"],
)
def test_bootstrap_ci_checks_arguments_before_any_draw(monkeypatch, kwargs, message):
    from calibench import metrics

    def never(*args, **kw):
        raise AssertionError("a metric was evaluated before the arguments were checked")

    for name in ("ece", "mce", "brier", "log_loss", "auc"):
        monkeypatch.setattr(metrics, name, never)
    monkeypatch.setattr(np.random, "default_rng", never)
    probs = np.array([0.2, 0.8, 0.5, 0.7])
    labels = np.array([0, 1, 0, 1])
    with pytest.raises(ValueError) as caught:
        bootstrap_metric_ci(probs, labels, **kwargs)
    assert str(caught.value) == message


def _bootstrap_cases():
    """(probs, labels, bins) on odd and even n, n = 1 included, uniform and
    on four levels (isotonic-like, so most bins of a resample are empty)."""
    for n in (1, 2, 7, 200, 911):
        rng = np.random.default_rng(n)
        uniform = rng.random(n)
        levels = rng.choice([0.05, 0.3, 0.31, 0.8], n)
        for probs in (uniform, levels):
            labels = (rng.random(n) < probs).astype(np.int64)
            for bins in (1, 10, 15):
                yield probs, labels, bins


@pytest.mark.parametrize("metric", ["ece", "mce", "reliability", "brier", "log_loss", "auc"])
@pytest.mark.parametrize("block", [25_000, 700], ids=["block-default", "block-700"])
def test_bootstrap_matches_the_per_draw_definition(monkeypatch, metric, block):
    # the 700-index block makes n = 200 and 911 run several blocks with a
    # shorter last one: 3 rows of 200 (103 draws = 34 blocks + 1 row) and
    # 1 row of 911; the default block holds all draws of the small n
    monkeypatch.setattr(harness, "_BLOCK_INDICES", block)
    draws = 103
    for case, (probs, labels, bins) in enumerate(_bootstrap_cases()):
        if metric not in ("ece", "mce", "reliability") and bins != 10:
            continue
        args = (probs, labels, metric, bins, 0.9, draws, case)
        try:
            samples, interval = per_draw_bootstrap(*args)
        except (SingleClassError, ValueError) as exc:  # undefined on the full set or every draw
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                bootstrap_metric_ci(probs, labels, metric, bins, 0.9, draws, case)
            continue
        point, got = harness._bootstrap_samples(probs, labels, metric, bins, draws, case)
        assert got.dtype == np.float64 and got.tobytes() == samples.tobytes(), (case, bins)
        assert point == interval.mean
        assert bootstrap_metric_ci(probs, labels, metric, bins, 0.9, draws, case) == interval


@pytest.mark.parametrize("n", [1, 2, 199, 200, 911, 1000])
def test_block_drawn_indices_equal_successive_per_draw_calls(n):
    blocked, single = np.random.default_rng(n), np.random.default_rng(n)
    rows = [1, 3, 100, 7]
    drawn = np.concatenate([blocked.integers(0, n, size=(k, n)) for k in rows])
    expected = np.stack([single.integers(0, n, size=n) for _ in range(sum(rows))])
    assert np.array_equal(drawn, expected)
    assert blocked.integers(0, 2**62) == single.integers(0, 2**62)  # same state after


def _traced_peak(run):
    run()  # first calls make NumPy's one-time allocations; measure a warm call
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scoring_the_readme_logreg_rows_in_blocks_keeps_a_small_memory_peak(monkeypatch):
    # tracemalloc peak of scoring the README logreg run's 150 rows (200 test
    # points each) a queue at a time, as the run scores them, on a 2-core
    # x86-64 VM (Python 3.11.7, NumPy 2.4.6): 2.72e5 bytes with the queue
    # capped at 1 << 12 points (blocks of 21 rows), 5.29e5 at 1 << 13 (41
    # rows), 1.81e6 at 1 << 16 (one block of 150 rows), 1.47e4 for one
    # row's metric_report.  The bound is the first figure rounded up to 0.1 MB.
    config = ExperimentConfig(
        source=SyntheticConfig(1000, 10, 42), model=LogregSpec(C=1.0), feature_mode="informative",
        folds=5, repeats=10, bins=10, base_seed=42,
    )
    queues = []
    score = harness._scored

    def keep(queue, config):
        queues.append({n: list(rows) for n, rows in queue.items()})
        return score(queue, config)

    monkeypatch.setattr(harness, "_scored", keep)
    run_repeated_cv(config)
    assert sum(len(rows) for queue in queues for rows in queue.values()) == 150
    peak = max(
        _traced_peak(lambda q=q: score({n: list(rows) for n, rows in q.items()}, config))
        for q in queues
    )
    assert peak <= 0.3e6, peak


def test_results_do_not_depend_on_the_scoring_queue_cap(monkeypatch):
    # one row per block, and every row in one block at the end
    config = small_config(source=SyntheticConfig(n=301, d=4, seed=7))
    tables = []
    for cap in (1, 1 << 30):
        monkeypatch.setattr(harness, "_QUEUED_POINTS", cap)
        tables.append(json.dumps(table_to_json(run_repeated_cv(config))))
    assert tables[0] == tables[1]


def test_bootstrap_block_arrays_stay_under_a_megabyte():
    # the block arrays bound the extra memory: a single (draws, n) index
    # draw would add 8 MB here and 100-row blocks about 3 MB; the per-draw
    # loop's own peak is its full-set point estimate
    rng = np.random.default_rng(5)
    probs = rng.random(1000)
    labels = (rng.random(1000) < probs).astype(np.int64)
    old = _traced_peak(lambda: per_draw_bootstrap(probs, labels, "ece", 10, 0.95, 1000, 0))
    new = _traced_peak(lambda: bootstrap_metric_ci(probs, labels, "ece", draws=1000, seed=0))
    assert new - old < 1_000_000, (old, new)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_bootstrap_ci_propagates_non_metric_errors(monkeypatch):
    # only an undefined metric skips a draw; any other error is a bug
    from calibench import metrics

    calls = []
    real_brier = metrics._brier  # the point estimate and every draw score with it

    def brier_failing_on_draws(p, y):
        calls.append(1)
        if len(calls) > 1:
            raise RuntimeError("planted failure")
        return real_brier(p, y)

    monkeypatch.setattr(metrics, "_brier", brier_failing_on_draws)
    rng = np.random.default_rng(4)
    probs = rng.random(50)
    labels = (rng.random(50) < probs).astype(np.int64)
    with pytest.raises(RuntimeError, match="planted failure"):
        bootstrap_metric_ci(probs, labels, metric="brier", draws=20, seed=0)


def test_config_json_round_trip(tmp_path):
    configs = [
        small_config(),
        small_config(model=ForestSpec(trees=25, depth=6), feature_mode=(0, 2)),
        small_config(feature_mode="informative", family_alpha=0.01),
        ExperimentConfig(
            source=CsvSource("data.csv", label_column="target"),
            model=LogregSpec(C=0.5),
            methods=("platt",),
            folds=2,
            repeats=3,
        ),
        ExperimentConfig(
            source=ScoreFileSource(
                (ScoreFilePair("a.csv", "b.csv"), ScoreFilePair("c.csv", None))
            ),
            model=ExternalSpec(),
            methods=("uncalibrated",),
            folds=2,
            repeats=1,
        ),
    ]
    for config in configs:
        payload = json.loads(json.dumps(config_to_json(config)))
        assert config_from_json(payload) == config


def test_config_from_json_names_valid_options():
    base = config_to_json(small_config())
    bad_source = {**base, "source": {"parquet": {}}}
    with pytest.raises(ValueError, match="valid: synthetic, csv, scores"):
        config_from_json(bad_source)
    bad_model = {**base, "model": {"svm": {}}}
    with pytest.raises(ValueError, match="valid: logreg, forest, external"):
        config_from_json(bad_model)


def test_results_file_round_trip(tmp_path):
    table = run_repeated_cv(small_config())
    path = tmp_path / "results.json"
    save_results(table, str(path))
    loaded = load_results(str(path))
    assert loaded.config == table.config
    # bit-exact float persistence (NaN metrics compare via their JSON form)
    assert table_to_json(loaded) == table_to_json(table)


def test_results_round_trip_preserves_nan_metrics():
    # tiny bins force degenerate HL grouping -> NaN hl fields in some runs
    table = run_repeated_cv(small_config(bins=2))
    has_nan = any(not np.isfinite(r.metrics.hl_statistic) for r in table.records)
    assert has_nan, "expected at least one undefined goodness-of-fit statistic"
    payload = json.loads(json.dumps(table_to_json(table)))
    loaded = table_from_json(payload)
    assert table_to_json(loaded) == table_to_json(table)
    restored = [r.metrics.hl_statistic for r in loaded.records]
    original = [r.metrics.hl_statistic for r in table.records]
    assert [np.isnan(v) for v in restored] == [np.isnan(v) for v in original]


def test_load_results_rejects_foreign_files(tmp_path):
    missing_records = tmp_path / "wrong.json"
    missing_records.write_text(json.dumps({"schema_version": "1"}))
    with pytest.raises(SchemaVersionMismatchError, match="'records' key is missing"):
        load_results(str(missing_records))

    table = run_repeated_cv(small_config(methods=("platt",), repeats=1))
    payload = table_to_json(table)
    payload["schema_version"] = "99"
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(payload))
    with pytest.raises(SchemaVersionMismatchError, match="schema_version '99'.*reads '1'"):
        load_results(str(stale))

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(SchemaVersionMismatchError, match="not valid JSON"):
        load_results(str(garbled))
    garbled.write_bytes(b"\xff\xfe{")  # not UTF-8
    with pytest.raises(SchemaVersionMismatchError, match="not valid JSON"):
        load_results(str(garbled))


def test_results_round_trip_encodes_infinities(tmp_path):
    # cells that repeat the same score files give identical per-cell
    # metrics, so every paired difference is constant and t is +-inf
    rng = np.random.default_rng(8)
    cal, test = tmp_path / "cal.csv", tmp_path / "test.csv"
    for path in (cal, test):
        s = rng.random(200)
        save_score_csv(ScoreSet(s, (rng.random(200) < s ** 2).astype(np.int64)), str(path))
    config = ExperimentConfig(
        source=ScoreFileSource((ScoreFilePair(str(test), str(cal)),) * 2),
        model=ExternalSpec(),
        methods=("uncalibrated", "platt"),
        folds=2,
        repeats=1,
    )
    table = run_repeated_cv(config)
    assert all(np.isinf(c.result.t_statistic) for c in table.comparisons)
    path = tmp_path / "results.json"
    save_results(table, str(path))
    text = path.read_text()
    assert '"t_statistic": "inf"' in text or '"t_statistic": "-inf"' in text
    loaded = load_results(str(path))
    assert table_to_json(loaded) == table_to_json(table)
    assert [c.result.t_statistic for c in loaded.comparisons] == [
        c.result.t_statistic for c in table.comparisons
    ]
