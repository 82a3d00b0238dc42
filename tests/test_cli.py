"""Tests for the command-line front end: every subcommand run in-process
through ``main(argv)``, plus the exit-code contract and output formats."""

import csv
import hashlib
import json

import numpy as np
import pytest

from calibench import cli
from calibench.calibrators import ScoreSet
from calibench.datasets import SyntheticConfig, load_csv, save_score_csv
from calibench.errors import NotConvergedError
from calibench.harness import ExperimentConfig, LogregSpec, run_repeated_cv, save_results


def run_cli(*argv):
    return cli.main(list(argv))


def write_score_file(path, n=200, seed=0):
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    labels = (rng.random(n) < scores).astype(np.int64)
    save_score_csv(ScoreSet(scores, labels), str(path))
    return scores, labels


# ---------------------------------------------------------------------------
# top-level behavior
# ---------------------------------------------------------------------------

def test_help_and_version_exit_zero(capsys):
    assert run_cli("--help") == 0
    assert "synth" in capsys.readouterr().out
    assert run_cli("--version") == 0
    assert "calibench" in capsys.readouterr().out


def test_no_subcommand_prints_help_and_fails(capsys):
    assert run_cli() == 1
    assert "SUBCOMMAND" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli("synth", "--frobnicate") == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_writes_loadable_csv(tmp_path, capsys):
    out = tmp_path / "data.csv"
    assert run_cli("synth", "--n", "50", "--d", "3", "--seed", "9", "--out", str(out)) == 0
    message = capsys.readouterr().out
    assert f"wrote {out}: n=50 d=3 seed=9" in message
    lines = out.read_text().splitlines()
    assert len(lines) == 51  # header + one row per sample
    assert lines[0] == "x1,x2,x3,y"
    data = load_csv(str(out))
    assert data.n == 50 and data.d == 3
    # synth output is the canonical generator output, bit for bit
    from calibench.datasets import generate_synthetic

    reference = generate_synthetic(SyntheticConfig(50, 3, 9))
    np.testing.assert_array_equal(data.features, reference.features)
    np.testing.assert_array_equal(data.labels, reference.labels)


def test_synth_reruns_are_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli("synth", "--n", "40", "--d", "4", "--out", str(first)) == 0
    assert run_cli("synth", "--n", "40", "--d", "4", "--out", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()


def test_synth_rejects_bad_dimensions_without_writing(tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert run_cli("synth", "--d", "1", "--out", str(out)) == 1
    assert "d must be an integer >= 2" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def test_benchmark_runs_default_protocol(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "source": {"synthetic": {"n": 300, "d": 3, "seed": 1}},
                "model": {"logreg": {"C": 1.0}},
            }
        )
    )
    out = tmp_path / "results.json"
    assert run_cli("benchmark", "--config", str(config_path), "--out", str(out)) == 0
    message = capsys.readouterr().out
    # defaults: 5 folds x 10 repeats x 3 methods
    assert f"wrote {out}: 150 records" in message
    assert "logreg uncalibrated: ece" in message
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == "1"
    assert len(payload["records"]) == 150


def test_benchmark_reruns_are_byte_identical(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "source": {"synthetic": {"n": 200, "d": 3, "seed": 2}},
                "model": {"logreg": {}},
                "methods": ["uncalibrated", "platt"],
                "folds": 2,
                "repeats": 2,
            }
        )
    )
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run_cli("benchmark", "--config", str(config_path), "--out", str(first)) == 0
    assert run_cli("benchmark", "--config", str(config_path), "--out", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()


def test_benchmark_rejects_bad_configs(tmp_path, capsys):
    out = tmp_path / "results.json"

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run_cli("benchmark", "--config", str(garbled), "--out", str(out)) == 1
    assert "not valid JSON" in capsys.readouterr().err

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"model": "\xe9"}')
    assert run_cli("benchmark", "--config", str(latin1), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"error: {latin1}: not valid JSON")

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"model": {"logreg": {}}}))
    assert run_cli("benchmark", "--config", str(incomplete), "--out", str(out)) == 1
    assert "missing key" in capsys.readouterr().err

    unknown_model = tmp_path / "unknown_model.json"
    unknown_model.write_text(
        json.dumps(
            {
                "source": {"synthetic": {"n": 100, "d": 3, "seed": 0}},
                "model": {"svm": {}},
            }
        )
    )
    assert run_cli("benchmark", "--config", str(unknown_model), "--out", str(out)) == 1
    assert "valid: logreg, forest, external" in capsys.readouterr().err
    assert not out.exists()


SMALL_CONFIG = {
    "source": {"synthetic": {"n": 100, "d": 3, "seed": 0}},
    "model": {"logreg": {}},
    "folds": 2,
    "repeats": 1,
}


@pytest.mark.parametrize(
    "payload, message",
    [
        ({**SMALL_CONFIG, "repeat": 2}, "unknown config key 'repeat'"),
        ({**SMALL_CONFIG, "model": {"logreg": {"c": 5}}}, "unknown model.logreg key 'c'"),
        ({**SMALL_CONFIG, "folds": 2.9}, "folds must be an integer >= 2, got 2.9"),
        ({**SMALL_CONFIG, "repeats": True}, "repeats must be an integer >= 1, got True"),
        ([SMALL_CONFIG], "config must be a JSON object"),
        ({**SMALL_CONFIG, "methods": "platt"}, "methods must be a list, got 'platt'"),
        (
            {**SMALL_CONFIG, "model": {"forest": {"trees": 0}}},
            "config.json: model.forest.trees must be an integer >= 1, got 0",
        ),
        (
            {**SMALL_CONFIG, "model": {"forest": {"depth": -1}}},
            "config.json: model.forest.depth must be an integer >= 1, got -1",
        ),
        # these were reported as data errors (exit 2) once the data was built
        (
            {**SMALL_CONFIG, "feature_mode": []},
            "feature_mode indices must be distinct integers >= 0, at least one, got ()",
        ),
        (
            {**SMALL_CONFIG, "feature_mode": [-1, 0]},
            "feature_mode indices must be distinct integers >= 0, at least one, got (-1, 0)",
        ),
    ],
    ids=[
        "unknown-key", "unknown-model-key", "float-count", "bool-count", "array",
        "string-methods", "zero-trees", "negative-depth", "no-features", "negative-feature",
    ],
)
def test_benchmark_rejects_malformed_config_values(tmp_path, capsys, payload, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(payload))
    out = tmp_path / "results.json"
    assert run_cli("benchmark", "--config", str(config_path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_benchmark_feature_index_beyond_the_data_is_a_data_error(tmp_path, capsys):
    # the config cannot know the data's width, so the run finds it
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**SMALL_CONFIG, "feature_mode": [0, 3]}))
    out = tmp_path / "results.json"
    assert run_cli("benchmark", "--config", str(config_path), "--out", str(out)) == 2
    assert "indices must lie in [0, 3), got 0..3" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_completes_at_a_platt_fixed_point(tmp_path, capsys):
    # the README logreg config at base_seed 4: on one calibration split the
    # Newton iteration reaches gradient norm 1.3e-8 (> tol 1e-8) where no
    # representable step lowers the objective; the fit stops there
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "source": {"synthetic": {"n": 1000, "d": 10, "seed": 42}},
                "model": {"logreg": {"C": 1.0}},
                "methods": ["uncalibrated", "platt", "isotonic"],
                "feature_mode": "informative",
                "folds": 5,
                "repeats": 10,
                "bins": 10,
                "base_seed": 4,
            }
        )
    )
    out = tmp_path / "results.json"
    assert run_cli("benchmark", "--config", str(config_path), "--out", str(out)) == 0
    assert f"wrote {out}: 150 records" in capsys.readouterr().out


def test_benchmark_completes_at_a_logistic_fixed_point(tmp_path, capsys):
    # in cell 1/1 the logistic fit's gradient norm sticks at 2.356e-7
    # (> tol 1e-8) from iteration 5 on; the fit stops there
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "source": {"synthetic": {"n": 300, "d": 4, "seed": 1}},
                "model": {"logreg": {"C": 1.0}},
                "feature_mode": "informative",
                "folds": 3,
                "repeats": 2,
            }
        )
    )
    out = tmp_path / "results.json"
    assert run_cli("benchmark", "--config", str(config_path), "--out", str(out)) == 0
    assert f"wrote {out}: 18 records" in capsys.readouterr().out


def test_benchmark_and_compare_write_infinite_statistics(tmp_path, capsys):
    # cells that repeat the same score files make every paired difference
    # constant, so the t statistics are infinite
    write_score_file(tmp_path / "cal.csv", seed=1)
    write_score_file(tmp_path / "test.csv", seed=2)
    entry = {"cal": str(tmp_path / "cal.csv"), "test": str(tmp_path / "test.csv")}
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "source": {"scores": {"entries": [entry, entry]}},
                "model": {"external": {}},
                "methods": ["uncalibrated", "isotonic"],
                "folds": 2,
                "repeats": 1,
            }
        )
    )
    results = tmp_path / "results.json"
    assert run_cli("benchmark", "--config", str(config_path), "--out", str(results)) == 0
    comparison = tmp_path / "comparison.json"
    assert run_cli("compare", "--results", str(results), "--out", str(comparison)) == 0
    for path in (results, comparison):
        rows = json.loads(path.read_text())["comparisons"]
        assert rows and all(row["t_statistic"] in ("inf", "-inf") for row in rows)


def test_benchmark_data_error_names_the_bad_score_file(tmp_path, capsys):
    write_score_file(tmp_path / "cal.csv", seed=1)
    write_score_file(tmp_path / "test.csv", seed=2)
    bad = tmp_path / "bad_cal.csv"
    bad.write_text("score,y\n0.25,0\n0.75,2\n")
    entries = [
        {"cal": str(tmp_path / "cal.csv"), "test": str(tmp_path / "test.csv")},
        {"cal": str(bad), "test": str(tmp_path / "test.csv")},
    ]
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "source": {"scores": {"entries": entries}},
                "model": {"external": {}},
                "methods": ["uncalibrated", "isotonic"],
                "folds": 2,
                "repeats": 1,
            }
        )
    )
    out = tmp_path / "results.json"
    assert run_cli("benchmark", "--config", str(config_path), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"data error: {bad}: row 2: label '2' is not 0 or 1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "first_test, message",
    [
        ("score,y\n0.25,0\n0.75,0\n0.5,0\n", "labels: AUC needs at least one positive and one negative label"),
        ("score,y\n0.25,0\n1.5,1\n0.5,0\n", "second.csv: row 2, column 'score': 'high' is not a number"),
    ],
    ids=["single-class", "out-of-range"],
)
def test_benchmark_reports_errors_in_the_order_of_the_cells(tmp_path, capsys, first_test, message):
    # each cell's probabilities are checked when its row is queued, so a
    # single-class test file in entry 0 fails before entry 1's unreadable
    # test file is parsed; scores outside [0, 1] are no error, since the
    # identity map clamps them, so that run reaches entry 1
    write_score_file(tmp_path / "cal.csv", seed=1)
    (tmp_path / "first.csv").write_text(first_test)
    (tmp_path / "second.csv").write_text("score,y\n0.25,0\nhigh,1\n")
    entries = [
        {"cal": str(tmp_path / "cal.csv"), "test": str(tmp_path / name)}
        for name in ("first.csv", "second.csv")
    ]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "source": {"scores": {"entries": entries}},
        "model": {"external": {}},
        "methods": ["uncalibrated", "platt"],
        "folds": 2,
        "repeats": 1,
    }))
    out = tmp_path / "results.json"
    assert run_cli("benchmark", "--config", str(config_path), "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_missing_config_file_is_data_error(tmp_path, capsys):
    out = tmp_path / "results.json"
    assert run_cli("benchmark", "--config", str(tmp_path / "absent.json"), "--out", str(out)) == 2
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

@pytest.fixture()
def results_file(tmp_path):
    config = ExperimentConfig(
        source=SyntheticConfig(n=300, d=3, seed=4),
        model=LogregSpec(),
        methods=("uncalibrated", "platt", "isotonic"),
        folds=3,
        repeats=2,
        base_seed=5,
    )
    path = tmp_path / "results.json"
    save_results(run_repeated_cv(config), str(path))
    return path


def test_compare_prints_all_pairs(results_file, capsys, tmp_path):
    out = tmp_path / "comparison.json"
    assert run_cli(
        "compare", "--results", str(results_file),
        "--metric", "brier", "--out", str(out),
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("metric: brier  pairs: 3  bonferroni threshold:")
    pair_lines = [line for line in lines if " vs " in line]
    assert len(pair_lines) == 3
    assert any("uncalibrated vs platt" in line for line in pair_lines)
    for line in pair_lines:
        assert "t=" in line and "p=" in line and "d=" in line
    payload = json.loads(out.read_text())
    assert payload["metric"] == "brier"
    assert payload["bonferroni_threshold"] == pytest.approx(0.05 / 3)
    assert len(payload["comparisons"]) == 3
    for row in payload["comparisons"]:
        assert row["significant_at_corrected_alpha"] == (
            row["p_value"] < payload["bonferroni_threshold"]
        )


def test_compare_threshold_is_the_bonferroni_threshold(results_file, capsys, tmp_path):
    from calibench.stats import bonferroni

    out = tmp_path / "comparison.json"
    assert run_cli(
        "compare", "--results", str(results_file), "--alpha", "0.2", "--out", str(out)
    ) == 0
    payload = json.loads(out.read_text())
    threshold, decisions = bonferroni([r["p_value"] for r in payload["comparisons"]], 0.2)
    assert payload["bonferroni_threshold"] == threshold
    assert f"bonferroni threshold: {threshold:.6g}" in capsys.readouterr().out
    assert [r["significant_at_corrected_alpha"] for r in payload["comparisons"]] == list(decisions)


def test_compare_marks_significance_with_stars(results_file, capsys):
    assert run_cli("compare", "--results", str(results_file), "--metric", "ece") == 0
    output = capsys.readouterr().out
    # calibrated-vs-uncalibrated gaps on this dataset are decisive
    assert "***" in output


def test_compare_rejects_unknown_metric(results_file, capsys):
    assert run_cli("compare", "--results", str(results_file), "--metric", "accuracy") == 1
    assert "unknown metric 'accuracy'" in capsys.readouterr().err


@pytest.mark.parametrize("metric", ["hl_statistic", "hl_p_value"])
def test_compare_on_undefined_metric_values_is_data_error(results_file, capsys, metric):
    # isotonic's Hosmer-Lemeshow fields are NaN (null) in every record here
    assert run_cli("compare", "--results", str(results_file), "--metric", metric) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert f"method 'isotonic' has an undefined {metric!r}" in err


def test_compare_rejects_bad_alpha_before_reading(tmp_path, capsys):
    absent = tmp_path / "absent.json"
    assert run_cli("compare", "--results", str(absent), "--alpha", "1.5") == 1
    assert "--alpha must be a number in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p["records"][0]["metrics"].pop("ece"), "records[0].metrics: missing key 'ece'"),
        (lambda p: p["config"].pop("source"), "config: missing key 'source'"),
        (lambda p: p["config"].update(folds=2.5), "config.folds must be an integer >= 2, got 2.5"),
        (
            lambda p: p["config"].update(model={"forest": {"trees": 0}}),
            "config.model.forest.trees must be an integer >= 1, got 0",
        ),
        (lambda p: p["records"][0].update(repeat="x"), "records[0].repeat must be an integer, got 'x'"),
        (lambda p: p["records"][0].update(repeat=1.5), "records[0].repeat must be an integer, got 1.5"),
        (lambda p: p.update(records=[1]), "records[0] must be a JSON object, got 1"),
        (lambda p: p["aggregates"][0].update(mean="abc"), "aggregates[0].mean must be a number"),
        (lambda p: p["records"][0]["metrics"].update(ece=[1]), "records[0].metrics.ece must be a number"),
        (lambda p: p["comparisons"][0].update(extra=1), "unknown comparisons[0] key 'extra'"),
        (
            lambda p: p["records"][0]["metrics"].update(ece=10**400),
            "records[0].metrics.ece holds a number out of range",
        ),
    ],
    ids=[
        "missing-metric", "missing-source", "fractional-folds", "zero-trees", "string-repeat",
        "fractional-repeat", "record-not-object", "string-mean", "list-metric", "unknown-key",
        "huge-metric",
    ],
)
def test_compare_rejects_a_malformed_results_file(results_file, capsys, edit, message):
    payload = json.loads(results_file.read_text())
    edit(payload)
    results_file.write_text(json.dumps(payload))
    assert run_cli("compare", "--results", str(results_file)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert message in err


def test_compare_rejects_foreign_results_file(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"hello": 1}))
    assert run_cli("compare", "--results", str(bogus)) == 2
    assert "data error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reliability
# ---------------------------------------------------------------------------

def test_reliability_writes_documented_header_and_rows(tmp_path, capsys):
    scores_path = tmp_path / "scores.csv"
    write_score_file(scores_path, n=150, seed=7)
    out = tmp_path / "bins.csv"
    assert run_cli("reliability", "--scores", str(scores_path), "--bins", "10", "--out", str(out)) == 0
    assert f"wrote {out}: 10 bins over 150 scores" in capsys.readouterr().out
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["bin_lo", "bin_hi", "count", "confidence", "accuracy"]
    assert len(rows) == 11  # header + one row per bin
    counts = [int(row[2]) for row in rows[1:]]
    assert sum(counts) == 150
    edges = [float(row[0]) for row in rows[1:]] + [float(rows[-1][1])]
    np.testing.assert_allclose(edges, np.arange(11) / 10.0)
    for row in rows[1:]:
        lo, hi, count = float(row[0]), float(row[1]), int(row[2])
        if count:
            assert lo <= float(row[3]) <= hi or (hi == 1.0 and float(row[3]) <= 1.0)
            assert 0.0 <= float(row[4]) <= 1.0


def test_reliability_leaves_empty_bins_blank(tmp_path):
    scores_path = tmp_path / "scores.csv"
    # all scores in [0.4, 0.6): bins outside stay empty
    scores = np.linspace(0.4, 0.59, 20)
    labels = np.tile([0, 1], 10)
    save_score_csv(ScoreSet(scores, labels), str(scores_path))
    out = tmp_path / "bins.csv"
    assert run_cli("reliability", "--scores", str(scores_path), "--bins", "5", "--out", str(out)) == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert [int(row[2]) for row in rows] == [0, 0, 20, 0, 0]
    for row in rows:
        if int(row[2]) == 0:
            assert row[3] == "" and row[4] == ""
        else:
            assert row[3] != "" and row[4] != ""


def test_reliability_rejects_bad_bins_without_writing(tmp_path, capsys):
    scores_path = tmp_path / "scores.csv"
    write_score_file(scores_path, n=20)
    out = tmp_path / "never.csv"
    assert run_cli("reliability", "--scores", str(scores_path), "--bins", "0", "--out", str(out)) == 1
    assert "--bins must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_reliability_missing_scores_file_is_data_error(tmp_path, capsys):
    assert run_cli(
        "reliability", "--scores", str(tmp_path / "absent.csv"),
        "--out", str(tmp_path / "never.csv"),
    ) == 2
    assert "data error" in capsys.readouterr().err


def test_reliability_cell_past_the_csv_field_limit_is_data_error(tmp_path, capsys):
    scores_path = tmp_path / "scores.csv"
    scores_path.write_text("score,y\n0.5,1\n" + " " * 200_000 + "0.25,0\n")
    out = tmp_path / "never.csv"
    assert run_cli("reliability", "--scores", str(scores_path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {scores_path}: row 2: field larger than field limit")
    assert err.count("\n") == 1
    assert not out.exists()


def test_reliability_score_file_not_utf8_is_data_error(tmp_path, capsys):
    scores_path = tmp_path / "scores.csv"
    scores_path.write_bytes(b"score,y\n0.5,1\n\xff\xfe,0\n")
    out = tmp_path / "never.csv"
    assert run_cli("reliability", "--scores", str(scores_path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {scores_path}: 'utf-8' codec can't decode byte 0xff")
    assert not out.exists()


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

def test_convergence_writes_study_json(tmp_path, capsys):
    out = tmp_path / "study.json"
    assert run_cli(
        "convergence",
        "--sizes", "50,200,1000,5000",
        "--trials", "10",
        "--seed", "3",
        "--out", str(out),
    ) == 0
    assert "slope" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["g_star"] == "identity"
    assert payload["sizes"] == [50, 200, 1000, 5000]
    assert payload["trials"] == 10 and payload["seed"] == 3
    assert len(payload["mean_errors"]) == 4
    assert len(payload["trial_errors"]) == 4
    assert all(len(row) == 10 for row in payload["trial_errors"])
    assert payload["slope"] < 0  # isotonic error shrinks with n
    means = np.array(payload["trial_errors"]).mean(axis=1)
    np.testing.assert_allclose(payload["mean_errors"], means)


def test_convergence_constant_truth(tmp_path):
    out = tmp_path / "study.json"
    assert run_cli(
        "convergence",
        "--sizes", "50,200,1000,5000",
        "--trials", "10",
        "--g-star", "constant:0.3",
        "--out", str(out),
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["g_star"] == "constant:0.3"
    assert payload["slope"] < 0


def test_convergence_usage_errors_leave_no_output(tmp_path, capsys):
    out = tmp_path / "never.json"
    cases = [
        (["--sizes", "ten,100"], "comma-separated integers"),
        (["--sizes", "10,100,1000"], ">= 4 sample sizes"),
        (["--trials", "5"], "--trials must be >= 10"),
        (["--seed", "-1"], "--seed must be >= 0"),
        (["--g-star", "wiggly"], "unknown --g-star"),
        (["--g-star", "constant:1.5"], "must be a number in [0, 1]"),
        (["--g-star", "constant:x"], "bad constant level"),
    ]
    for extra, needle in cases:
        code = run_cli("convergence", "--out", str(out), *extra)
        err = capsys.readouterr().err
        assert code == 1, extra
        assert needle in err, (extra, err)
        assert not out.exists(), extra


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_pipeline_reports_selection_and_writes_map(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    assert run_cli("synth", "--n", "1000", "--d", "10", "--seed", "42", "--out", str(data_path)) == 0
    capsys.readouterr()
    map_path = tmp_path / "map.json"
    assert run_cli(
        "pipeline", "--data", str(data_path),
        "--model", "logreg", "--seed", "0",
        "--map-out", str(map_path),
    ) == 0
    output = capsys.readouterr().out
    # 1000 samples -> 200-sample calibration split -> the small-sample rule
    assert "selection: platt: cal size 200 < 500" in output
    assert "chosen method: platt" in output
    assert "test ece:" in output and "test brier:" in output
    assert "bootstrap ci: [" in output
    payload = json.loads(map_path.read_text())
    assert set(payload) == {"platt"}
    assert set(payload["platt"]) == {"A", "B"}
    from calibench.calibrators import apply_map, map_from_json

    restored = map_from_json(payload)
    probs = apply_map(restored, np.array([0.1, 0.5, 0.9]))
    assert np.all((probs >= 0.0) & (probs <= 1.0))


def _write_gaussian_logit(path, seed, coefficient, n=5000):
    """x ~ N(0, I_2), y ~ Bernoulli(sigmoid(coefficient * x1)); x2 is noise."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-coefficient * x[:, 0]))).astype(np.int64)
    with open(path, "w") as handle:
        handle.write("x1,x2,y\n")
        handle.writelines(",".join(map(repr, row)) + f",{label}\n"
                          for row, label in zip(x.tolist(), y.tolist()))


# one dataset per selection rule: (data maker, pipeline flags, stdout before
# the "wrote" line, map sha256); recorded before the bootstrap was drawn in
# blocks, and unchanged by it
PIPELINE_RUNS = {
    "cal_size": (
        ["synth", "--n", "1000", "--d", "10", "--seed", "42"],
        ["--model", "logreg", "--seed", "0"],
        "selection: platt: cal size 200 < 500\n"
        "chosen method: platt\n"
        "test ece: 0.0302546\n"
        "test brier: 0.0259492\n"
        "test ece 95% bootstrap ci: [0.0275309, 0.0593034]\n",
        "cdbe0e1ae2f94b07610198c4f2f2258fe45685079cd3fd815256cc64e43e3677",
    ),
    "shapiro_wilk": (
        (1, 4.0),
        ["--seed", "0"],
        "selection: isotonic: shapiro-wilk p=0 < 0.05\n"
        "chosen method: isotonic\n"
        "test ece: 0.0306765\n"
        "test brier: 0.091935\n"
        "test ece 95% bootstrap ci: [0.0190224, 0.0511297]\n",
        "87a9ca4e6aba44b46c452a14ffc2752c021657356cf17058858ef06e62907712",
    ),
    "cv": (
        (4, 0.2),
        ["--seed", "0"],
        "selection: cv: mean ece platt=0.06747 isotonic=0.06728 -> isotonic\n"
        "chosen method: isotonic\n"
        "test ece: 0.0236678\n"
        "test brier: 0.24716\n"
        "test ece 95% bootstrap ci: [0.0158466, 0.0582904]\n",
        "140d5275b0f63ee18c70f309f9a7eeb4afbb3e94fa8f7c4975fba59bcb1eb772",
    ),
    "shapiro_wilk_forest": (
        ["synth", "--n", "5000", "--d", "10", "--seed", "3"],
        ["--model", "forest", "--trees", "20", "--depth", "6", "--seed", "0"],
        "selection: isotonic: shapiro-wilk p=0 < 0.05\n"
        "chosen method: isotonic\n"
        "test ece: 0.0078531\n"
        "test brier: 0.0223532\n"
        "test ece 95% bootstrap ci: [0.006133, 0.0190289]\n",
        "3e0fc539fb4fa552ac090d6791bd522e85587797df327c82540fca2259e7e14f",
    ),
}


@pytest.mark.parametrize("rule", list(PIPELINE_RUNS))
def test_pipeline_stdout_and_map_are_pinned(tmp_path, capsys, rule):
    maker, flags, expected, map_sha256 = PIPELINE_RUNS[rule]
    data_path = tmp_path / "data.csv"
    if maker[0] == "synth":
        assert run_cli(*maker, "--out", str(data_path)) == 0
    else:
        _write_gaussian_logit(data_path, *maker)
    capsys.readouterr()
    map_path = tmp_path / "map.json"
    assert run_cli("pipeline", "--data", str(data_path), *flags, "--map-out", str(map_path)) == 0
    assert capsys.readouterr().out == expected + f"wrote {map_path}\n"
    assert hashlib.sha256(map_path.read_bytes()).hexdigest() == map_sha256


def test_readme_logreg_benchmark_results_are_pinned(tmp_path):
    # the README logreg config; the sha256 of its results file is the
    # byte-identity gate for refactors of the fits and the harness
    config_path = tmp_path / "experiment.json"
    config_path.write_text(json.dumps({
        "source": {"synthetic": {"n": 1000, "d": 10, "seed": 42}},
        "model": {"logreg": {"C": 1.0}},
        "methods": ["uncalibrated", "platt", "isotonic"],
        "feature_mode": "informative",
        "folds": 5,
        "repeats": 10,
        "bins": 10,
        "base_seed": 42,
    }))
    out = tmp_path / "results.json"
    assert run_cli("benchmark", "--config", str(config_path), "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "7c87008a45988e8fabeb18406962fd2ba6e701f889874a1fc76fee1ea84a88c7"
    )
    # the paired comparisons of those results: their p-values come from t_cdf
    comparison = tmp_path / "comparison.json"
    assert run_cli(
        "compare", "--results", str(out), "--metric", "ece", "--out", str(comparison)
    ) == 0
    assert hashlib.sha256(comparison.read_bytes()).hexdigest() == (
        "132e808f1eb51cedf23103aab55900060be148e470bb89948ce3db879bf5dfcf"
    )


def test_convergence_study_output_is_pinned(tmp_path):
    out = tmp_path / "study.json"
    assert run_cli(
        "convergence", "--sizes", "50,100,1000,5000", "--trials", "10", "--seed", "3",
        "--out", str(out),
    ) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "21e3d9095696858f8b341c4b852d5cb07f47470a108a72d6b29c0dd83a0194d0"
    )


def test_pipeline_rejects_unknown_model(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    assert run_cli("synth", "--n", "100", "--d", "3", "--out", str(data_path)) == 0
    map_path = tmp_path / "never.json"
    assert run_cli(
        "pipeline", "--data", str(data_path), "--model", "svm", "--map-out", str(map_path)
    ) == 1
    assert "unknown model 'svm'; valid: logreg, forest" in capsys.readouterr().err
    assert not map_path.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--model", "forest", "--trees", "0"], "trees must be an integer >= 1, got 0"),
        (["--model", "forest", "--depth", "-1"], "depth must be an integer >= 1, got -1"),
        (["--C", "0"], "C must be a finite number > 0, got 0.0"),
    ],
    ids=["zero-trees", "negative-depth", "zero-C"],
)
def test_pipeline_rejects_bad_model_flags_before_reading_data(tmp_path, capsys, flags, message):
    map_path = tmp_path / "never.json"
    argv = ["pipeline", "--data", str(tmp_path / "missing.csv"), "--map-out", str(map_path)]
    assert run_cli(*argv, *flags) == 1
    assert message in capsys.readouterr().err
    assert not map_path.exists()


def test_pipeline_missing_data_file_is_data_error(tmp_path, capsys):
    assert run_cli("pipeline", "--data", str(tmp_path / "absent.csv")) == 2
    assert "data error" in capsys.readouterr().err


def test_pipeline_malformed_data_file_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,y\n0.5,2\n")
    assert run_cli("pipeline", "--data", str(bad)) == 2
    assert "data error" in capsys.readouterr().err


def test_numerical_failure_maps_to_exit_three(tmp_path, capsys, monkeypatch):
    data_path = tmp_path / "data.csv"
    assert run_cli("synth", "--n", "100", "--d", "3", "--out", str(data_path)) == 0

    def explode(*args, **kwargs):
        raise NotConvergedError("optimizer stalled after 100 iterations")

    monkeypatch.setattr(cli, "run_enhanced_calibration", explode)
    assert run_cli("pipeline", "--data", str(data_path)) == 3
    assert "numerical failure" in capsys.readouterr().err
