"""Self-tests of the benchmark's checks: each must pass a real output and
reject the same output with one planted fault.

    python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import json

import numpy as np
import pytest

import checks
import run
import workloads

cli = run.import_cli()


def _main(argv):
    code = cli.main([str(a) for a in argv])
    assert code == 0
    return code


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("results")
    config = workloads.CvLogreg(0, str(tmp), str(tmp)).config(0)
    config["repeats"] = 2
    (tmp / "config.json").write_text(json.dumps(config))
    _main(["benchmark", "--config", tmp / "config.json", "--out", tmp / "results.json"])
    return json.loads((tmp / "results.json").read_text())


def _pipeline(tmp, kind, variant, capsys):
    kinds = workloads.SelectPipeline.KINDS
    x, y = kinds[kind][1](np.random.default_rng([variant, list(kinds).index(kind)]))
    workloads.write_dataset_csv(tmp / f"{kind}.csv", x, y)
    capsys.readouterr()
    _main(["pipeline", "--data", tmp / f"{kind}.csv", "--seed", variant, "--map-out", tmp / "map.json"])
    return capsys.readouterr().out, json.loads((tmp / "map.json").read_text())


def test_results_pass_unaltered(results):
    checks.check_results(results, n_rows=1000)
    checks.check_logreg_directions(results)


def test_altered_record_ece_is_rejected(results):
    bad = copy.deepcopy(results)
    bad["records"][7]["metrics"]["ece"] += 1e-3
    with pytest.raises(checks.CheckFailed):
        checks.check_results(bad, n_rows=1000)


def test_aggregate_mean_off_by_1e6_is_rejected(results):
    bad = copy.deepcopy(results)
    row = next(r for r in bad["aggregates"] if r["metric"] == "ece")
    row["mean"] += 1e-6
    with pytest.raises(checks.CheckFailed, match="mean"):
        checks.check_results(bad, n_rows=1000)


def test_wrong_p_value_is_rejected(results):
    bad = copy.deepcopy(results)
    row = max(bad["comparisons"], key=lambda r: r["p_value"])
    row["p_value"] *= 1.001
    with pytest.raises(checks.CheckFailed, match="p "):
        checks.check_results(bad, n_rows=1000)


def test_decreasing_isotonic_map_is_rejected(tmp_path, capsys):
    stdout, payload = _pipeline(tmp_path, "steep", 0, capsys)
    checks.check_pipeline(stdout, payload, {"shapiro_wilk"})
    values = payload["isotonic"]["values"]
    k = next(i for i in range(1, len(values)) if values[i] > values[i - 1])
    values[k] = values[k - 1] - 1e-3
    with pytest.raises(checks.CheckFailed, match="decrease"):
        checks.check_pipeline(stdout, payload, {"shapiro_wilk"})


def test_cv_trace_naming_the_wrong_method_is_rejected(tmp_path, capsys):
    stdout, payload = _pipeline(tmp_path, "weak", 0, capsys)
    assert "selection: cv:" in stdout
    checks.check_pipeline(stdout, payload, {"cv"})
    named = stdout.split(" -> ")[1].split()[0]
    other = "isotonic" if named == "platt" else "platt"
    with pytest.raises(checks.CheckFailed):
        checks.check_pipeline(stdout.replace(f"-> {named}", f"-> {other}"), payload, {"cv"})


@pytest.fixture(scope="module")
def stall(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("stall")
    workload = workloads.CvLogreg(0, str(tmp), str(tmp))
    workload.write_inputs(workload.stall_seed)
    (unit,) = workload.units(workload.stall_seed, str(tmp / "out"))
    outcome = run.run_unit(cli.main, unit)
    assert unit.may_stall and outcome.code == 3
    return outcome


def test_stall_of_the_kept_unit_passes(stall):
    checks.check_failure(stall.code, stall.stderr, may_stall=True)


def test_stall_of_a_pool_unit_is_rejected(stall):
    with pytest.raises(checks.CheckFailed, match="should complete"):
        checks.check_failure(stall.code, stall.stderr, may_stall=False)


def _planted_traceback(argv):
    raise RuntimeError("planted fault")


@pytest.mark.parametrize("main", [_planted_traceback, cli.main],
                         ids=["traceback", "missing-config"])
def test_other_failure_of_the_kept_unit_is_rejected(tmp_path, main):
    unit = workloads.Unit(("benchmark", "--config", str(tmp_path / "missing.json")), "", 0, may_stall=True)
    outcome = run.run_unit(main, unit)
    assert outcome.code != 0
    with pytest.raises(checks.CheckFailed, match="otherwise"):
        checks.check_failure(outcome.code, outcome.stderr, may_stall=True)


def test_reference_metrics_match_closed_forms():
    scores = np.array([0.05, 0.15, 0.15, 0.95])
    labels = np.array([0, 1, 0, 1])
    ref = checks.reference_metrics(scores, labels)
    # bins: {0.05} acc 0, {0.15, 0.15} acc 0.5, {0.95} acc 1
    assert ref["ece"] == pytest.approx((0.05 + 2 * 0.35 + 0.05) / 4)
    assert ref["brier"] == pytest.approx((0.05**2 + 0.85**2 + 0.15**2 + 0.05**2) / 4)
    # positives 0.15 and 0.95 against negatives 0.05 and 0.15 (one tie)
    assert ref["auc"] == pytest.approx(3.5 / 4)


def test_expected_cal_size_of_balanced_classes():
    assert checks.expected_cal_size(np.array([0] * 500 + [1] * 500)) == 200
