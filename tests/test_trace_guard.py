"""Guard for the benchmark's per-layer split: ``perfbench/tracing.py``
times the library by wrapping public functions on their module attributes,
so a layer goes blind if the library calls a function object it stored
before the wrapper was set.  This runs one small benchmark and one pipeline
under the tracer and requires every calibration, model and metric layer
they enter to be seen."""

import json
from pathlib import Path

import pytest

from calibench import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_tracer_sees_every_fit_map_and_report(tmp_path, tracing):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "source": {"synthetic": {"n": 200, "d": 3, "seed": 0}},
        "model": {"logreg": {}},
        "folds": 2,
        "repeats": 1,
    }))
    data = tmp_path / "data.csv"
    assert cli.main(["synth", "--n", "300", "--d", "3", "--seed", "1", "--out", str(data)]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        argvs = [
            ["benchmark", "--config", str(config), "--out", str(tmp_path / "results.json")],
            ["pipeline", "--data", str(data), "--map-out", str(tmp_path / "map.json")],
        ]
        for unit, argv in enumerate(argvs):
            assert tracer.run_unit(unit, cli.main, argv) == 0
    finally:
        tracer.uninstall()
    layers = tracer.per_layer()
    for metric in (
        "calibrators.platt_ms",
        "calibrators.isotonic_ms",
        "calibrators.apply_ms",
        "models.fit_calls",
        "metrics.report_calls",
        "metrics.ece_calls",
    ):
        assert layers[metric] > 0, metric
