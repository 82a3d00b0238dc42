"""Mutation fuzzing of the four JSON readers.

Each reader gets a valid config, results, calibration-map or model body
with one mutation: a key dropped, a key added, a value swapped for one of
another JSON type, or a fractional number where an integer belongs.  It
must either load the body or raise its documented error with a one-line
message; no other exception may escape.  ``calibench compare`` on a mutated
results file must exit 0 or 2.
"""

import contextlib
import copy
import functools
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from calibench import cli
from calibench.calibrators import PlattMap, ScoreSet, fit_isotonic, map_from_json, map_to_json
from calibench.datasets import SyntheticConfig, generate_synthetic
from calibench.errors import MalformedModelError, SchemaVersionMismatchError
from calibench.harness import (
    ExperimentConfig,
    ForestSpec,
    LogregSpec,
    config_from_json,
    config_to_json,
    run_repeated_cv,
    table_from_json,
    table_to_json,
)
from calibench.models import fit_forest, fit_logistic, model_from_json, model_to_json

# reader -> the error it documents for a malformed body
READERS = {
    "config": (config_from_json, (ValueError, KeyError)),
    "results": (table_from_json, SchemaVersionMismatchError),
    "map": (map_from_json, ValueError),
    "model": (model_from_json, MalformedModelError),
}

# one value of each JSON type; an integer and a fraction count as two types
SAMPLES = (None, True, 7, 0.25, "x", [1], {"k": 1})


@functools.cache
def _bodies():
    data = generate_synthetic(SyntheticConfig(n=120, d=3, seed=5))
    results = run_repeated_cv(ExperimentConfig(
        source=SyntheticConfig(n=120, d=3, seed=5),
        model=LogregSpec(),
        methods=("uncalibrated", "platt"),
        folds=2,
        repeats=1,
    ))
    scores = ScoreSet([0.1, 0.3, 0.5, 0.7, 0.9], [0, 1, 0, 1, 1])
    return {
        "config": [
            config_to_json(results.config),
            config_to_json(ExperimentConfig(
                source=SyntheticConfig(n=100, d=3, seed=0),
                model=ForestSpec(trees=5, depth=3),
                feature_mode=(0, 2),
            )),
        ],
        "results": [table_to_json(results)],
        "map": [map_to_json(PlattMap(A=1.5, B=-0.5)), map_to_json(fit_isotonic(scores))],
        "model": [model_to_json(fit_logistic(data)), model_to_json(fit_forest(data, 2, 2, seed=1))],
    }


def _paths(value, path=()):
    """The path (a tuple of keys and indices) of every value in ``value``."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, path + (key,))


def _at(body, path):
    for key in path:
        body = body[key]
    return body


def _json_type(value):
    return "null" if value is None else type(value).__name__


@st.composite
def mutated(draw):
    kind = draw(st.sampled_from(sorted(READERS)))
    body = copy.deepcopy(draw(st.sampled_from(_bodies()[kind])))
    paths = list(_paths(body))
    dicts = [p for p in paths if isinstance(_at(body, p), dict)]
    keyed = [p for p in paths if p and isinstance(_at(body, p[:-1]), dict)]
    ints = [p for p in paths if _json_type(_at(body, p)) == "int"]
    mutations = ["add", "swap"] + ["drop"] * bool(keyed) + ["fraction"] * bool(ints)
    mutation = draw(st.sampled_from(mutations))
    if mutation == "add":
        _at(body, draw(st.sampled_from(dicts)))["unexpected"] = 1
        return kind, body
    path = draw(st.sampled_from(keyed if mutation == "drop" else ints if mutation == "fraction" else paths))
    if mutation == "drop":
        del _at(body, path[:-1])[path[-1]]
        return kind, body
    old = _at(body, path)
    if mutation == "fraction":
        new = old + 0.5
    else:
        new = draw(st.sampled_from([v for v in SAMPLES if _json_type(v) != _json_type(old)]))
    if not path:
        return kind, new
    _at(body, path[:-1])[path[-1]] = new
    return kind, body


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(case=mutated())
def test_readers_load_or_raise_their_documented_error(case, tmp_path_factory):
    kind, body = case
    reader, error = READERS[kind]
    try:
        reader(copy.deepcopy(body))
    except error as exc:
        assert isinstance(exc.args[0], str) and "\n" not in exc.args[0]
    if kind == "results":
        path = tmp_path_factory.mktemp("fuzz") / "results.json"
        path.write_text(json.dumps(body))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["compare", "--results", str(path)])
        assert code in (0, 2)
        assert code == 0 or (err.getvalue().startswith("data error: ") and err.getvalue().count("\n") == 1)
