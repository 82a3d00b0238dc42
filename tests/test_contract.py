"""The boundary contract of the public API, fuzzed.

Every callable that ``calibench`` exports, the error classes aside, is
called with valid arguments, and then with one argument made bad: NaN or
+-inf in a number or a vector, an empty vector, a vector one entry short
of its partner, ``True``, a fraction, NaN or a value below the minimum as
a count, a number given as text, a 2-D array where a vector belongs, a
fraction or a bool among indices, or ``None`` or a plain list where a
ScoreSet or Dataset belongs.

A call with valid arguments returns, and a float it returns is finite.  A
bad argument that no valid call could hold must raise a ``ValueError`` or
a ``CalibenchError`` (never ``NotConvergedError``, the numerical failure)
whose one-line message names the argument.  The others may also return a
valid result: an empty vector where an empty set is allowed, a vector
that has no partner cut short, +-inf where a CDF takes its limit, NaN or
+-inf in the scores of a map or the features of a model, which must map
exactly the NaN rows to NaN and every other row into [0, 1].

The result records (the dataclasses that hold what a function returned,
such as ``MetricReport`` or ``Tree``) are called with their own fields.
``ForestModel`` takes bad counts here, as an input dataclass does; the
others hold what they are given.  A record that holds an array keeps a
read-only one of its own, and copies the caller's array rather than lock it.
A record whose constructor checks its fields unpickles through it.
"""

import dataclasses
import functools
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import calibench
from calibench import (
    CsvSource,
    Dataset,
    ExperimentConfig,
    ExternalSpec,
    ForestModel,
    ForestSpec,
    IdentityMap,
    IsotonicMap,
    LogisticModel,
    LogregSpec,
    Provenance,
    ScoreFilePair,
    ScoreFileSource,
    ScoreSet,
    SyntheticConfig,
    Tree,
    config_to_json,
    fit_forest,
    fit_isotonic,
    fit_logistic,
    fit_platt,
    generate_synthetic,
    make_fold_plan,
    map_to_json,
    mean_ci,
    metric_report,
    model_to_json,
    paired_t_test,
    reliability_bins,
    run_convergence_study,
    run_enhanced_calibration,
    run_repeated_cv,
    save_csv,
    save_results,
    save_score_csv,
    shapiro_wilk,
    table_to_json,
)
from calibench.errors import CalibenchError, MalformedModelError, NotConvergedError

# the kind of each argument that takes bad values; ("count", m) is an
# integer of at least m (None: no minimum)
KINDS = {
    "ScoreSet": {"scores": "vector", "labels": "labels"},
    "PlattMap": {"A": "real", "B": "real", "iterations_used": ("count", 0)},
    "IsotonicMap": {"knots": "vector", "values": "probs"},
    "fit_platt": {"data": "scoreset", "ridge": "real", "tol": "real", "max_iter": ("count", 0)},
    "fit_isotonic": {"data": "scoreset"},
    "fit_calibrated_pipeline": {"base_scores": "scoreset"},
    "apply_map": {"score": "elementwise"},
    "Dataset": {"features": "matrix", "labels": "labels"},
    "SyntheticConfig": {"n": ("count", 1), "d": ("count", 2), "seed": ("count", 0)},
    "save_csv": {"data": "dataset"},
    "save_score_csv": {"data": "scoreset"},
    "select_features": {"data": "dataset", "indices": "indices"},
    "subset": {"data": "dataset", "indices": "indices"},
    "stratified_split": {"data": "dataset", "train_ratio": "real", "seed": ("count", 0)},
    "deal_folds": {"labels": "labels", "folds": ("count", 1)},
    "make_fold_plan": {
        "data": "dataset", "folds": ("count", 2), "repeats": ("count", 1), "base_seed": ("count", 0),
    },
    "LogisticModel": {
        "weights": "vector", "bias": "real", "inverse_reg_strength": "real",
        "iterations_used": ("count", 0),
    },
    "fit_logistic": {"data": "dataset", "C": "real", "tol": "real", "max_iter": ("count", 0)},
    "predict_logistic": {"features": "rows"},
    "fit_forest": {
        "data": "dataset", "tree_count": ("count", 1), "max_depth": ("count", 1), "seed": ("count", 0),
    },
    "ForestModel": {
        "tree_count": ("count", 1), "max_depth": ("count", 1), "seed": ("count", 0),
        "feature_count": ("count", 1),
    },
    "predict_forest": {"features": "rows"},
    "score_dataset": {"data": "dataset"},
    "ece": {"probs": "probs", "labels": "labels", "bins": ("count", 1)},
    "mce": {"probs": "probs", "labels": "labels", "bins": ("count", 1)},
    "brier": {"probs": "probs", "labels": "labels"},
    "log_loss": {"probs": "probs", "labels": "labels", "epsilon": "real"},
    "auc": {"scores": "vector", "labels": "labels"},
    "reliability_bins": {"probs": "probs", "labels": "labels", "bins": ("count", 1)},
    "hosmer_lemeshow": {"probs": "probs", "labels": "labels", "groups": ("count", 3)},
    "metric_report": {
        "probs": "probs", "labels": "labels", "bins": ("count", 1), "hl_groups": ("count", None),
    },
    "IntervalEstimate": {"level": "real"},
    "normal_cdf": {"x": "extended"},
    "t_cdf": {"x": "extended", "df": ("count", 1)},
    "chi2_cdf": {"x": "extended", "df": ("count", 1)},
    "paired_t_test": {"a": "vector", "b": "vector"},
    "cohens_d_paired": {"a": "vector", "b": "vector"},
    "bonferroni": {"p_values": "probs", "family_alpha": "real"},
    "mean_ci": {"samples": "vector", "level": "real"},
    "shapiro_wilk": {"samples": "vector"},
    "LogregSpec": {"C": "real"},
    "ForestSpec": {"trees": ("count", 1), "depth": ("count", 1)},
    "ExperimentConfig": {
        "folds": ("count", 2), "repeats": ("count", 1), "bins": ("count", 1),
        "base_seed": ("count", 0), "family_alpha": "real",
    },
    "run_enhanced_calibration": {"data": "dataset", "seed": ("count", 0)},
    "compare_methods": {"family_alpha": "real"},
    "run_convergence_study": {"sizes": "sizes", "trials": ("count", 10), "seed": ("count", 0)},
    "bootstrap_metric_ci": {
        "probs": "probs", "labels": "labels", "bins": ("count", 1), "level": "real",
        "draws": ("count", 1), "seed": ("count", 0),
    },
}

VECTORS = ("vector", "probs", "labels")


def _public_callables():
    """Every callable name in ``calibench.__all__`` but the error classes."""
    return sorted(
        name for name, value in ((n, getattr(calibench, n)) for n in calibench.__all__)
        if callable(value) and not (isinstance(value, type) and issubclass(value, Exception | Warning))
    )


@functools.cache
def _calls(tmp: str) -> dict:
    """Valid keyword arguments of every public callable, by name."""
    rng = np.random.default_rng(0)
    probs = rng.random(40)
    labels = (rng.random(40) < probs).astype(np.int64)
    labels[:2] = (0, 1)
    scores = ScoreSet(probs, labels)
    a = rng.normal(size=12)
    b = a + 0.5 * rng.normal(size=12)
    config = SyntheticConfig(n=60, d=3, seed=1)
    data = generate_synthetic(config)
    logistic, forest = fit_logistic(data), fit_forest(data, 3, 2, seed=0)
    platt, iso = fit_platt(scores), fit_isotonic(scores)
    experiment = ExperimentConfig(
        source=config, model=LogregSpec(), methods=("uncalibrated", "platt"), folds=2, repeats=1,
    )
    table = run_repeated_cv(experiment)
    csv_path, score_path, results_path = f"{tmp}/data.csv", f"{tmp}/scores.csv", f"{tmp}/results.json"
    save_csv(data, csv_path)
    save_score_csv(scores, score_path)
    save_results(table, results_path)
    pair = ScoreFilePair(score_path, score_path)
    records = {
        "Provenance": data.provenance,
        "FoldAssignment": make_fold_plan(data, 2, 1, 0).assignments[0],
        "FoldPlan": make_fold_plan(data, 2, 1, 0),
        "BinStats": reliability_bins(probs, labels),
        "MetricReport": metric_report(probs, labels),
        "PairedComparison": paired_t_test(a, b),
        "NormalityReport": shapiro_wilk(a),
        "IntervalEstimate": mean_ci(a),
        "Tree": forest.trees[0],
        "ForestModel": forest,
        "LogisticModel": logistic,
        "RunRecord": table.records[0],
        "AggregateRow": table.aggregates[0],
        "ComparisonRow": table.comparisons[0],
        "ResultTable": table,
        "PipelineArtifact": run_enhanced_calibration(data, LogregSpec(), seed=0),
        "ConvergenceStudy": run_convergence_study(lambda s: s, (5, 10, 20, 500), 10, 0),
        "CsvSource": CsvSource(csv_path),
        "ScoreFilePair": pair,
        "ScoreFileSource": ScoreFileSource((pair,)),
        "ExternalSpec": ExternalSpec(),
        "IdentityMap": IdentityMap(),
        "ScoreSet": scores,
        "PlattMap": platt,
        "IsotonicMap": iso,
        "Dataset": data,
        "SyntheticConfig": config,
        "LogregSpec": LogregSpec(),
        "ForestSpec": ForestSpec(trees=3, depth=2),
        "ExperimentConfig": experiment,
    }
    calls = {
        name: {f.name: getattr(value, f.name) for f in dataclasses.fields(value) if f.init}
        for name, value in records.items()
    }
    pairs = {"probs": probs, "labels": labels}
    calls.update({
        "fit_platt": {"data": scores, "ridge": 1e-6, "tol": 1e-8, "max_iter": 100},
        "fit_isotonic": {"data": scores},
        "fit_calibrated_pipeline": {"base_scores": scores, "method": "platt"},
        "apply_map": {"calibration_map": platt, "score": probs},
        "map_to_json": {"calibration_map": iso},
        "map_from_json": {"payload": map_to_json(iso)},
        "generate_synthetic": {"config": config},
        "load_csv": {"path": csv_path, "label_column": "y"},
        "save_csv": {"data": data, "path": f"{tmp}/out.csv", "label_column": "y"},
        "load_score_csv": {"path": score_path},
        "save_score_csv": {"data": scores, "path": f"{tmp}/out_scores.csv"},
        "select_features": {"data": data, "indices": [0, 2]},
        "subset": {"data": data, "indices": np.arange(0, 60, 2)},
        "stratified_split": {"data": data, "train_ratio": 0.5, "seed": 3},
        "deal_folds": {"labels": labels, "folds": 3, "rng": np.random.default_rng(0)},
        "make_fold_plan": {"data": data, "folds": 2, "repeats": 2, "base_seed": 0},
        "fit_logistic": {"data": data, "C": 1.0, "tol": 1e-8, "max_iter": 100},
        "predict_logistic": {"model": logistic, "features": data.features},
        "fit_forest": {"data": data, "tree_count": 3, "max_depth": 2, "seed": 0},
        "predict_forest": {"model": forest, "features": data.features},
        "score_dataset": {"model": logistic, "data": data},
        "model_to_json": {"model": forest},
        "model_from_json": {"payload": model_to_json(forest)},
        "ece": {**pairs, "bins": 10},
        "mce": {**pairs, "bins": 10},
        "brier": pairs,
        "log_loss": {**pairs, "epsilon": 1e-15},
        "auc": {"scores": probs, "labels": labels},
        "reliability_bins": {**pairs, "bins": 10},
        "hosmer_lemeshow": {**pairs, "groups": 5},
        "metric_report": {**pairs, "bins": 10, "hl_groups": 5},
        "normal_cdf": {"x": 0.3},
        "t_cdf": {"x": 0.3, "df": 5},
        "chi2_cdf": {"x": 2.0, "df": 3},
        "paired_t_test": {"a": a, "b": b, "name_a": "a", "name_b": "b"},
        "cohens_d_paired": {"a": a, "b": b},
        "bonferroni": {"p_values": probs[:5], "family_alpha": 0.05},
        "mean_ci": {"samples": a, "level": 0.95},
        "shapiro_wilk": {"samples": a},
        "run_enhanced_calibration": {"data": data, "model_spec": LogregSpec(), "seed": 0},
        "run_repeated_cv": {"config": experiment},
        "compare_methods": {"table": table, "metric": "ece", "family_alpha": 0.05},
        "aggregate_records": {"records": table.records},
        "run_convergence_study": {
            "g_star": lambda s: s, "sizes": (5, 10, 20, 500), "trials": 10, "seed": 0,
        },
        "bootstrap_metric_ci": {**pairs, "metric": "ece", "bins": 10, "level": 0.95, "draws": 20, "seed": 0},
        "save_results": {"table": table, "path": f"{tmp}/out.json"},
        "load_results": {"path": results_path},
        "config_to_json": {"config": experiment},
        "config_from_json": {"payload": config_to_json(experiment)},
        "table_to_json": {"table": table},
        "table_from_json": {"payload": table_to_json(table)},
    })
    return calls


def _put(value, at, bad):
    out = np.array(value, dtype=type(bad) if isinstance(bad, float) else None)
    out.flat[at] = bad
    return out


def _mutations(kind, value, partnered):
    """``(name, bad value, whether a call must raise)`` for each bad value
    of an argument of ``kind``; ``at`` places a bad entry in a vector."""
    if isinstance(kind, tuple):
        minimum = kind[1]
        below = [("below", lambda at: minimum - 1, True)] if minimum is not None else []
        return [
            ("bool", lambda at: True, True),
            ("fraction", lambda at: (minimum or 0) + 1.5, True),
            ("nan", lambda at: math.nan, True),
        ] + below
    if kind in ("real", "extended"):
        return [
            ("text", lambda at: "1", True),
            ("nan", lambda at: math.nan, True),
            ("inf", lambda at: math.inf, kind == "real"),
            ("-inf", lambda at: -math.inf, kind == "real"),
        ]
    if kind in ("scoreset", "dataset"):
        return [("None", lambda at: None, True), ("list", lambda at: [0.5, 0.25], True)]
    if kind in ("indices", "sizes"):
        return [
            ("fraction", lambda at: _put(value, at, float(value[at]) + 0.5), True),
            ("bools", lambda at: [bool(at % 2)] * len(value), True),
            ("2-D", lambda at: np.stack([value, value]), True),
        ] + ([("beyond", lambda at: _put(value, at, 10**6), True)] if kind == "indices" else [])
    if kind == "matrix":
        return [
            ("nan", lambda at: _put(value, at, math.nan), True),
            ("inf", lambda at: _put(value, at, math.inf), True),
            ("1-D", lambda at: value[:, 0], True),
            ("short", lambda at: value[:-1], True),
        ]
    if kind in ("rows", "elementwise"):
        cut = [("short", lambda at: value[:, :-1], True)] if kind == "rows" else [
            ("empty", lambda at: value[:0], False)
        ]
        return [
            ("nan", lambda at: _put(value, at, math.nan), False),
            ("inf", lambda at: _put(value, at, math.inf), False),
            ("-inf", lambda at: _put(value, at, -math.inf), False),
        ] + cut
    bad_entries = (
        [("nan", math.nan), ("two", 2), ("half", 0.5)] if kind == "labels"
        else [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)]
    )
    return [(name, lambda at, bad=bad: _put(value, at, bad), True) for name, bad in bad_entries] + [
        ("empty", lambda at: value[:0], False),
        ("short", lambda at: value[:-1], partnered),
        ("2-D", lambda at: np.stack([value, value]), True),
    ]


def _floats(result):
    if isinstance(result, (float, np.floating)):
        yield float(result)
    elif isinstance(result, tuple) and not dataclasses.is_dataclass(result):
        for item in result:
            yield from _floats(item)
    elif isinstance(result, np.ndarray) and result.dtype.kind == "f":
        yield from result.ravel().tolist()


def _names(message: str, param: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(param)}(?![\w-])", message) is not None


def _partnered(name, kind):
    """Whether an argument of ``kind`` is paired with another vector."""
    return kind in VECTORS and sum(k in VECTORS for k in KINDS[name].values()) > 1


def _check(name, kwargs, param=None, mutation=None, must_raise=False):
    """Call ``name`` and hold the result or the error to the contract."""
    bad_rows = None
    if param is not None and KINDS[name][param] in ("rows", "elementwise"):
        bad = np.isnan(np.asarray(kwargs[param], dtype=float))
        bad_rows = bad.any(axis=1) if bad.ndim == 2 else bad
    case = f"{name}({param}: {mutation})"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            result = getattr(calibench, name)(**kwargs)
        except (CalibenchError, ValueError) as exc:
            assert param is not None, f"{case}: a valid call raised {exc!r}"
            assert not isinstance(exc, NotConvergedError), f"{case}: bad input reported as numerics"
            message = str(exc)
            assert "\n" not in message and _names(message, param), f"{case}: {message}"
            return
    assert not must_raise, f"{case} returned {result!r}"
    if bad_rows is not None:
        out = np.atleast_1d(result)
        np.testing.assert_array_equal(np.isnan(out), bad_rows, err_msg=case)
        assert ((out[~bad_rows] >= 0.0) & (out[~bad_rows] <= 1.0)).all(), case
    elif mutation in ("inf", "-inf"):  # a CDF at its limit
        assert result in (0.0, 1.0), case
    else:
        assert all(math.isfinite(v) for v in _floats(result)), f"{case}: {result!r}"


def test_every_public_callable_has_a_valid_call(tmp_path_factory):
    calls = _calls(str(tmp_path_factory.getbasetemp()))
    assert sorted(calls) == _public_callables()
    assert set(KINDS) <= set(calls)


@pytest.mark.parametrize("name", _public_callables())
@settings(derandomize=True, max_examples=5, deadline=None, database=None)
@given(data=st.data())
def test_a_call_returns_a_valid_result_or_names_its_bad_argument(name, data, tmp_path_factory):
    valid = _calls(str(tmp_path_factory.getbasetemp()))[name]
    _check(name, dict(valid))
    for param, kind in KINDS.get(name, {}).items():
        value = valid[param]
        size = np.size(value) if isinstance(value, (np.ndarray, list, tuple)) else 1
        for mutation, make, must_raise in _mutations(kind, value, _partnered(name, kind)):
            at = data.draw(st.integers(0, max(size - 1, 0)), label=f"{param} {mutation} at")
            _check(name, {**valid, param: make(at)}, param, mutation, must_raise)


STUMP = {
    "feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
    "right": [2, -1, -1], "value": [0.0, 0.25, 0.75], "count": [4, 2, 2],
}
# (record, the field given the caller's array, a valid array for it, the rest
# of a valid call)
HELD = [
    (ScoreSet, "scores", [0.2, 0.7, 0.4], {"labels": [0, 1, 0]}),
    (Dataset, "features", [[0.2, 1.0], [0.7, 3.0]], {
        "labels": [0, 1], "feature_names": ("x1", "x2"), "provenance": Provenance.from_seed(0),
    }),
    (IsotonicMap, "knots", [0.1, 0.5], {"values": [0.25, 0.75]}),
    (IsotonicMap, "values", [0.25, 0.75], {"knots": [0.1, 0.5]}),
    (LogisticModel, "weights", [0.5, -1.0], {
        "bias": 0.0, "inverse_reg_strength": 1.0, "iterations_used": 3, "final_gradient_norm": 0.0,
    }),
] + [
    (Tree, name, STUMP[name], {k: v for k, v in STUMP.items() if k != name}) for name in STUMP
]


@pytest.mark.parametrize(
    "record, name, values, rest", HELD, ids=[f"{r.__name__}.{n}" for r, n, _, _ in HELD]
)
def test_a_record_copies_the_callers_array_rather_than_lock_it(record, name, values, rest):
    # the record used to clear the write flag of the caller's own array
    given = np.array(values, dtype=np.intp if isinstance(values[0], int) else np.float64)
    held = getattr(record(**{name: given}, **rest), name)
    assert given.flags.writeable and not held.flags.writeable
    kept = held.copy()
    given += 1
    np.testing.assert_array_equal(held, kept)


@pytest.mark.parametrize("name", ["threshold", "value"])
def test_a_tree_names_a_float_field_that_holds_text(name):
    # NumPy's own message, "could not convert string to float: 'a'", named no field
    with pytest.raises(ValueError) as caught:
        Tree(**{**STUMP, name: ["a", 0.0, 0.0]})
    assert str(caught.value) == f"{name} must hold numbers"


def _records():
    """One of each record whose constructor checks its fields."""
    stump = Tree(**STUMP)
    yield ScoreSet([0.2, 0.7, 0.4], [0, 1, 0])
    yield Dataset([[0.2, 1.0], [0.7, 3.0]], [0, 1], ("x1", "x2"), Provenance.from_seed(0))
    yield IsotonicMap([0.1, 0.5], [0.25, 0.75])
    yield LogisticModel([0.5, -1.0], 0.0, 1.0, 3, 0.0)
    yield stump
    yield ForestModel(tree_count=2, max_depth=1, seed=0, feature_count=1, trees=(stump, stump))


def _same(a, b) -> bool:
    """Whether ``a`` and ``b`` hold the same values, arrays bit for bit,
    and every array of ``b`` is read-only."""
    if dataclasses.is_dataclass(a):
        names = [f.name for f in dataclasses.fields(a)]
        return type(a) is type(b) and all(_same(getattr(a, n), getattr(b, n)) for n in names)
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return (
            a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            and not b.flags.writeable
        )
    return a == b


@pytest.mark.parametrize("record", list(_records()), ids=lambda r: type(r).__name__)
def test_a_record_unpickles_equal_with_read_only_arrays(record):
    # a default pickle came back with writable arrays and skipped the checks
    assert _same(record, pickle.loads(pickle.dumps(record)))


def test_an_unpickled_forest_is_checked_again():
    forest = object.__new__(ForestModel)  # a forest built around its checks
    for name, value in [("tree_count", 1), ("max_depth", 1), ("seed", 0), ("feature_count", 1)]:
        object.__setattr__(forest, name, value)
    object.__setattr__(forest, "trees", (Tree(**{**STUMP, "value": [0.0, 0.25, 1.5]}),))
    with pytest.raises(MalformedModelError, match="tree 0: a leaf's value"):
        pickle.loads(pickle.dumps(forest))
