"""Base classifiers: logistic regression and the bagged tree forest."""

import contextlib
import copy
import json
import math
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calibench import (
    Dataset,
    ForestModel,
    Provenance,
    SyntheticConfig,
    Tree,
    fit_forest,
    fit_logistic,
    generate_synthetic,
    model_from_json,
    model_to_json,
    predict_forest,
    predict_logistic,
    score_dataset,
    select_features,
    stratified_split,
)
from calibench import errors
from calibench.errors import DimensionMismatchError, NotConvergedError, SingleClassError
from calibench.models import _BLOCK_TREES, LogisticModel

from oracles import slow_forest_tree


def _dataset(features, labels, seed=0):
    features = np.asarray(features, dtype=float)
    return Dataset(
        features=features,
        labels=np.asarray(labels),
        feature_names=tuple(f"x{j+1}" for j in range(features.shape[1])),
        provenance=Provenance.from_seed(seed),
    )


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------

def test_logistic_learns_positive_weights_on_informative_features():
    data = select_features(generate_synthetic(SyntheticConfig(1000, 10, 42)), [0, 1])
    model = fit_logistic(data, C=1.0)
    assert (model.weights > 0.0).all()
    assert model.final_gradient_norm <= 1e-8
    assert model.iterations_used >= 1


def test_logistic_is_at_chance_on_shuffled_labels():
    rng = np.random.default_rng(14)
    data = generate_synthetic(SyntheticConfig(4000, 10, 3))
    shuffled = Dataset(
        features=data.features,
        labels=rng.permutation(data.labels),
        feature_names=data.feature_names,
        provenance=data.provenance,
    )
    train, test = stratified_split(shuffled, 0.5, seed=2)
    model = fit_logistic(train)
    accuracy = np.mean((predict_logistic(model, test.features) > 0.5) == test.labels)
    assert 0.45 <= accuracy <= 0.55


def test_logistic_terminates_on_separable_data():
    x = np.linspace(-1, 1, 200)[:, None]
    data = _dataset(np.hstack([x, x**2]), (x[:, 0] > 0).astype(int))
    model = fit_logistic(data, C=1.0)
    assert np.isfinite(model.weights).all() and math.isfinite(model.bias)


def test_logistic_penalty_shrinks_with_smaller_C():
    data = select_features(generate_synthetic(SyntheticConfig(1000, 10, 42)), [0, 1])
    loose = fit_logistic(data, C=100.0)
    tight = fit_logistic(data, C=0.01)
    assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)


def test_logistic_errors():
    data = _dataset([[0.0], [1.0]], [1, 1])
    with pytest.raises(SingleClassError):
        fit_logistic(data)
    good = _dataset([[0.0], [1.0], [0.2], [0.8]], [0, 1, 0, 1])
    with pytest.raises(ValueError):
        fit_logistic(good, C=0.0)
    hard = select_features(generate_synthetic(SyntheticConfig(500, 10, 1)), [0, 1])
    with pytest.raises(NotConvergedError):
        fit_logistic(hard, max_iter=1)


def test_predict_logistic_hand_values():
    flat = LogisticModel(
        weights=np.zeros(3), bias=0.0, inverse_reg_strength=1.0,
        iterations_used=0, final_gradient_norm=0.0,
    )
    assert predict_logistic(flat, [1.0, 2.0, 3.0]) == 0.5
    slope = LogisticModel(
        weights=np.array([2.0]), bias=-1.0, inverse_reg_strength=1.0,
        iterations_used=0, final_gradient_norm=0.0,
    )
    assert predict_logistic(slope, [1.0]) == pytest.approx(0.7311, abs=5e-5)
    matrix = predict_logistic(slope, [[1.0], [0.5]])
    assert matrix.shape == (2,)
    assert matrix[1] == pytest.approx(0.5, abs=1e-12)


def test_predict_logistic_dimension_mismatch():
    model = LogisticModel(
        weights=np.array([1.0, 1.0]), bias=0.0, inverse_reg_strength=1.0,
        iterations_used=0, final_gradient_norm=0.0,
    )
    with pytest.raises(DimensionMismatchError):
        predict_logistic(model, [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# forest
# ---------------------------------------------------------------------------

def test_forest_learns_the_synthetic_rule():
    data = generate_synthetic(SyntheticConfig(1000, 10, 42))
    model = fit_forest(data, tree_count=100, max_depth=10, seed=0)
    train_acc = np.mean((predict_forest(model, data.features) > 0.5) == data.labels)
    assert train_acc >= 0.95
    # deep inside the positive region the ensemble is confident
    probe = np.full(10, 0.9)
    assert predict_forest(model, probe) >= 0.8


def test_forest_pure_input_gives_single_leaf_trees():
    data = _dataset([[0.1, 0.5], [0.4, 0.2], [0.9, 0.8]], [1, 1, 1])
    model = fit_forest(data, tree_count=5, max_depth=4, seed=0)
    for tree in model.trees:
        assert tree.feature.tolist() == [-1]
    assert predict_forest(model, [0.5, 0.5]) == 1.0


def test_forest_is_deterministic():
    data = generate_synthetic(SyntheticConfig(300, 4, 5))
    probe = np.random.default_rng(1).random((40, 4))
    first = predict_forest(fit_forest(data, 20, 6, seed=9), probe)
    second = predict_forest(fit_forest(data, 20, 6, seed=9), probe)
    np.testing.assert_array_equal(first, second)
    other = predict_forest(fit_forest(data, 20, 6, seed=10), probe)
    assert not np.array_equal(first, other)


def test_forest_respects_max_depth():
    data = generate_synthetic(SyntheticConfig(500, 3, 6))
    model = fit_forest(data, tree_count=10, max_depth=3, seed=0)
    for tree in model.trees:
        depth = {0: 0}
        deepest = 0
        for node in range(tree.feature.size):
            if tree.feature[node] >= 0:
                depth[tree.left[node]] = depth[node] + 1
                depth[tree.right[node]] = depth[node] + 1
            else:
                deepest = max(deepest, depth[node])
        assert deepest <= 3


def test_predict_forest_hand_built_trees():
    leaf = lambda v: Tree(
        feature=[-1], threshold=[0.0], left=[-1], right=[-1], value=[v], count=[1]
    )
    model = ForestModel(
        trees=(leaf(0.2), leaf(0.6)), tree_count=2, max_depth=1, seed=0, feature_count=3
    )
    assert predict_forest(model, [0.0, 0.0, 0.0]) == pytest.approx(0.4, abs=1e-15)
    ones = ForestModel(
        trees=(leaf(1.0), leaf(1.0)), tree_count=2, max_depth=1, seed=0, feature_count=3
    )
    assert predict_forest(ones, [0.0, 0.0, 0.0]) == 1.0
    with pytest.raises(DimensionMismatchError):
        predict_forest(model, [0.0, 0.0])


def test_forest_split_semantics_left_is_at_most_threshold():
    # scores equal to the threshold go left
    stump = Tree(
        feature=[0, -1, -1], threshold=[0.5, 0.0, 0.0],
        left=[1, -1, -1], right=[2, -1, -1], value=[0.0, 0.1, 0.9], count=[4, 2, 2],
    )
    model = ForestModel(trees=(stump,), tree_count=1, max_depth=1, seed=0, feature_count=1)
    assert predict_forest(model, [0.5]) == 0.1
    assert predict_forest(model, [0.5000001]) == 0.9

    # fitted forest separates two clean clusters
    data = _dataset([[0.1], [0.2], [0.3], [0.4], [0.6], [0.7], [0.8], [0.9]],
                    [0, 0, 0, 0, 1, 1, 1, 1])
    fitted = fit_forest(data, tree_count=30, max_depth=2, seed=3)
    assert predict_forest(fitted, [0.25]) <= 0.2
    assert predict_forest(fitted, [0.75]) >= 0.8


def _tree_rows(tree, x):
    """Route rows of ``x`` through ``tree``: node -> indices of the rows reaching it."""
    reach = {0: np.arange(x.shape[0])}
    for node in range(tree.feature.size):  # a parent's number precedes its children's
        if tree.feature[node] >= 0 and node in reach:
            rows = reach[node]
            go_left = x[rows, tree.feature[node]] <= tree.threshold[node]
            reach[tree.left[node]] = rows[go_left]
            reach[tree.right[node]] = rows[~go_left]
    return reach


def _gini_gain(y, go_left):
    gini = lambda v: 2.0 * v.mean() * (1.0 - v.mean()) if v.size else 0.0
    left, right = y[go_left], y[~go_left]
    return gini(y) - (left.size * gini(left) + right.size * gini(right)) / y.size


def _check_splits(data, seed, tree_count, max_depth) -> int:
    """Route each tree's bootstrap (the first draw of ``default_rng([seed, t])``)
    through it and check every node against brute force; returns the split count."""
    model = fit_forest(data, tree_count=tree_count, max_depth=max_depth, seed=seed)
    splits = 0
    for t, tree in enumerate(model.trees):
        boot = np.random.default_rng([seed, t]).integers(0, data.n, size=data.n)
        x, y = data.features[boot], data.labels[boot].astype(float)
        reach = _tree_rows(tree, x)
        assert sorted(reach) == list(range(tree.feature.size))
        for node in range(tree.feature.size):
            rows = reach[node]
            assert tree.count[node] == rows.size
            if tree.feature[node] < 0:
                assert tree.value[node] == y[rows].mean()
                continue
            splits += 1
            assert tree.count[tree.left[node]] + tree.count[tree.right[node]] == tree.count[node]
            column = x[rows, tree.feature[node]]
            xs = np.unique(column)
            mids = 0.5 * (xs[:-1] + xs[1:])
            gains = [_gini_gain(y[rows], column <= m) for m in mids]
            chosen = _gini_gain(y[rows], column <= tree.threshold[node])
            assert tree.threshold[node] in mids
            assert chosen > 1e-12
            assert chosen >= max(gains) - 1e-12
    return splits


def test_forest_splits_are_gini_optimal_midpoints_on_the_bootstrap():
    assert _check_splits(generate_synthetic(SyntheticConfig(300, 5, 11)), 4, 1, 6) >= 10
    # a balanced 2x2 table: a bootstrap holding each row once gains exactly 0
    # from its only split, so it must stay a leaf
    balanced = _dataset([[0.0], [0.0], [1.0], [1.0]], [0, 1, 0, 1])
    _check_splits(balanced, 0, 64, 3)


def test_forest_matches_the_node_by_node_oracle_bit_for_bit():
    rng = np.random.default_rng(21)
    cases = [
        (np.round(rng.random((150, 5)), 1), 6),  # heavy ties
        (rng.random((120, 4)), 5),
        (np.round(rng.random((80, 1)), 2), 8),
    ]
    for features, depth in cases:
        labels = (features.sum(axis=1) + 0.3 * rng.standard_normal(features.shape[0])
                  > 0.5 * features.shape[1]).astype(int)
        data = _dataset(features, labels)
        model = fit_forest(data, tree_count=12, max_depth=depth, seed=7)
        mtry = max(1, math.isqrt(data.d))
        for t, tree in enumerate(model.trees):
            expected = slow_forest_tree(
                data.features, data.labels, depth, mtry, np.random.default_rng([7, t])
            )
            for name in ("feature", "threshold", "left", "right", "value", "count"):
                assert getattr(tree, name).tolist() == [node[name] for node in expected], (t, name)


@st.composite
def _tied_forest_inputs(draw):
    """Small data sets full of ties: each column holds 1-3 distinct values
    or up to 40 arbitrary floats, rows repeat (their labels free to
    differ), and the labels may all be of one class."""
    d = draw(st.integers(1, 6))
    columns = []
    for _ in range(d):
        pool = draw(st.one_of(
            st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.5]),
                     min_size=1, max_size=3, unique=True),
            st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40),
        ))
        columns.append(pool)
    base = draw(st.integers(1, 40))
    distinct = np.array([[draw(st.sampled_from(pool)) for pool in columns] for _ in range(base)])
    picks = draw(st.lists(st.integers(0, base - 1), min_size=1, max_size=40))
    features = distinct[picks]
    kind = draw(st.sampled_from(["mixed", "zeros", "ones"]))
    if kind == "mixed":
        labels = draw(st.lists(st.integers(0, 1), min_size=len(picks), max_size=len(picks)))
    else:
        labels = [int(kind == "ones")] * len(picks)
    return features, labels, draw(st.integers(1, 7)), draw(st.integers(1, 2 * _BLOCK_TREES + 3))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_tied_forest_inputs(), st.integers(0, 2**32 - 1))
def test_forest_matches_the_oracle_on_tied_and_repeated_rows(inputs, seed):
    # every drawn row carries a multiplicity, and equal values leave no
    # boundary between them; the node-by-node oracle grows every drawn row
    features, labels, depth, tree_count = inputs
    data = _dataset(features, labels)
    model = fit_forest(data, tree_count=tree_count, max_depth=depth, seed=seed)
    mtry = max(1, math.isqrt(data.d))
    for t, tree in enumerate(model.trees):
        expected = slow_forest_tree(
            data.features, data.labels, depth, mtry, np.random.default_rng([seed, t])
        )
        for name in ("feature", "threshold", "left", "right", "value", "count"):
            assert getattr(tree, name).tolist() == [node[name] for node in expected], (t, name)


def test_forest_fit_memory_peak_is_bounded():
    # tracemalloc peak of one README-size fit, trees included, on a 2-core
    # x86-64 VM (Python 3.11.7, NumPy 2.4.6): 1.493e6 bytes when every
    # drawn bootstrap row was grown, 1.367e6 with distinct rows and their
    # multiplicities, 1.65e6 with blocks of 14 trees.  The bound is the
    # first figure rounded up to 0.1 MB.
    data = generate_synthetic(SyntheticConfig(600, 10, 42))
    tracemalloc.start()
    try:
        fit_forest(data, tree_count=100, max_depth=10, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def test_forest_trees_do_not_depend_on_the_block():
    data = generate_synthetic(SyntheticConfig(200, 6, 8))
    fields = ("feature", "threshold", "left", "right", "value", "count")
    many = fit_forest(data, 25, 6, seed=5).trees
    for count in (1, 10, 13):
        few = fit_forest(data, count, 6, seed=5).trees
        assert len(few) == count
        for a, b in zip(few, many):
            for name in fields:
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def _running_sum_predict(model, x):
    """The reference: each tree walked on its own, summed tree by tree."""
    total = np.zeros(x.shape[0])
    for tree in model.trees:
        out = np.empty(x.shape[0])
        for r, row in enumerate(x):
            node = 0
            while tree.feature[node] >= 0:
                go_left = row[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            out[r] = tree.value[node]
        total += out
    return total / model.tree_count


def _depth_first(tree):
    """``tree`` renumbered in pre-order (left subtree first), as a JSON dict."""
    order = []
    stack = [0]
    while stack:
        node = stack.pop()
        order.append(node)
        if tree.feature[node] >= 0:
            stack += [tree.right[node], tree.left[node]]
    new = {old: i for i, old in enumerate(order)}
    child = lambda c: -1 if c < 0 else new[c]
    return {
        "feature": [int(tree.feature[o]) for o in order],
        "threshold": [float(tree.threshold[o]) for o in order],
        "left": [child(tree.left[o]) for o in order],
        "right": [child(tree.right[o]) for o in order],
        "value": [float(tree.value[o]) for o in order],
        "count": [int(tree.count[o]) for o in order],
    }


def test_predict_forest_equals_the_running_sum_oracle():
    data = generate_synthetic(SyntheticConfig(300, 4, 12))
    probe = np.vstack([np.random.default_rng(3).random((60, 4)), data.features[:40]])
    model = fit_forest(data, tree_count=17, max_depth=7, seed=2)
    expected = _running_sum_predict(model, probe)
    np.testing.assert_array_equal(predict_forest(model, probe), expected)
    assert predict_forest(model, probe[5]) == expected[5]

    payload = model_to_json(model)
    payload["forest"]["trees"] = [_depth_first(tree) for tree in model.trees]
    loaded = model_from_json(payload)
    assert all(tree.left[0] == 1 for tree in loaded.trees)  # pre-order: root, then its left child
    np.testing.assert_array_equal(_running_sum_predict(loaded, probe), expected)
    np.testing.assert_array_equal(predict_forest(loaded, probe), expected)


def test_models_send_a_nan_feature_to_nan():
    data = generate_synthetic(SyntheticConfig(200, 3, 4))
    forest = fit_forest(data, tree_count=20, max_depth=6, seed=1)
    logistic = fit_logistic(data)
    probe = np.random.default_rng(5).random((6, 3))
    finite = predict_forest(forest, probe)
    holes = probe.copy()
    holes[[1, 3, 4], [0, 2, 1]] = np.nan
    holes[4, 0] = np.nan
    for predict, model in ((predict_forest, forest), (predict_logistic, logistic)):
        got = predict(model, holes)
        np.testing.assert_array_equal(np.isnan(got), [False, True, False, True, True, False])
        assert math.isnan(predict(model, [np.nan, 0.5, 0.5]))
    np.testing.assert_array_equal(predict_forest(forest, holes)[[0, 2, 5]], finite[[0, 2, 5]])


def test_forest_validation():
    data = generate_synthetic(SyntheticConfig(50, 2, 0))
    with pytest.raises(ValueError):
        fit_forest(data, tree_count=0)
    with pytest.raises(ValueError):
        fit_forest(data, max_depth=0)
    with pytest.raises(ValueError):
        fit_forest(_dataset(np.zeros((4, 0)), [0, 1, 0, 1]))


# ---------------------------------------------------------------------------
# scoring and serialization
# ---------------------------------------------------------------------------

def test_score_dataset_pairs_probabilities_with_labels():
    data = generate_synthetic(SyntheticConfig(80, 3, 2))
    for model in (fit_logistic(data), fit_forest(data, 10, 5, seed=0)):
        scores = score_dataset(model, data)
        assert scores.n == data.n
        np.testing.assert_array_equal(scores.labels, data.labels)
        assert scores.scores.min() >= 0.0 and scores.scores.max() <= 1.0


def test_fit_logistic_stops_at_a_floating_point_fixed_point():
    # from its 6th update on, a Newton step leaves the gradient norm at
    # exactly 1.038e-07 (> tol 1e-8); the fit stops there instead of
    # running to max_iter
    data = select_features(generate_synthetic(SyntheticConfig(n=500, d=4, seed=9)), [0, 1])
    model = fit_logistic(data)
    assert model.iterations_used == 6
    assert 1e-8 < model.final_gradient_norm < 1e-6


def test_fit_logistic_does_not_stop_where_a_gradient_norm_repeats():
    # the norm repeats at 4.5e-08 after the 12th update while the
    # coefficients still move; the Newton steps that follow reach tol
    data = select_features(generate_synthetic(SyntheticConfig(200, 10, 5)), [0, 1])
    train, _ = stratified_split(data, 0.6, seed=5)
    assert fit_logistic(train).final_gradient_norm <= 1e-8


def test_model_json_round_trips():
    data = generate_synthetic(SyntheticConfig(200, 3, 4))
    probe = np.random.default_rng(2).random((25, 3))

    logistic = fit_logistic(data)
    back = model_from_json(model_to_json(logistic))
    np.testing.assert_array_equal(
        predict_logistic(back, probe), predict_logistic(logistic, probe)
    )

    forest = fit_forest(data, tree_count=8, max_depth=4, seed=1)
    text = json.dumps(model_to_json(forest))
    back = model_from_json(json.loads(text))
    np.testing.assert_array_equal(
        predict_forest(back, probe), predict_forest(forest, probe)
    )
    assert json.dumps(model_to_json(back)) == text


def test_model_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        model_from_json({"svm": {}})


@contextlib.contextmanager
def _within(seconds):
    """Fail instead of hanging when the body runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _stump():
    """A one-tree forest JSON: node 0 splits on x1 at 0.5 into leaves 1, 2."""
    return {"forest": {
        "tree_count": 1, "max_depth": 1, "seed": 0, "feature_count": 2,
        "trees": [{
            "feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0],
            "left": [1, -1, -1], "right": [2, -1, -1],
            "value": [0.0, 0.25, 0.75], "count": [4, 2, 2],
        }],
    }}


def test_stump_fixture_loads_and_predicts():
    model = model_from_json(_stump())
    np.testing.assert_array_equal(predict_forest(model, [[0.2, 0.0], [0.8, 0.0]]), [0.25, 0.75])


def _set(field, index, value):
    def edit(tree):
        tree[field][index] = value
    return edit


# the JSON reader's own faults, and what the forest built directly says
_DIRECT = {
    r"forest\.trees\[0\]\.left\[0\] must be an integer, got 1\.7":
        r"^left must be a 1-D vector of integers, got float64",
    r"forest\.trees\[0\]\.count holds a number out of range":
        r"^count must be a 1-D vector of integers, got object",
}


@pytest.mark.parametrize("edit, message", [
    (_set("left", 0, 0), "exceed its parent"),        # a self-loop: the walk never ends
    (_set("right", 0, 3), "exceed its parent"),       # past the last node
    (_set("right", 0, -1), "exceed its parent"),
    (lambda tree: tree["threshold"].pop(), "share one non-zero length"),
    (lambda tree: [tree[k].clear() for k in tree], "share one non-zero length"),
    (_set("right", 1, 2), "leaf's children"),
    (_set("feature", 0, 2), r"\[0, 2\)"),
    (_set("feature", 2, -2), r"\[0, 2\)"),
    (_set("value", 1, float("nan")), r"\[0, 1\]"),
    (_set("left", 0, 1.7), r"forest\.trees\[0\]\.left\[0\] must be an integer, got 1\.7"),
    (_set("count", 0, 10**30), r"forest\.trees\[0\]\.count holds a number out of range"),
    (_set("threshold", 0, float("nan")), "threshold must be finite"),  # every row walks right
    (_set("threshold", 0, float("-inf")), "threshold must be finite"),
    (_set("threshold", 1, float("nan")), "threshold must be finite"),  # a leaf's too
    (_set("count", 1, -1), "count must be >= 0"),
])
def test_model_from_json_rejects_a_malformed_tree(edit, message):
    payload = _stump()
    edit(payload["forest"]["trees"][0])
    with _within(5), pytest.raises(errors.MalformedModelError, match=message):
        predict_forest(model_from_json(payload), [[0.2, 0.0], [0.8, 0.0]])
    # a forest built directly checks itself; it used to walk, or loop, as it was
    body = payload["forest"]
    with _within(5), pytest.raises(ValueError, match=_DIRECT.get(message, message)):
        forest = ForestModel(**{**body, "trees": tuple(Tree(**tree) for tree in body["trees"])})
        predict_forest(forest, [[0.2, 0.0], [0.8, 0.0]])


def test_a_forest_built_directly_checks_its_counts():
    tree = model_from_json(_stump()).trees[0]
    # the mean was over tree_count: 0.05 and 0.15 instead of 0.25 and 0.75
    with pytest.raises(errors.MalformedModelError, match="^tree_count 5 does not match the 1 trees"):
        ForestModel(tree_count=5, max_depth=1, seed=0, feature_count=2, trees=(tree,))
    for name, low in (("tree_count", 1), ("max_depth", 1), ("seed", 0), ("feature_count", 1)):
        counts = {"tree_count": 1, "max_depth": 1, "seed": 0, "feature_count": 2, name: low - 1}
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= {low}, got {low - 1}"):
            ForestModel(**counts, trees=(tree,))


@pytest.mark.parametrize("name, bad", [
    ("feature", [0.7, -1, -1]),        # was truncated to 0
    ("left", [1.9, -1, -1]),           # was truncated to 1
    ("left", [True, -1, -1]),
    ("count", np.array([True, False, True])),
])
def test_tree_rejects_a_fraction_or_a_bool_among_its_integers(name, bad):
    tree = _stump()["forest"]["trees"][0]
    with pytest.raises(ValueError, match=f"^{name} must be a 1-D vector of integers"):
        Tree(**{**tree, name: bad})


def test_model_from_json_rejects_nan_thresholds_from_a_fitted_forest():
    # json reads a NaN literal as a float; such a forest scored every row
    # by walking right at each split
    model = fit_forest(generate_synthetic(SyntheticConfig(100, 3, 1)), 5, 3, seed=0)
    payload = json.loads(json.dumps(model_to_json(model)))
    thresholds = payload["forest"]["trees"][0]["threshold"]
    thresholds[:] = [float("nan")] * len(thresholds)
    with pytest.raises(errors.MalformedModelError, match="tree 0: every threshold must be finite"):
        model_from_json(json.loads(json.dumps(payload)))


def _logistic():
    return {"logistic": {
        "weights": [0.5, -1.0], "bias": 0.25, "inverse_reg_strength": 1.0,
        "iterations_used": 3, "final_gradient_norm": 1e-9,
    }}


@pytest.mark.parametrize("payload, edit, message", [
    (_stump, lambda p: p["forest"].clear(), "forest: missing key 'tree_count'"),
    (_logistic, lambda p: p["logistic"].pop("bias"), "logistic: missing key 'bias'"),
    (
        _logistic,
        lambda p: p["logistic"].update(iterations_used=2.7),
        r"logistic\.iterations_used must be an integer, got 2\.7",
    ),
    (_logistic, lambda p: p["logistic"].update(C=1.0), "unknown logistic key 'C'"),
    (_stump, lambda p: p["forest"].update(seed=True), "forest.seed must be an integer"),
], ids=["empty-forest", "missing-key", "fractional-count", "unknown-key", "bool-count"])
def test_model_from_json_rejects_a_malformed_body(payload, edit, message):
    body = payload()
    edit(body)
    with pytest.raises(errors.MalformedModelError, match=message):
        model_from_json(body)


@pytest.mark.parametrize("tree_count, trees", [(2, 1), (0, 0)])
def test_model_from_json_rejects_a_wrong_tree_count(tree_count, trees):
    payload = _stump()
    body = payload["forest"]
    body["tree_count"] = tree_count
    body["trees"] = [copy.deepcopy(body["trees"][0]) for _ in range(trees)]
    with _within(5), pytest.raises(errors.MalformedModelError, match="tree"):
        predict_forest(model_from_json(payload), [[0.2, 0.0]])
