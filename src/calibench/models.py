"""From-scratch probability-scoring classifiers: L2 logistic regression and
a bagged decision-tree forest.

Logistic regression minimizes the negative log-likelihood plus
``||w||^2/(2C)`` on the raw-feature weights (bias unpenalized) by
the damped Newton solver that Platt scaling also uses.  The optimizer works
in standardized coordinates (training mean/std, a zero std becomes scale 1)
purely for conditioning — the penalty is mapped into those coordinates so
the fitted model is identical to a raw-space fit.  A singular Hessian falls
back to a gradient step.

The forest bags ``tree_count`` depth-limited CART trees: each tree trains
on its own bootstrap resample (n draws with replacement), each split
examines ``max(1, floor(sqrt(d)))`` features drawn without replacement —
the standard random-forest subsampling size — and picks the threshold
with the largest Gini impurity reduction (midpoints of consecutive
distinct values), and leaves predict their positive-label fraction.
Tree t's generator is ``default_rng([seed, t])``, so fits are
deterministic and trees independent.

Trees grow level-wise, a block of ``_BLOCK_TREES`` at a time.  A tree's
n bootstrap draws hold about 63 % distinct rows, so each tree is grown on
its distinct rows, each weighted by how often it was drawn; the weighted
counts are exact integers in float64, so the trees equal, bit for bit,
those grown on every drawn row.  Feature values are ranked once per fit;
at each depth, each tree draws the candidate features of all its
splittable nodes at once, and all nodes of the block are scored together,
one sort and two segmented weighted cumulative sums per candidate column
(the presorted class counts of SLIQ, Mehta et al. 1996, in the level-wise
layout of XGBoost, Chen & Guestrin 2016, with exact thresholds rather
than histograms).  Fitted trees number their nodes breadth-first.
Prediction walks every (tree, row) pair together; a row with a NaN
feature predicts NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from .calibrators import ScoreSet
from .datasets import Dataset
from .errors import MalformedModelError, SingleClassError
from ._util import (
    Checked, _float_array, check_counts, check_finite, check_int, check_ints, check_real,
    check_rows, check_type, damped_newton, from_json, readonly, sigmoid, to_json,
)

__all__ = [
    "LogisticModel",
    "ForestModel",
    "Tree",
    "fit_logistic",
    "predict_logistic",
    "fit_forest",
    "predict_forest",
    "score_dataset",
    "model_to_json",
    "model_from_json",
]

# predicted probabilities are clamped strictly inside (0,1) by this margin
_PROB_MARGIN = 1e-15


@dataclass(frozen=True)
class LogisticModel(Checked):
    """Fitted logistic regression: predicts sigmoid(weights @ x + bias),
    with finite weights and bias."""

    json_kind = "logistic"
    weights: npt.NDArray[np.float64]
    bias: float
    inverse_reg_strength: float
    iterations_used: int
    final_gradient_norm: float

    def __post_init__(self):
        weights = check_finite(self.weights, "weights")
        object.__setattr__(self, "weights", readonly(weights, self.weights))
        check_real(self.bias, "bias")
        check_real(self.inverse_reg_strength, "inverse_reg_strength", 0.0)
        check_int(self.iterations_used, "iterations_used", 0)

    @property
    def d(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class Tree(Checked):
    """Binary decision tree as parallel node arrays.

    ``feature[i] >= 0`` marks a split node (go left when
    ``x[feature] <= threshold``); ``feature[i] == -1`` marks a leaf whose
    prediction is ``value[i]`` (positive fraction of its training samples,
    ``count[i]`` of them).  Node 0 is the root.  :func:`fit_forest` numbers
    nodes breadth-first (a split node's children are adjacent, left first);
    prediction accepts any numbering, such as depth-first trees from JSON.
    Integer arrays take no fraction or bool, and float arrays hold numbers,
    NaN among them; :class:`ForestModel` checks the rest.
    """

    feature: npt.NDArray[np.intp]
    threshold: npt.NDArray[np.float64]
    left: npt.NDArray[np.intp]
    right: npt.NDArray[np.intp]
    value: npt.NDArray[np.float64]
    count: npt.NDArray[np.intp]

    def __post_init__(self):
        for name in ("feature", "left", "right", "count"):
            given = getattr(self, name)
            object.__setattr__(self, name, readonly(check_ints(given, name), given))
        for name in ("threshold", "value"):
            given = getattr(self, name)
            object.__setattr__(self, name, readonly(_float_array(given, name, 1), given))


@dataclass(frozen=True)
class ForestModel(Checked):
    """Bagged tree ensemble: predicts the mean of the trees' leaf fractions.

    Holds only what :func:`predict_forest` can walk to a leaf in every tree
    and average over them all, else MalformedModelError: ``tree_count``
    trees, each child's index above its parent's, split features in [0,
    feature_count), finite thresholds, leaf values in [0, 1], counts >= 0.
    """

    json_kind = "forest"
    tree_count: int = field(metadata={"min": 1})
    max_depth: int = field(metadata={"min": 1})
    seed: int = field(metadata={"min": 0})
    feature_count: int = field(metadata={"min": 1})
    trees: tuple[Tree, ...]

    def __post_init__(self):
        check_counts(self)
        trees = tuple(check_type(tree, Tree, "trees") for tree in self.trees)
        object.__setattr__(self, "trees", trees)
        if self.tree_count != len(trees):
            raise MalformedModelError(
                f"tree_count {self.tree_count} does not match the {len(trees)} trees given"
            )
        sizes = np.array([tree.feature.size for tree in trees])
        for index, tree in enumerate(trees):
            arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value, tree.count)
            if sizes[index] == 0 or any(a.shape != (sizes[index],) for a in arrays):
                raise MalformedModelError(f"tree {index}: node arrays must share one non-zero length")
        # each rule below runs over the nodes of every tree, end to end
        owner = np.repeat(np.arange(len(trees)), sizes)  # each node's tree
        node = np.arange(owner.size) - (np.cumsum(sizes) - sizes)[owner]  # its index there

        def nodes(name):
            return np.concatenate([getattr(tree, name) for tree in trees])

        def rule(bad, text):  # a fault names the first tree that has it
            if bad.any():
                index = owner[bad.argmax()]
                raise MalformedModelError(f"tree {index}: " + text.format(sizes[index]))

        feature, left, right = nodes("feature"), nodes("left"), nodes("right")
        split, leaf = feature >= 0, feature < 0
        rule((split & (feature >= self.feature_count)) | (leaf & (feature != -1)),
             f"a split feature must lie in [0, {self.feature_count}), a leaf's be -1")
        rule(leaf & ((left != -1) | (right != -1)), "a leaf's children must both be -1")
        rule(split & ((np.minimum(left, right) <= node) | (np.maximum(left, right) >= sizes[owner])),
             "a child's index must exceed its parent's and be < {}")
        value = nodes("value")
        rule(leaf & ~((value >= 0.0) & (value <= 1.0)), "a leaf's value must lie in [0, 1]")
        # NaN compares false, so a NaN threshold would send every row right
        rule(~np.isfinite(nodes("threshold")), "every threshold must be finite")
        rule(nodes("count") < 0, "a node's count must be >= 0")


_MODELS = (LogisticModel, ForestModel)

# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------

def fit_logistic(
    data: Dataset, C: float = 1.0, tol: float = 1e-8, max_iter: int = 100
) -> LogisticModel:
    """Fit L2-regularized logistic regression by damped Newton-Raphson.

    The penalty is ``||w||^2/(2C)`` on the raw-feature weights with the
    bias unpenalized.  Converged when the gradient max-norm (in the
    standardized optimization coordinates) is at most ``tol``, or when an
    accepted step leaves every coefficient unchanged in floating point: a
    fixed point, where ``final_gradient_norm`` may exceed ``tol``.  Raises
    :class:`NotConvergedError` after ``max_iter`` Newton updates.
    """
    check_type(data, Dataset, "data")
    C = check_real(C, "C", 0.0)
    tol = check_real(tol, "tol", 0.0, np.inf, "[)")
    max_iter = check_int(max_iter, "max_iter", 0)
    y = data.labels.astype(np.float64)
    n_pos = int(data.labels.sum())
    if n_pos == 0 or n_pos == data.n:
        raise SingleClassError("logistic regression needs both classes present")

    mu = data.features.mean(axis=0)
    sd = data.features.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    x = (data.features - mu) / sd
    d = data.d
    # the raw-space ridge ||w_raw||^2/(2C) expressed in standardized
    # coordinates (w_raw = w/sd) is a diagonal penalty with these weights
    ridge = 1.0 / (C * sd * sd)

    def objective(params) -> float:
        w = params[:d]
        z = x @ w + params[d]
        return float(np.sum(np.logaddexp(0.0, z) - y * z)) + 0.5 * float(ridge @ (w * w))

    def newton(params):
        w = params[:d]
        p = sigmoid(x @ w + params[d])
        resid = p - y
        grad = np.append(x.T @ resid + ridge * w, resid.sum())

        def solve():
            wt = p * (1.0 - p)
            xw = x * wt[:, None]
            hess = np.empty((d + 1, d + 1))
            hess[:d, :d] = x.T @ xw + np.diag(ridge)
            hess[:d, d] = xw.sum(axis=0)
            hess[d, :d] = hess[:d, d]
            hess[d, d] = float(wt.sum())
            try:
                step = np.linalg.solve(hess, -grad)
                if not np.isfinite(step).all():
                    raise np.linalg.LinAlgError
            except np.linalg.LinAlgError:
                step = -grad  # singular Hessian: plain gradient step
            return step

        return float(np.abs(grad).max()), solve

    params, iterations, gnorm = damped_newton(
        "logistic", np.zeros(d + 1), newton, objective, tol, max_iter
    )

    # fold the standardization into the reported raw-feature coefficients
    w_raw = params[:d] / sd
    b_raw = float(params[d]) - float(w_raw @ mu)
    return LogisticModel(
        weights=w_raw,
        bias=b_raw,
        inverse_reg_strength=C,
        iterations_used=iterations,
        final_gradient_norm=gnorm,
    )


def predict_logistic(model: LogisticModel, features):
    """Predicted positive-class probability, strictly inside (0, 1).

    Accepts one length-d vector (returns a float) or an (n, d) matrix
    (returns a length-n vector).
    """
    x, single = check_rows(features, check_type(model, LogisticModel, "model").d)
    p = sigmoid(x @ model.weights + model.bias)
    np.clip(p, _PROB_MARGIN, 1.0 - _PROB_MARGIN, out=p)
    return float(p[0]) if single else p


# ---------------------------------------------------------------------------
# bagged decision-tree forest
# ---------------------------------------------------------------------------

_MIN_GINI_GAIN = 1e-12
# trees grown together.  No tree depends on its block, only time and memory
# do.  On one training fold of the README forest config (800 rows, d=10, 100
# trees, depth 10) on a 2-core VM, one fit took ~450 ms one tree at a time
# and 160-200 ms in blocks of 10 to 100, no size steadily faster than 10.
# It raised peak RSS by ~1.8, ~2.9, ~3.4, ~3.9, ~7.4 and ~13.7 MB for
# blocks of 1, 10, 14, 20, 50 and 100.
_BLOCK_TREES = 10
# (tree, row) pairs that predict_forest walks at once, bounding its memory
_WALK_PAIRS = 1 << 20


def _dense_ranks(x: np.ndarray) -> np.ndarray:
    """Each value's rank among the distinct values of its column: ordering
    by rank is ordering by value, and equal values share a rank."""
    ranks = np.empty(x.shape, dtype=np.intp)
    for f in range(x.shape[1]):
        ranks[:, f] = np.unique(x[:, f], return_inverse=True)[1]
    return ranks


def _bootstrap_rows(rngs, n: int) -> tuple:
    """Each generator's bootstrap, its first ``integers(0, n, size=n)`` draw,
    as the distinct rows drawn and how often each was drawn.

    Returns ``(tree, rows, weight)``, ordered by tree and then row; the
    weights are integer multiplicities held as float64.
    """
    drawn = np.bincount(
        np.concatenate([rng.integers(0, n, size=n) + t * n for t, rng in enumerate(rngs)]),
        minlength=len(rngs) * n,
    )
    held = np.flatnonzero(drawn)
    tree, rows = np.divmod(held, n)
    return tree, rows, drawn[held].astype(np.float64)


def _best_boundaries(
    key, node, rows, weight, weight_pos, m, m_pos, m_start, pos_start, parent_gini
):
    """Each node's best Gini gain over the boundaries between the distinct
    keys of its rows, and the rows either side of its first best boundary.

    ``key`` orders rows by node and then by value; ``m``/``m_pos`` are each
    node's weighted row and positive counts, and ``m_start``/``pos_start``
    their sums over the nodes before it.  Returns ``(nodes, gain, below,
    above)`` for the nodes that have a boundary.  The scan's row-length
    temporaries are freed on return, before the next column's are made.
    """
    order = np.argsort(key)
    key = key[order]
    node = node[order]
    # the boundaries between distinct values within one node
    i = np.flatnonzero((node[:-1] == node[1:]) & (key[:-1] != key[1:]))
    q = node[i]
    n_left = np.cumsum(weight[order])[i] - m_start[q]
    n_right = m[q] - n_left
    pos_left = np.cumsum(weight_pos[order])[i] - pos_start[q]
    pos_right = m_pos[q] - pos_left
    p_left = pos_left / n_left
    p_right = pos_right / n_right
    child = (
        n_left * 2.0 * p_left * (1.0 - p_left)
        + n_right * 2.0 * p_right * (1.0 - p_right)
    ) / m[q]
    gain = parent_gini[q] - child
    # each node's first best boundary
    first = np.empty(q.size, dtype=bool)
    first[:1] = True
    np.not_equal(q[1:], q[:-1], out=first[1:])
    group = np.flatnonzero(first)
    group_best = np.maximum.reduceat(gain, group)
    hit = gain == group_best[np.cumsum(first) - 1]
    at = np.minimum.reduceat(np.where(hit, i, key.size), group)
    return q[group], group_best, rows[order[at]], rows[order[at + 1]]


def _grow_block(x, y, ranks, rngs, max_depth: int, mtry: int) -> list:
    """Grow one CART tree per generator, all of them one level at a time.

    Each tree trains on its bootstrap, held as the distinct rows drawn,
    each weighted by how often it was drawn (:func:`_bootstrap_rows`).
    Node counts, positive counts and the running sums of each split scan
    are weighted sums of those integer multiplicities, exact in float64,
    so every gain, threshold, count and value equals, bit for bit, that
    of growing all n drawn rows.

    Per level, each tree draws the candidate features of its splittable
    nodes, in level order, with one ``random((k, d))``, and the rows of
    all the trees' draws are argsorted together (``[:, :mtry]``), so a
    tree depends only on its generator and the data.  Then, for each
    candidate column, one argsort keyed on (node, rank) lays out every
    node's rows in value order, segmented cumsums give the Gini gain at
    every boundary between distinct values, and ``maximum.reduceat`` /
    ``minimum.reduceat`` find each node's first best boundary.  A node
    takes its earliest-drawn best candidate if that gains more than
    ``_MIN_GINI_GAIN``.  Nodes are numbered breadth-first.
    """
    n, d = x.shape
    block = len(rngs)
    # slot: each row's node, numbered within the level; tree t's root is t
    slot, rows, weight = _bootstrap_rows(rngs, n)
    weight_pos = weight * y[rows]
    flat_ranks = ranks.ravel()
    tree = np.arange(block)  # each level node's tree; the level is in tree order
    levels = []
    for depth in range(max_depth + 1):
        k = tree.size
        count = np.bincount(slot, weights=weight, minlength=k)
        pos = np.bincount(slot, weights=weight_pos, minlength=k)
        feature = np.full(k, -1, dtype=np.intp)
        threshold = np.zeros(k)
        active = np.flatnonzero((pos > 0) & (pos < count) & (depth < max_depth))
        if active.size:
            per_tree = np.bincount(tree[active], minlength=block)
            cand = np.concatenate([
                rngs[t].random((c, d)) for t, c in enumerate(per_tree) if c
            ]).argsort(1)[:, :mtry]
            act = np.full(k, -1, dtype=np.intp)
            act[active] = np.arange(active.size)
            a = act[slot]  # each row's node among the active ones, -1 if none
            live = a >= 0
            a = a[live]
            live_rows, live_weight, live_pos = rows[live], weight[live], weight_pos[live]
            node_key = a * n
            rank_at = live_rows * d
            m, m_pos = count[active], pos[active]
            m_start = np.cumsum(m) - m
            pos_start = np.cumsum(m_pos) - m_pos
            p = m_pos / m
            parent_gini = 2.0 * p * (1.0 - p)
            # per (node, candidate): best gain, and the rows either side of it
            best = np.full((active.size, mtry), -np.inf)
            below = np.zeros((active.size, mtry), dtype=np.intp)
            above = np.zeros((active.size, mtry), dtype=np.intp)
            for c in range(mtry):
                # each row's node, then its rank in the node's c-th candidate feature
                key = node_key + flat_ranks[rank_at + cand[:, c][a]]
                q, gain, lo, hi = _best_boundaries(
                    key, a, live_rows, live_weight, live_pos,
                    m, m_pos, m_start, pos_start, parent_gini,
                )
                best[q, c], below[q, c], above[q, c] = gain, lo, hi  # others keep -inf
            choice = best.argmax(axis=1)  # earlier-drawn candidates win ties
            split = np.flatnonzero(best[np.arange(active.size), choice] > _MIN_GINI_GAIN)
            f = cand[split, choice[split]]
            feature[active[split]] = f
            threshold[active[split]] = 0.5 * (
                x[below[split, choice[split]], f] + x[above[split, choice[split]], f]
            )
        inner = feature >= 0
        first_child = np.full(k, -1, dtype=np.intp)
        first_child[inner] = 2 * np.arange(int(inner.sum()))
        value = np.where(inner, 0.0, pos / count)
        levels.append((tree, feature, threshold, first_child, value, count.astype(np.intp)))
        # rows of split nodes move to the next level, left child first
        keep = inner[slot]
        rows, weight, weight_pos, slot = rows[keep], weight[keep], weight_pos[keep], slot[keep]
        slot = first_child[slot] + (x[rows, feature[slot]] > threshold[slot])
        tree = np.repeat(tree[inner], 2)
        if not tree.size:
            break

    # block-wide ids run level by level; restricted to one tree, that order
    # is breadth-first, so each tree's ids are its nodes' ranks in it
    tree, feature, threshold, first_child, value, count = map(np.concatenate, zip(*levels))
    sizes = [level[0].size for level in levels]
    child_base = np.repeat(np.cumsum(sizes), sizes)  # block-wide id of the next level's node 0
    by_tree = np.argsort(tree, kind="stable")
    tree_sizes = np.bincount(tree, minlength=block)
    tree_starts = np.cumsum(tree_sizes) - tree_sizes
    local = np.empty(tree.size, dtype=np.intp)
    local[by_tree] = np.arange(tree.size) - np.repeat(tree_starts, tree_sizes)
    inner = first_child >= 0
    left = np.full(tree.size, -1, dtype=np.intp)
    right = np.full(tree.size, -1, dtype=np.intp)
    left[inner] = local[child_base[inner] + first_child[inner]]
    right[inner] = local[child_base[inner] + first_child[inner] + 1]
    return [
        Tree(feature[ids], threshold[ids], left[ids], right[ids], value[ids], count[ids])
        for ids in np.split(by_tree, tree_starts[1:])
    ]


def fit_forest(
    data: Dataset,
    tree_count: int = 100,
    max_depth: int = 10,
    seed: int = 0,
) -> ForestModel:
    """Fit a bagged forest; deterministic for a fixed seed.

    Tree t is grown from ``default_rng([seed, t])``, in blocks of
    ``_BLOCK_TREES`` trees.  Single-class data is allowed and yields
    single-leaf trees that predict that class's rate (1.0 or 0.0).
    """
    tree_count = check_int(tree_count, "tree_count", 1)
    max_depth = check_int(max_depth, "max_depth", 1)
    seed = check_int(seed, "seed", 0)
    if check_type(data, Dataset, "data").d < 1:
        raise ValueError("a forest needs at least one feature column")
    mtry = max(1, math.isqrt(data.d))
    ranks = _dense_ranks(data.features)
    trees = []
    for lo in range(0, tree_count, _BLOCK_TREES):
        block = range(lo, min(lo + _BLOCK_TREES, tree_count))
        rngs = [np.random.default_rng([seed, t]) for t in block]
        trees += _grow_block(data.features, data.labels, ranks, rngs, max_depth, mtry)
    return ForestModel(tree_count, max_depth, seed, data.d, tuple(trees))


def predict_forest(model: ForestModel, features):
    """Mean of the trees' leaf positive-fractions, in [0, 1]; NaN for a row
    with any NaN feature, as :func:`predict_logistic` gives.

    Accepts one length-d vector (returns a float) or an (n, d) matrix
    (returns a length-n vector).  All trees are walked together, one level
    per step, and their leaf values are summed in tree order.
    """
    x, single = check_rows(features, check_type(model, ForestModel, "model").feature_count)
    trees = model.trees
    sizes = [tree.feature.size for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    shift = np.repeat(roots, sizes)
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    left = np.concatenate([tree.left for tree in trees]) + shift
    right = np.concatenate([tree.right for tree in trees]) + shift
    value = np.concatenate([tree.value for tree in trees])
    total = np.empty(x.shape[0])
    step = max(1, _WALK_PAIRS // len(trees))
    for lo in range(0, x.shape[0], step):
        chunk = x[lo:lo + step]
        node = np.repeat(roots, chunk.shape[0])  # (tree, row) pairs, tree-major
        todo = np.flatnonzero(feature[node] >= 0)
        while todo.size:
            cur = node[todo]
            go_left = chunk[todo % chunk.shape[0], feature[cur]] <= threshold[cur]
            node[todo] = np.where(go_left, left[cur], right[cur])
            todo = todo[feature[node[todo]] >= 0]
        total[lo:lo + step] = np.add.reduce(value[node].reshape(len(trees), -1), axis=0)
    p = total / model.tree_count
    p[np.isnan(x).any(axis=1)] = np.nan  # NaN compares false and would walk right
    return float(p[0]) if single else p


# ---------------------------------------------------------------------------
# scoring and serialization
# ---------------------------------------------------------------------------

def score_dataset(model, data: Dataset) -> ScoreSet:
    """Pair each sample's predicted probability with its label, in order."""
    check_type(data, Dataset, "data")
    if isinstance(check_type(model, _MODELS, "model"), LogisticModel):
        scores = predict_logistic(model, data.features)
    else:
        scores = predict_forest(model, data.features)
    return ScoreSet(scores, data.labels)


def model_to_json(model) -> dict:
    """Serialize a fitted model to its JSON-ready dict form,
    ``{"logistic": {...}}`` or ``{"forest": {...}}``."""
    return to_json(check_type(model, _MODELS, "model"))


def model_from_json(payload: dict):
    """Inverse of :func:`model_to_json`, strict like the config reader;
    every fault, such as a forest that :class:`ForestModel` refuses, raises
    :class:`MalformedModelError`."""
    try:
        return from_json(LogisticModel | ForestModel, payload, "model")
    except (KeyError, ValueError) as exc:
        raise MalformedModelError(exc.args[0]) from None
