"""Post-hoc calibration maps: Platt scaling and isotonic regression.

Platt scaling fits ``sigma(A*s + B)`` to (score, label) pairs by minimizing
the negative log-likelihood plus a small ridge term ``ridge*(A^2+B^2)/2``
(the ridge guarantees a finite optimum on separable or single-class
calibration sets) with the damped Newton solver that logistic regression
also uses.

Isotonic regression computes the unique squared-error-minimizing
non-decreasing fit of labels against scores — a right-continuous step
function with at most one step per distinct training score — via the pool
adjacent violators (PAV) algorithm.  Tied scores are pooled to their label
mean before PAV so the result is a well-defined function of the score.
The PAV core is linear in n after sorting: vectorized passes pool maximal
non-increasing runs while they remove at least 5% of the blocks (any order
of merges of adjacent blocks whose values do not increase reaches the same
unique fixpoint), and a sequential stack finishes the stragglers.  On 0/1
labels the passes alone reach the fixpoint: pooling equal neighbours too
collapses the plateaus of equal block means that tied labels leave.
Application looks a score up among the starts of the map's constant levels
only, not among all its knots.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from .errors import CalibrationWarning, DegenerateLabelsError
from ._util import (
    Checked, check_finite, check_int, check_pairs, check_probs, check_real,
    check_same_length, check_type, damped_newton, from_json, readonly, sigmoid, to_json,
)

__all__ = [
    "METHODS",
    "ScoreSet",
    "PlattMap",
    "IsotonicMap",
    "IdentityMap",
    "fit_platt",
    "fit_isotonic",
    "fit_calibrated_pipeline",
    "apply_map",
    "map_to_json",
    "map_from_json",
]

# method name -> its fit, the one place a name becomes a fit.  Platt fits
# the smoothed targets, the variant that reproduces the published reference
# measurements.  Each entry looks its fitter up by name when called, so a
# wrapper set on the module attribute (a profiler's, say) sees every fit.
_FITS = {
    "uncalibrated": lambda data: IdentityMap(),
    "platt": lambda data: fit_platt(data, smooth_targets=True),
    "isotonic": lambda data: fit_isotonic(data),
}
METHODS = tuple(_FITS)


@dataclass(frozen=True)
class ScoreSet(Checked):
    """Paired (score, label) vectors — the universal calibrator/metric input."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        s, y = check_pairs(self.scores, self.labels, "scores", check_finite, 0)
        object.__setattr__(self, "scores", readonly(s, self.scores))
        object.__setattr__(self, "labels", readonly(y))

    @property
    def n(self) -> int:
        return self.scores.size


@dataclass(frozen=True)
class PlattMap:
    """Fitted sigmoid calibration map s -> sigma(A*s + B), A and B finite.
    The fit's diagnostics describe how it was found, not the map, and JSON
    leaves them out."""

    json_kind = "platt"
    A: float
    B: float
    iterations_used: int = field(default=0, metadata={"json": "omit"})
    final_gradient_norm: float = field(default=float("nan"), metadata={"json": "omit"})

    def __post_init__(self):
        check_real(self.A, "A")
        check_real(self.B, "B")
        check_int(self.iterations_used, "iterations_used", 0)


@dataclass(frozen=True)
class IsotonicMap(Checked):
    """Right-continuous non-decreasing step function over score knots.

    ``knots`` are (a subset of) the distinct training scores, finite and
    strictly increasing; ``values`` are the fitted block values,
    non-decreasing and inside [0, 1].  Application below the first knot
    clamps to the first value, above the last knot to the last value.
    """

    json_kind = "isotonic"
    knots: npt.NDArray[np.float64]
    values: npt.NDArray[np.float64]

    def __post_init__(self):
        k, v = check_finite(self.knots, "knots"), check_probs(self.values, "values")
        check_same_length(k, v, "knots and values")
        if k.size == 0:
            raise ValueError("knots: an isotonic map needs at least one knot")
        if (np.diff(k) <= 0).any():
            raise ValueError("knots must be strictly increasing")
        if (np.diff(v) < 0).any():
            raise ValueError("values must be non-decreasing")
        object.__setattr__(self, "knots", readonly(k, self.knots))
        object.__setattr__(self, "values", readonly(v, self.values))


@dataclass(frozen=True)
class IdentityMap:
    """The 'uncalibrated' map: returns its input clamped to [0, 1]."""

    json_kind = "identity"


_MAPS = (PlattMap, IsotonicMap, IdentityMap)


# ---------------------------------------------------------------------------
# Platt scaling
# ---------------------------------------------------------------------------

def fit_platt(
    data: ScoreSet,
    ridge: float = 1e-6,
    tol: float = 1e-8,
    max_iter: int = 100,
    smooth_targets: bool = False,
) -> PlattMap:
    """Fit sigma(A*s + B) by penalized maximum likelihood.

    Minimizes the negative log-likelihood plus ``ridge*(A^2+B^2)/2`` by
    Newton-Raphson with step halving.  Converged when the gradient
    max-norm is at most ``tol``, or when an accepted step leaves (A, B)
    unchanged in floating point: a fixed point, where
    ``final_gradient_norm`` may exceed ``tol``.

    ``smooth_targets=True`` replaces the raw 0/1 labels with the classic
    smoothed pseudo-targets (N+ + 1)/(N+ + 2) and 1/(N- + 2); the default
    fits the raw labels.

    Single-class labels have no maximum-likelihood solution: with
    ``ridge == 0`` this raises :class:`DegenerateLabelsError`; with a
    positive ridge the fit proceeds and a :class:`CalibrationWarning`
    is emitted.
    """
    check_type(data, ScoreSet, "data")
    ridge = check_real(ridge, "ridge", 0.0, np.inf, "[)")
    tol = check_real(tol, "tol", 0.0, np.inf, "[)")
    max_iter = check_int(max_iter, "max_iter", 0)
    s = data.scores
    y = data.labels
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        if ridge == 0.0:
            raise DegenerateLabelsError(
                "calibration labels contain a single class and ridge is 0; "
                "the likelihood is unbounded"
            )
        warnings.warn(
            "calibration labels contain a single class; the ridge term alone "
            "bounds the fit",
            CalibrationWarning,
            stacklevel=2,
        )
    if smooth_targets:
        t = np.where(y == 1, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))
    else:
        t = y.astype(np.float64)

    def objective(params) -> float:
        a, b = params.tolist()
        z = a * s + b
        return float(np.sum(np.logaddexp(0.0, z) - t * z)) + 0.5 * ridge * (a * a + b * b)

    def newton(params):
        a, b = params.tolist()
        p = sigmoid(a * s + b)
        resid = p - t
        gA = float(resid @ s) + ridge * a
        gB = float(resid.sum()) + ridge * b

        def solve():
            w = p * (1.0 - p)
            h_aa = float(w @ (s * s)) + ridge
            h_ab = float(w @ s)
            h_bb = float(w.sum()) + ridge
            det = h_aa * h_bb - h_ab * h_ab
            if det > 0.0 and np.isfinite(det):
                return np.array([-(h_bb * gA - h_ab * gB) / det, -(h_aa * gB - h_ab * gA) / det])
            return np.array([-gA, -gB])  # singular Hessian: a gradient step

        return max(abs(gA), abs(gB)), solve

    params, iterations, gnorm = damped_newton("Platt", np.zeros(2), newton, objective, tol, max_iter)
    A, B = params.tolist()
    return PlattMap(A=A, B=B, iterations_used=iterations, final_gradient_norm=gnorm)


# ---------------------------------------------------------------------------
# isotonic regression (PAV)
# ---------------------------------------------------------------------------

def _pav_stack(values: np.ndarray, weights: np.ndarray, starts: np.ndarray):
    """Sequential stack PAV over block arrays; merges on >= so equal-valued
    neighbours pool too.  Guaranteed linear in the number of blocks."""
    out_v: list = []
    out_w: list = []
    out_s: list = []
    for v, w, st in zip(values.tolist(), weights.tolist(), starts.tolist()):
        out_v.append(v)
        out_w.append(w)
        out_s.append(st)
        while len(out_v) > 1 and out_v[-2] >= out_v[-1]:
            v1 = out_v.pop()
            w1 = out_w.pop()
            out_s.pop()
            w0 = out_w[-1]
            total = w0 + w1
            out_v[-1] = (out_v[-1] * w0 + v1 * w1) / total
            out_w[-1] = total
    return np.array(out_v), np.array(out_w), np.array(out_s, dtype=np.intp)


def _pav_block_starts(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Start indices (into the input) of the PAV solution blocks.

    Vectorized passes pool every maximal non-increasing run at once, the
    merge rule of :func:`_pav_stack`, while a pass removes at least 5% of
    the blocks; a sequential stack finishes when passes stall.  Total work
    is O(n).  Each pass is a batch of valid merges, and valid merges reach
    the same fixpoint in any order.  Pooling equal neighbours is valid: in
    the solution, a block's last input value is at most the block's fitted
    value and its first input value at least it, so where an input value
    does not rise to its right neighbour's, the two lie in one block.
    Without it, the plateaus of equal means that 0/1 labels leave stall the
    passes (on 200k Bernoulli(s^2) labels, 18 passes left ~49k blocks to the
    stack); with it, 13 passes reach the ~140 final blocks.  The returned
    blocks have strictly increasing values.
    """
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    starts = np.arange(v.size, dtype=np.intp)
    while v.size > 1:
        viol = v[:-1] >= v[1:]
        n_viol = int(np.count_nonzero(viol))
        if n_viol == 0:
            break
        if n_viol < (v.size >> 5) + 1 and v.size > 4096:
            v, w, starts = _pav_stack(v, w, starts)
            break
        keep = np.empty(v.size, dtype=bool)
        keep[0] = True
        np.logical_not(viol, out=keep[1:])
        sel = np.flatnonzero(keep)
        vw = np.add.reduceat(v * w, sel)
        w = np.add.reduceat(w, sel)
        v = vw / w
        starts = starts[sel]
    return starts


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Indices at which a run of equal values in ``a`` (non-empty) starts."""
    new = np.empty(a.size, dtype=bool)
    new[0] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return np.flatnonzero(new)


def fit_isotonic(data: ScoreSet) -> IsotonicMap:
    """Least-squares non-decreasing fit of labels against scores (PAV).

    Runs in O(n log n) dominated by the sort; the PAV pass itself is linear.
    Ties are pooled to their label mean first, and each output block's value
    equals the exact mean of the labels it pools (computed from raw label
    sums, so the block-mean identity holds to the last bit for 0/1 labels).
    The sort need not be stable: tied scores pool into one knot, and the
    sum of its 0/1 labels is an exact integer in any order.
    """
    if check_type(data, ScoreSet, "data").n < 1:
        raise ValueError("isotonic regression needs at least one sample")
    order = np.argsort(data.scores)
    s_sorted = data.scores[order]
    y_sorted = data.labels[order].astype(np.float64)

    knot_starts = _run_starts(s_sorted)  # pool exact ties: one knot per distinct score
    knots = s_sorted[knot_starts]
    counts = np.diff(np.append(knot_starts, s_sorted.size)).astype(np.float64)
    label_sums = np.add.reduceat(y_sorted, knot_starts)

    block_starts = _pav_block_starts(label_sums / counts, counts)
    block_sums = np.add.reduceat(label_sums, block_starts)
    block_counts = np.add.reduceat(counts, block_starts)
    block_values = block_sums / block_counts
    np.clip(block_values, 0.0, 1.0, out=block_values)

    block_sizes = np.diff(np.append(block_starts, knots.size))
    values = np.repeat(block_values, block_sizes)
    return IsotonicMap(knots=knots, values=values)


# ---------------------------------------------------------------------------
# dispatch and application
# ---------------------------------------------------------------------------

def fit_calibrated_pipeline(base_scores: ScoreSet | None, method: str):
    """Fit the named calibration method on ``base_scores``.

    ``method`` is one of :data:`METHODS`: ``"uncalibrated"`` (the identity
    map; ``base_scores`` may then be None), ``"platt"`` (:func:`fit_platt`
    on the smoothed targets, ``smooth_targets=True``) or ``"isotonic"``
    (:func:`fit_isotonic`).  A method name means this one fit everywhere
    in the library, so refitting a pipeline artifact's ``method_name``
    reproduces its map.
    """
    fit = _FITS.get(str(method).lower())
    if fit is None:
        raise ValueError(f"unknown calibration method {method!r}; valid: {', '.join(METHODS)}")
    if fit is not _FITS["uncalibrated"]:
        check_type(base_scores, ScoreSet, "base_scores")
    return fit(base_scores)


def apply_map(calibration_map, score):
    """Apply a fitted calibration map to a score or vector of scores.

    Platt maps evaluate sigma(A*score + B); isotonic maps do a
    right-continuous step lookup (the value at the largest knot <= score),
    clamped to the end values outside the knot range; the identity map
    clamps its input to [0, 1].  Every map sends NaN to NaN, and +-inf to
    its limit.  Scalar in, scalar out; vector in, vector out.
    """
    check_type(calibration_map, _MAPS, "calibration_map")
    scalar = np.isscalar(score) or np.ndim(score) == 0
    s = np.atleast_1d(np.asarray(score, dtype=np.float64))
    if isinstance(calibration_map, PlattMap):
        out = sigmoid(calibration_map.A * s + calibration_map.B)
    elif isinstance(calibration_map, IsotonicMap):
        # the value at the largest knot <= s is the value at the largest
        # start of a run of equal values <= s
        values = calibration_map.values
        level = _run_starts(values)
        idx = np.searchsorted(calibration_map.knots[level], s, side="right") - 1
        np.maximum(idx, 0, out=idx)
        out = values[level[idx]]
        out[np.isnan(s)] = np.nan
    else:
        out = np.clip(s, 0.0, 1.0)
    return float(out[0]) if scalar else out


def map_to_json(calibration_map) -> dict:
    """Serialize a calibration map to its JSON-ready dict form:
    ``{"platt": {"A", "B"}}``, ``{"isotonic": {"knots", "values"}}`` or
    ``{"identity": {}}``."""
    return to_json(check_type(calibration_map, _MAPS, "calibration_map"))


def map_from_json(payload: dict):
    """Inverse of :func:`map_to_json`, strict like the config reader; every
    fault raises ``ValueError``."""
    try:
        return from_json(PlattMap | IsotonicMap | IdentityMap, payload, "map")
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
