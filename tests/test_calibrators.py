"""Calibration-map fitting: hand-checked fits, brute-force oracle agreement,
monotonicity/structure guarantees, and serialization round trips."""

import math
import warnings

import numpy as np
import pytest

from calibench import (
    METHODS,
    IdentityMap,
    IsotonicMap,
    PlattMap,
    ScoreSet,
    apply_map,
    auc,
    fit_calibrated_pipeline,
    fit_isotonic,
    fit_platt,
    map_from_json,
    map_to_json,
)
from calibench import calibrators
from calibench._util import sigmoid
from calibench.calibrators import _pav_block_starts, _pav_stack
from calibench.errors import (
    CalibrationWarning,
    DegenerateLabelsError,
    LengthMismatchError,
    NonFiniteScoreError,
    NotConvergedError,
    ProbabilityOutOfRangeError,
)

from oracles import brute_force_isotonic, full_knot_isotonic_lookup, masked_sigmoid


def _fitted_values_per_sample(iso: IsotonicMap, scores) -> np.ndarray:
    return apply_map(iso, np.asarray(scores, dtype=float))


# ---------------------------------------------------------------------------
# ScoreSet
# ---------------------------------------------------------------------------

def test_score_set_basics():
    data = ScoreSet([0.1, 0.9], [0, 1])
    assert data.n == 2
    assert not data.scores.flags.writeable
    assert not data.labels.flags.writeable


def test_score_set_validation():
    with pytest.raises(LengthMismatchError):
        ScoreSet([0.1, 0.2], [0])
    with pytest.raises(ValueError):
        ScoreSet([0.1], [2])
    with pytest.raises(ValueError):
        ScoreSet([float("inf")], [1])


# ---------------------------------------------------------------------------
# isotonic fitting
# ---------------------------------------------------------------------------

def test_isotonic_hand_cases():
    fit = fit_isotonic(ScoreSet([1.0, 2.0, 3.0, 4.0], [0, 1, 0, 1]))
    np.testing.assert_allclose(
        _fitted_values_per_sample(fit, [1, 2, 3, 4]), [0.0, 0.5, 0.5, 1.0], atol=1e-15
    )
    fit = fit_isotonic(ScoreSet([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1]))
    np.testing.assert_allclose(
        _fitted_values_per_sample(fit, [1, 2, 3, 4]), [0.0, 0.0, 1.0, 1.0], atol=1e-15
    )
    fit = fit_isotonic(ScoreSet([1.0, 2.0], [1, 0]))
    np.testing.assert_allclose(
        _fitted_values_per_sample(fit, [1, 2]), [0.5, 0.5], atol=1e-15
    )


def test_isotonic_applies_as_right_continuous_step():
    fit = fit_isotonic(ScoreSet([1.0, 2.0, 3.0, 4.0], [0, 1, 0, 1]))
    assert apply_map(fit, 2.5) == 0.5    # between knots -> value of knot 2
    assert apply_map(fit, 100.0) == 1.0  # beyond last knot -> last value
    assert apply_map(fit, -100.0) == 0.0  # below first knot -> first value
    assert isinstance(apply_map(fit, 2.5), float)


def test_isotonic_pools_tied_scores():
    fit = fit_isotonic(ScoreSet([0.3, 0.3, 0.3, 0.7], [0, 1, 1, 1]))
    assert fit.knots.tolist() == [0.3, 0.7]
    np.testing.assert_allclose(fit.values, [2.0 / 3.0, 1.0], atol=1e-15)


def test_isotonic_matches_brute_force_oracle_small():
    rng = np.random.default_rng(77)
    for _ in range(150):
        n = int(rng.integers(1, 11))
        scores = np.round(rng.random(n), 1)  # coarse grid provokes ties
        labels = rng.integers(0, 2, size=n)
        fit = fit_isotonic(ScoreSet(scores, labels))
        knots, want = brute_force_isotonic(scores, labels)
        np.testing.assert_array_equal(fit.knots, knots)
        np.testing.assert_allclose(fit.values, want, atol=1e-9)


def test_isotonic_block_values_are_exact_label_means():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 400))
        scores = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        fit = fit_isotonic(ScoreSet(scores, labels))
        assert np.all(np.diff(fit.values) >= 0.0)
        fitted = _fitted_values_per_sample(fit, scores)
        # each maximal constant block's value must equal the bitwise-exact
        # mean of the labels it covers
        for value in np.unique(fitted):
            members = fitted == value
            assert value == np.mean(labels[members])
        assert np.mean(fitted) == pytest.approx(np.mean(labels), abs=1e-12)


def test_pav_hybrid_equals_pure_stack():
    rng = np.random.default_rng(123)
    cases = [
        rng.random(20_000),                                  # random
        np.sort(rng.random(20_000)),                         # already monotone
        np.sort(rng.random(20_000))[::-1].copy(),            # fully reversed
        np.tile([1.0, 0.0], 10_000),                         # alternating
    ]
    # ramp cascade: long rising ramps that each collapse into the previous
    ramp = np.concatenate([np.arange(k, dtype=float) - 2.0 * k for k in (700, 500, 300, 100)])
    cases.append(ramp)
    for values in cases:
        weights = rng.integers(1, 4, size=values.size).astype(float)
        got = _pav_block_starts(values, weights)
        _, _, want = _pav_stack(values, weights, np.arange(values.size, dtype=np.intp))
        np.testing.assert_array_equal(got, want)


def _bernoulli_labels(rng, n):
    """0/1 labels drawn as Bernoulli(s^2) at sorted uniform scores s: long
    plateaus of equal labels, and of equal means once tied scores pool."""
    return (rng.random(n) < np.sort(rng.random(n)) ** 2).astype(np.float64)


def test_pav_passes_equal_the_stack_on_bernoulli_plateaus():
    rng = np.random.default_rng(14)
    labels = _bernoulli_labels(rng, 20_000)
    weights = rng.integers(1, 4, size=labels.size).astype(float)
    # label sums of tied scores, one knot each: plateaus of equal means
    pooled = rng.binomial(weights.astype(np.int64), np.sort(rng.random(labels.size)) ** 2)
    for values in (labels, pooled / weights):
        got = _pav_block_starts(values, weights)
        _, _, want = _pav_stack(values, weights, np.arange(values.size, dtype=np.intp))
        np.testing.assert_array_equal(got, want)


def test_isotonic_matches_brute_force_oracle_on_0_1_plateaus():
    rng = np.random.default_rng(1414)
    for _ in range(150):
        n = int(rng.integers(1, 13))
        scores = np.sort(rng.integers(0, 12, size=n)).astype(float)  # tied knots
        labels = _bernoulli_labels(rng, n).astype(np.int64)
        fit = fit_isotonic(ScoreSet(scores, labels))
        knots, want = brute_force_isotonic(scores, labels)
        np.testing.assert_array_equal(fit.knots, knots)
        np.testing.assert_array_equal(fit.values, want)  # exact: integer sums / counts


def test_large_bernoulli_isotonic_fit_needs_no_stack(monkeypatch):
    def stack(*args):
        raise AssertionError("the vectorized passes stalled")

    monkeypatch.setattr(calibrators, "_pav_stack", stack)
    rng = np.random.default_rng(3)
    scores = rng.random(200_000)
    labels = (rng.random(scores.size) < scores**2).astype(np.int64)
    fit = fit_isotonic(ScoreSet(scores, labels))
    assert np.all(np.diff(fit.values) >= 0.0)


# ---------------------------------------------------------------------------
# same bits as the masked sigmoid and the full-knot isotonic lookup
# ---------------------------------------------------------------------------

def _assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_sigmoid_equals_the_masked_sigmoid_bit_for_bit():
    rng = np.random.default_rng(68)
    for scale in np.logspace(-3, 3, 13):
        for n in (1, 40, 10_000):
            z = rng.standard_normal(n) * scale
            _assert_same_bits(sigmoid(z), masked_sigmoid(z))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 1e308, -1e308])
    _assert_same_bits(sigmoid(special), masked_sigmoid(special))


def _lookup_cases():
    rng = np.random.default_rng(69)
    yield np.array([0.5]), np.array([0.25])                       # one knot
    yield np.arange(5.0), np.full(5, 0.4)                         # all values equal
    yield np.arange(6.0), np.array([0.0, 0.0, 0.5, 0.5, 0.5, 1.0])
    knots = np.sort(rng.choice(np.linspace(-1.0, 2.0, 4001), 300, replace=False))
    yield knots, np.sort(rng.integers(0, 8, size=300)) / 7.0      # long plateaus
    yield knots, np.sort(rng.random(300))                         # every value distinct


def test_isotonic_lookup_equals_the_full_knot_search():
    rng = np.random.default_rng(70)
    for knots, values in _lookup_cases():
        iso = IsotonicMap(knots=knots, values=values)
        gaps = (knots[:-1] + knots[1:]) / 2.0
        queries = np.concatenate([
            knots, gaps, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
            [knots[0] - 1.0, knots[-1] + 1.0, -np.inf, np.inf, np.nan],
            rng.uniform(knots[0] - 1.0, knots[-1] + 1.0, size=500),
        ])
        _assert_same_bits(apply_map(iso, queries), full_knot_isotonic_lookup(knots, values, queries))
        for q in queries[:20]:
            want = full_knot_isotonic_lookup(knots, values, [q])[0]
            assert apply_map(iso, float(q)) == want or math.isnan(want)


# ---------------------------------------------------------------------------
# Platt fitting
# ---------------------------------------------------------------------------

def test_platt_antisymmetric_data_forces_zero_intercept():
    fit = fit_platt(ScoreSet([-1.0, 1.0], [0, 1]))
    assert abs(fit.B) < 1e-6
    assert fit.A > 0.0


def test_platt_reaches_gradient_tolerance():
    rng = np.random.default_rng(2)
    s = rng.uniform(-3, 3, size=500)
    y = (rng.random(500) < 1.0 / (1.0 + np.exp(-(1.5 * s - 0.5)))).astype(np.int64)
    fit = fit_platt(ScoreSet(s, y))
    assert fit.final_gradient_norm <= 1e-8
    assert fit.iterations_used >= 1


def test_platt_single_class_behaviour():
    ones = ScoreSet([0.2, 0.6, 0.9], [1, 1, 1])
    with pytest.raises(DegenerateLabelsError):
        fit_platt(ones, ridge=0.0)
    with pytest.warns(CalibrationWarning):
        fit = fit_platt(ones)  # default ridge keeps the optimum finite
    assert math.isfinite(fit.A) and math.isfinite(fit.B)


def test_platt_not_converged_raises():
    rng = np.random.default_rng(3)
    s = rng.uniform(-4, 4, size=1000)
    y = (rng.random(1000) < 1.0 / (1.0 + np.exp(-2.0 * s))).astype(np.int64)
    with pytest.raises(NotConvergedError):
        fit_platt(ScoreSet(s, y), max_iter=1)


def test_platt_smoothed_targets_pull_predictions_inward():
    rng = np.random.default_rng(4)
    s = rng.uniform(0, 1, size=300)
    y = (s > 0.5).astype(np.int64)  # separable: raw fit saturates
    raw = fit_platt(ScoreSet(s, y))
    smooth = fit_platt(ScoreSet(s, y), smooth_targets=True)
    probe = np.linspace(0, 1, 101)
    assert apply_map(smooth, probe).max() < apply_map(raw, probe).max()
    assert apply_map(smooth, probe).min() > apply_map(raw, probe).min()


def test_platt_map_preserves_auc_for_positive_slope():
    rng = np.random.default_rng(6)
    scores = rng.random(500)
    labels = (rng.random(500) < scores).astype(np.int64)
    cal_map = PlattMap(A=2.5, B=-1.0)
    assert auc(apply_map(cal_map, scores), labels) == auc(scores, labels)


def test_platt_rejects_negative_ridge():
    with pytest.raises(ValueError):
        fit_platt(ScoreSet([0.1, 0.9], [0, 1]), ridge=-1.0)


# ---------------------------------------------------------------------------
# apply_map / dispatch
# ---------------------------------------------------------------------------

def test_apply_map_platt_identity_point():
    assert apply_map(PlattMap(A=1.0, B=0.0), 0.0) == 0.5


def test_apply_map_identity_clamps():
    m = IdentityMap()
    assert apply_map(m, 0.4) == 0.4
    assert apply_map(m, 1.7) == 1.0
    assert apply_map(m, -0.3) == 0.0
    np.testing.assert_array_equal(apply_map(m, [0.2, 0.8]), [0.2, 0.8])


def test_apply_map_sends_nan_to_nan_for_every_map_kind():
    maps = (
        PlattMap(A=2.0, B=-1.0),
        IsotonicMap(knots=np.array([0.0, 0.5]), values=np.array([0.2, 0.8])),
        IdentityMap(),
    )
    for m in maps:
        assert math.isnan(apply_map(m, float("nan")))
        out = apply_map(m, np.array([0.5, np.nan, 0.25, np.nan]))
        np.testing.assert_array_equal(np.isnan(out), [False, True, False, True])
        np.testing.assert_array_equal(out[[0, 2]], apply_map(m, np.array([0.5, 0.25])))


def test_pipeline_dispatch():
    data = ScoreSet([0.1, 0.4, 0.6, 0.9], [0, 0, 1, 1])
    assert METHODS == ("uncalibrated", "platt", "isotonic")
    # "platt" names the smoothed-target fit the benchmark and pipeline use
    platt = fit_calibrated_pipeline(data, "platt")
    assert platt == fit_platt(data, smooth_targets=True)
    assert platt != fit_platt(data)
    assert isinstance(fit_calibrated_pipeline(data, "isotonic"), IsotonicMap)
    assert isinstance(fit_calibrated_pipeline(data, "uncalibrated"), IdentityMap)
    with pytest.raises(ValueError):
        fit_calibrated_pipeline(data, "temperature")


def test_isotonic_map_validates_structure():
    with pytest.raises(ValueError):
        IsotonicMap(knots=np.array([1.0, 1.0]), values=np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        IsotonicMap(knots=np.array([1.0, 2.0]), values=np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        IsotonicMap(knots=np.array([1.0, 2.0]), values=np.array([0.5, 1.4]))
    with pytest.raises(LengthMismatchError):
        IsotonicMap(knots=np.array([1.0, 2.0]), values=np.array([0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_isotonic_map_rejects_non_finite_knots_and_values(bad):
    # a NaN knot fails every comparison of the increasing check, so such a map
    # used to load, and applying it lost the level at that knot
    with pytest.raises(NonFiniteScoreError, match="^knots must be finite"):
        IsotonicMap([0.0, bad, 1.0], [0.1, 0.5, 0.9])
    with pytest.raises(ProbabilityOutOfRangeError, match="^values must lie in"):
        IsotonicMap([0.0, 0.5, 1.0], [0.1, bad, 0.9])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_map_json_round_trips():
    platt = PlattMap(A=1.5, B=-0.25)
    back = map_from_json(map_to_json(platt))
    assert (back.A, back.B) == (platt.A, platt.B)

    iso = fit_isotonic(ScoreSet([0.1, 0.5, 0.9], [0, 1, 1]))
    back = map_from_json(map_to_json(iso))
    np.testing.assert_array_equal(back.knots, iso.knots)
    np.testing.assert_array_equal(back.values, iso.values)

    ident = map_from_json(map_to_json(IdentityMap()))
    assert isinstance(ident, IdentityMap)


def test_map_json_rejects_unknown_payload():
    with pytest.raises(ValueError):
        map_from_json({"spline": {}})
    with pytest.raises(ValueError):
        map_from_json({})
    with pytest.raises(ValueError, match="platt: missing key 'A'"):
        map_from_json({"platt": {}})
    # a non-finite parameter would send scores to NaN or to exactly 0 or 1
    for bad in ("inf", "-inf", None):
        for body in ({"A": bad, "B": 0.0}, {"A": 1.0, "B": bad}):
            name = "A" if body["A"] == bad else "B"
            with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
                map_from_json({"platt": body})
