"""Dataset generation, CSV I/O, feature selection, and split machinery."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from calibench import (
    Dataset,
    Provenance,
    ScoreSet,
    SyntheticConfig,
    fit_logistic,
    generate_synthetic,
    load_csv,
    load_score_csv,
    make_fold_plan,
    predict_logistic,
    save_csv,
    save_score_csv,
    select_features,
    stratified_split,
    subset,
)
from calibench.errors import (
    DegenerateClassError,
    EmptyFileError,
    IndexOutOfRangeError,
    MissingColumnError,
    NonBinaryLabelError,
    NonNumericFeatureError,
    TooFewSamplesPerClassError,
)
from calibench import datasets
from oracles import row_load_csv, row_load_score_csv


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

def test_synthetic_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(n=0, d=10, seed=1)
    with pytest.raises(ValueError):
        SyntheticConfig(n=10, d=1, seed=1)
    with pytest.raises(ValueError):
        SyntheticConfig(n=10, d=2, seed=-1)
    with pytest.raises(ValueError):
        SyntheticConfig(n=True, d=2, seed=1)


def test_synthetic_labels_follow_the_rule_exactly():
    data = generate_synthetic(SyntheticConfig(n=500, d=4, seed=9))
    want = (data.features[:, 0] + data.features[:, 1] > 1.0).astype(np.int64)
    np.testing.assert_array_equal(data.labels, want)
    assert data.features.min() >= 0.0 and data.features.max() <= 1.0


def test_synthetic_shape_names_and_provenance():
    data = generate_synthetic(SyntheticConfig(n=50, d=3, seed=0))
    assert (data.n, data.d) == (50, 3)
    assert data.feature_names == ("x1", "x2", "x3")
    assert data.provenance.seed == 0
    assert data.provenance.source_path is None


def test_synthetic_determinism_and_class_balance():
    config = SyntheticConfig(n=1000, d=10, seed=42)
    first = generate_synthetic(config)
    second = generate_synthetic(config)
    np.testing.assert_array_equal(first.features, second.features)
    np.testing.assert_array_equal(first.labels, second.labels)
    assert 0.45 <= first.labels.mean() <= 0.55


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(
            features=np.array([[0.1], [0.2]]),
            labels=np.array([0, 2]),
            feature_names=("x1",),
            provenance=Provenance.from_seed(0),
        )
    with pytest.raises(ValueError):
        Dataset(
            features=np.array([[np.nan], [0.2]]),
            labels=np.array([0, 1]),
            feature_names=("x1",),
            provenance=Provenance.from_seed(0),
        )
    with pytest.raises(ValueError):
        Dataset(
            features=np.array([[0.1, 0.2], [0.3, 0.4]]),
            labels=np.array([0, 1]),
            feature_names=("x1",),  # wrong arity
            provenance=Provenance.from_seed(0),
        )


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def test_csv_round_trip_is_bit_exact(tmp_path):
    data = generate_synthetic(SyntheticConfig(n=40, d=5, seed=3))
    path = tmp_path / "data.csv"
    save_csv(data, str(path))
    back = load_csv(str(path))
    np.testing.assert_array_equal(back.features, data.features)
    np.testing.assert_array_equal(back.labels, data.labels)
    assert back.feature_names == data.feature_names
    assert back.provenance.source_path == str(path)


def test_csv_sonar_shaped_fixture_round_trips(tmp_path):
    rng = np.random.default_rng(60)
    data = Dataset(
        features=rng.standard_normal((208, 60)),
        labels=rng.integers(0, 2, size=208),
        feature_names=tuple(f"f{i}" for i in range(60)),
        provenance=Provenance.from_seed(60),
    )
    path = tmp_path / "sonar_shape.csv"
    save_csv(data, str(path))
    back = load_csv(str(path))
    assert (back.n, back.d) == (208, 60)
    np.testing.assert_array_equal(back.features, data.features)
    np.testing.assert_array_equal(back.labels, data.labels)


def test_load_csv_basic_and_errors(tmp_path):
    ok = tmp_path / "ok.csv"
    ok.write_text("f0,f1,y\n0.1,0.2,0\n0.3,0.4,1\n0.5,0.6,1\n")
    data = load_csv(str(ok))
    assert (data.n, data.d) == (3, 2)
    assert data.feature_names == ("f0", "f1")

    missing = tmp_path / "missing.csv"
    missing.write_text("f0,f1\n0.1,0.2\n")
    with pytest.raises(MissingColumnError):
        load_csv(str(missing))

    bad_label = tmp_path / "bad_label.csv"
    bad_label.write_text("f0,y\n0.1,0\n0.2,2\n")
    with pytest.raises(NonBinaryLabelError, match="row 2"):
        load_csv(str(bad_label))

    bad_cell = tmp_path / "bad_cell.csv"
    bad_cell.write_text("f0,f1,y\n0.1,oops,1\n")
    with pytest.raises(NonNumericFeatureError, match="f1"):
        load_csv(str(bad_cell))

    empty = tmp_path / "empty.csv"
    empty.write_text("f0,y\n")
    with pytest.raises(EmptyFileError):
        load_csv(str(empty))

    with pytest.raises(OSError):
        load_csv(str(tmp_path / "does_not_exist.csv"))


def test_score_csv_round_trip(tmp_path):
    scores = ScoreSet([0.125, 0.5, 0.875], [0, 1, 1])
    path = tmp_path / "scores.csv"
    save_score_csv(scores, str(path))
    header = path.read_text().splitlines()[0]
    assert header == "score,y"
    back = load_score_csv(str(path))
    np.testing.assert_array_equal(back.scores, scores.scores)
    np.testing.assert_array_equal(back.labels, scores.labels)


def _mostly(common, rare):
    """``common`` in nine draws out of ten, else ``rare``."""
    return st.integers(0, 9).flatmap(lambda k: rare if k == 0 else common)


# cells that parse in C and by float() alike, mostly; else cells that only
# float() accepts, or that the row parser rejects
_CELL = _mostly(
    st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.sampled_from(["-0.0", "1e-3", "2.5E+2", " 0.25 ", "\t1", "+.5", "5."]),
    st.sampled_from([
        "1e400", "nan", "-inf", "Infinity", '"0.5"', '"1"', "1_0", "0.5#x", "#",
        "", " ", "abc", "0x10", "\x000",
    ])
    | st.text(alphabet="019.-+eE_# \t\"", max_size=5),
)
_LABEL = _mostly(
    st.sampled_from(["0", "1", "0.0", "1.0", "-0", " 1 ", "1e0", "-0.0"]),
    st.sampled_from(["2", "0.5", "nan", "", '"1"', "1_0"]),
)


@st.composite
def _csv_file(draw, label, others):
    """A CSV body: header in any column order, then rows that may be ragged,
    interleaved with blank or whitespace-only lines, with LF, CRLF or CR
    line ends and with or without a final line end."""
    columns = draw(st.permutations([label] + others))
    lines = [",".join(draw(st.sampled_from([c, f" {c}", f'"{c}"'])) for c in columns)]
    for _ in range(draw(st.integers(0, 5))):
        cells = [draw(_LABEL if c == label else _CELL) for c in columns]
        ragged = draw(st.sampled_from([0] * 18 + [-1, 1]))
        lines.append(",".join(cells[:ragged] if ragged < 0 else cells + ["0"] * ragged))
        lines.append(draw(st.sampled_from([None] * 18 + ["", "  "])))
    lines = [line for line in lines if line is not None]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, "", end + end]))


def _outcome(load, path):
    """Everything a loader gives: its arrays' bytes, or its error and message."""
    try:
        data = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(data, ScoreSet):
        return data.scores.tobytes(), data.labels.tobytes()
    return (
        data.features.tobytes(), data.features.shape, data.labels.tobytes(),
        data.feature_names, data.provenance,
    )


_EQUIVALENCE = settings(
    max_examples=400, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_EQUIVALENCE
@given(body=_csv_file("y", ["score"]) | _csv_file("y", ["score", "id"]) | _csv_file("y", ["id"]))
def test_load_score_csv_matches_the_row_parser(tmp_path, body):
    path = tmp_path / "scores.csv"
    path.write_text(body, newline="")
    assert _outcome(load_score_csv, str(path)) == _outcome(row_load_score_csv, str(path))


@_EQUIVALENCE
@given(
    body=_csv_file("y", ["x1"]) | _csv_file("y", ["x1", "x2", "x3"]) | _csv_file("y", [])
    | _csv_file("z", ["x1"])
)
def test_load_csv_matches_the_row_parser(tmp_path, body):
    path = tmp_path / "data.csv"
    path.write_text(body, newline="")
    assert _outcome(load_csv, str(path)) == _outcome(row_load_csv, str(path))


@pytest.mark.parametrize("body", [
    "score,y\n0.1,0\n0.9,1\n",
    "y,score\r\n1,0.9\r\n-0,-0.0\r\n",
    "score,y\r0.25,1\r1e-3,0",
    " id , score , y \n7, 0.5 ,1.0\n8,2.5E-1\t,0\n",
])
def test_clean_score_files_never_reach_the_row_parser(tmp_path, monkeypatch, body):
    path = tmp_path / "scores.csv"
    path.write_text(body, newline="")
    want = _outcome(row_load_score_csv, str(path))
    monkeypatch.setattr(datasets, "_load_rows", None)
    assert _outcome(load_score_csv, str(path)) == want


def test_a_cell_past_the_csv_field_limit_fails_as_before(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("score,y\n0.5,1\n" + " " * 200_000 + "0.25,0\n")
    assert _outcome(load_score_csv, str(path)) == _outcome(row_load_score_csv, str(path))
    assert _outcome(load_score_csv, str(path))[0] is NonNumericFeatureError


def test_clean_dataset_files_never_reach_the_row_parser(tmp_path, monkeypatch):
    data = generate_synthetic(SyntheticConfig(n=40, d=3, seed=5))
    path = tmp_path / "data.csv"
    save_csv(data, str(path))
    want = _outcome(row_load_csv, str(path))
    monkeypatch.setattr(datasets, "_load_rows", None)
    assert _outcome(load_csv, str(path)) == want


# ---------------------------------------------------------------------------
# feature selection / row subsetting
# ---------------------------------------------------------------------------

def test_select_features():
    data = generate_synthetic(SyntheticConfig(n=100, d=10, seed=1))
    informative = select_features(data, [0, 1])
    assert informative.d == 2
    assert informative.feature_names == ("x1", "x2")
    np.testing.assert_array_equal(informative.labels, data.labels)

    everything = select_features(data, list(range(10)))
    np.testing.assert_array_equal(everything.features, data.features)

    with pytest.raises(IndexOutOfRangeError):
        select_features(data, [10])
    with pytest.raises(IndexOutOfRangeError):
        select_features(data, [])


@pytest.mark.parametrize("indices", [[0.5, 1.7], [0.9], [True, False], np.array([[0, 1]])])
def test_row_and_column_selection_reject_non_integer_indices(indices):
    # a fraction used to be truncated (rows 0 and 1, column x1) and a bool
    # taken as 0 or 1
    data = generate_synthetic(SyntheticConfig(n=20, d=3, seed=2))
    for select in (subset, select_features):
        with pytest.raises(ValueError, match="^indices must be a 1-D vector of integers"):
            select(data, indices)


@pytest.mark.parametrize("indices", [[True, 2], (2, False), [1, np.True_]])
def test_row_and_column_selection_reject_a_bool_among_integers(indices):
    # NumPy reads [True, 2] as the integers [1, 2], so subset took rows 1 and 2
    data = generate_synthetic(SyntheticConfig(n=20, d=3, seed=2))
    for select in (subset, select_features):
        with pytest.raises(ValueError, match="^indices must be .* integers, got a bool among them"):
            select(data, indices)


def test_noise_only_feature_gives_chance_accuracy():
    data = generate_synthetic(SyntheticConfig(n=4000, d=10, seed=11))
    noise_only = select_features(data, [9])
    train, test = stratified_split(noise_only, 0.5, seed=1)
    model = fit_logistic(train, C=1.0)
    accuracy = np.mean((predict_logistic(model, test.features) > 0.5) == test.labels)
    assert 0.45 <= accuracy <= 0.55


def test_subset_selects_rows():
    data = generate_synthetic(SyntheticConfig(n=20, d=3, seed=2))
    rows = subset(data, [3, 5, 7])
    assert rows.n == 3
    np.testing.assert_array_equal(rows.features, data.features[[3, 5, 7]])
    np.testing.assert_array_equal(rows.labels, data.labels[[3, 5, 7]])
    with pytest.raises(IndexOutOfRangeError):
        subset(data, [20])


# ---------------------------------------------------------------------------
# stratified splitting
# ---------------------------------------------------------------------------

def _tiny_dataset(n_pos, n_neg, seed=0):
    rng = np.random.default_rng(seed)
    n = n_pos + n_neg
    labels = np.array([1] * n_pos + [0] * n_neg)
    return Dataset(
        features=rng.random((n, 2)),
        labels=labels,
        feature_names=("x1", "x2"),
        provenance=Provenance.from_seed(seed),
    )


def test_stratified_split_hand_counts():
    data = _tiny_dataset(5, 5)
    train, test = stratified_split(data, 0.8, seed=0)
    assert train.n == 8 and test.n == 2
    assert train.labels.sum() == 4 and test.labels.sum() == 1

    big = generate_synthetic(SyntheticConfig(n=1000, d=10, seed=42))
    train, test = stratified_split(big, 0.8, seed=0)
    assert train.n == 800 and test.n == 200


def test_stratified_split_is_a_partition_and_deterministic():
    data = generate_synthetic(SyntheticConfig(n=137, d=3, seed=5))
    a_train, a_test = stratified_split(data, 0.6, seed=9)
    b_train, b_test = stratified_split(data, 0.6, seed=9)
    np.testing.assert_array_equal(a_train.features, b_train.features)
    np.testing.assert_array_equal(a_test.features, b_test.features)
    # the two parts together contain every original row exactly once
    stacked = np.vstack([a_train.features, a_test.features])
    order = np.lexsort(stacked.T)
    want_order = np.lexsort(data.features.T)
    np.testing.assert_array_equal(stacked[order], data.features[want_order])


def test_stratified_split_per_class_deviation_at_most_one():
    rng = np.random.default_rng(31)
    for _ in range(150):
        n_pos = int(rng.integers(2, 25))
        n_neg = int(rng.integers(2, 25))
        ratio = float(rng.uniform(0.05, 0.95))
        data = _tiny_dataset(n_pos, n_neg, seed=int(rng.integers(1 << 30)))
        train, test = stratified_split(data, ratio, seed=int(rng.integers(1 << 30)))
        assert train.n + test.n == data.n
        for count, part in ((n_pos, 1), (n_neg, 0)):
            got = int((train.labels == part).sum())
            assert abs(got - count * ratio) <= 1.0 + 1e-9
            # both sides keep at least one sample of each class
            assert 1 <= got <= count - 1


def test_stratified_split_errors():
    with pytest.raises(DegenerateClassError):
        stratified_split(_tiny_dataset(1, 5), 0.5, seed=0)
    with pytest.raises(ValueError):
        stratified_split(_tiny_dataset(5, 5), 1.0, seed=0)
    with pytest.raises(ValueError):
        stratified_split(_tiny_dataset(5, 5), 0.0, seed=0)


# ---------------------------------------------------------------------------
# fold plans
# ---------------------------------------------------------------------------

def test_fold_plan_shape_and_partition():
    data = generate_synthetic(SyntheticConfig(n=120, d=3, seed=8))
    plan = make_fold_plan(data, folds=5, repeats=10, base_seed=7)
    assert len(plan.assignments) == 50
    for repeat in range(10):
        tests = [
            a.test_indices for a in plan.assignments if a.repeat_index == repeat
        ]
        assert len(tests) == 5
        joined = np.sort(np.concatenate(tests))
        np.testing.assert_array_equal(joined, np.arange(data.n))
    for a in plan.assignments:
        assert np.intersect1d(a.train_indices, a.test_indices).size == 0
        np.testing.assert_array_equal(
            np.sort(np.concatenate([a.train_indices, a.test_indices])),
            np.arange(data.n),
        )


def test_fold_plan_stratifies_tiny_dataset():
    plan = make_fold_plan(_tiny_dataset(2, 2), folds=2, repeats=1, base_seed=0)
    data = _tiny_dataset(2, 2)
    for a in plan.assignments:
        fold_labels = data.labels[a.test_indices]
        assert fold_labels.sum() == 1 and fold_labels.size == 2


def test_fold_plan_determinism_and_lookup():
    data = generate_synthetic(SyntheticConfig(n=60, d=2, seed=3))
    first = make_fold_plan(data, folds=3, repeats=2, base_seed=11)
    second = make_fold_plan(data, folds=3, repeats=2, base_seed=11)
    for a, b in zip(first.assignments, second.assignments):
        np.testing.assert_array_equal(a.test_indices, b.test_indices)
    cell = first.assignment(1, 2)
    assert (cell.repeat_index, cell.fold_index) == (1, 2)


def test_fold_plan_rejects_small_classes():
    with pytest.raises(TooFewSamplesPerClassError):
        make_fold_plan(_tiny_dataset(3, 50), folds=5, repeats=1, base_seed=0)
    with pytest.raises(ValueError):
        make_fold_plan(_tiny_dataset(5, 5), folds=1, repeats=1, base_seed=0)
