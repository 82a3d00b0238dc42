"""Dataset construction, CSV ingestion, and stratified resampling plans.

The synthetic generator draws features i.i.d. uniform on [0,1]^d from a
seeded PCG64 generator and labels each row 1 exactly when x1 + x2 > 1.
CSV ingestion is strict: every column a loader reads must parse as a
finite number and the label column must hold only 0/1.  One reader serves
datasets and score files.  NumPy's C reader (``np.loadtxt``) parses the
data rows, and its result is kept only where the row-wise ``csv`` parser
would give the same: one row per physical line, as many columns as the
header, every value finite, every label exactly 0 or 1.  Any other file
goes to the row-wise parser, which names the first bad row or loads what
the C reader turned down (quoted cells, ``1_0``, a string column), so the
set of accepted files and every value and error are the same either way.
A loader adds only its header check, which also orders each row's cell
checks, and its split of the matrix; every error it raises names the file.

Stratified splitting shuffles each class with its own seeded permutation
and deals samples so per-class counts match the requested ratio to within
one sample; fold plans deal each class round-robin across folds, so every
fold's class mix is within one sample of the global mix by construction.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .calibrators import ScoreSet
from .errors import (
    DegenerateClassError,
    EmptyFileError,
    IndexOutOfRangeError,
    MissingColumnError,
    NonBinaryLabelError,
    NonNumericFeatureError,
    TooFewSamplesPerClassError,
)
from ._util import (
    Checked, check_counts, check_finite, check_indices, check_int, check_labels, check_real,
    check_same_length, check_type, readonly,
)

__all__ = [
    "Provenance",
    "Dataset",
    "SyntheticConfig",
    "FoldAssignment",
    "FoldPlan",
    "generate_synthetic",
    "load_csv",
    "save_csv",
    "load_score_csv",
    "save_score_csv",
    "select_features",
    "subset",
    "stratified_split",
    "deal_folds",
    "make_fold_plan",
]


@dataclass(frozen=True)
class Provenance:
    """Where a dataset came from: a generator seed or a source file path."""

    seed: int | None = None
    source_path: str | None = None

    @classmethod
    def from_seed(cls, seed: int) -> "Provenance":
        return cls(seed=int(seed))

    @classmethod
    def from_file(cls, path: str) -> "Provenance":
        return cls(source_path=str(path))


@dataclass(frozen=True)
class Dataset(Checked):
    """Immutable feature matrix with binary labels and provenance."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple
    provenance: Provenance

    def __post_init__(self):
        x, y = check_finite(self.features, "features", 2), check_labels(self.labels)
        check_same_length(x, y, "features and labels")
        names = tuple(str(c) for c in self.feature_names)
        if len(names) != x.shape[1]:
            raise ValueError(f"{len(names)} feature names for {x.shape[1]} feature columns")
        object.__setattr__(self, "features", readonly(x, self.features))
        object.__setattr__(self, "labels", readonly(y))
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the synthetic two-informative-feature dataset."""

    json_kind = "synthetic"
    n: int = field(metadata={"min": 1})
    d: int = field(metadata={"min": 2})
    seed: int = field(metadata={"min": 0})

    def __post_init__(self):
        check_counts(self)


def generate_synthetic(config: SyntheticConfig) -> Dataset:
    """Draw the synthetic dataset: x ~ U[0,1]^d, label = 1 iff x1 + x2 > 1.

    Deterministic for a fixed seed (PCG64).  The decision boundary is
    strict, so x1 + x2 exactly 1 labels 0.
    """
    rng = np.random.default_rng(config.seed)
    x = rng.random((config.n, config.d))
    y = (x[:, 0] + x[:, 1] > 1.0).astype(np.int64)
    names = tuple(f"x{i + 1}" for i in range(config.d))
    return Dataset(x, y, names, Provenance.from_seed(config.seed))


# ---------------------------------------------------------------------------
# CSV input/output
# ---------------------------------------------------------------------------

def _parse_label(cell: str, path: str, row: int, column: str) -> int:
    try:
        value = float(cell)
    except ValueError:
        raise NonBinaryLabelError(
            f"{path}: row {row}: label {cell!r} is not 0 or 1"
        ) from None
    if value == 0.0:
        return 0
    if value == 1.0:
        return 1
    raise NonBinaryLabelError(f"{path}: row {row}: label {cell!r} is not 0 or 1")


def _parse_number(cell: str, path: str, row: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise NonNumericFeatureError(
            f"{path}: row {row}, column {column!r}: {cell!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise NonNumericFeatureError(
            f"{path}: row {row}, column {column!r}: {cell!r} is not finite"
        )
    return value


def _parse_in_c(path: str, label_column: str):
    """``(header, rows)`` of a headed CSV, its data rows parsed by NumPy's C
    reader into a float matrix, or None when the row-wise parser must
    read the file.

    The matrix is used only where the row-wise parser would load the same
    values: one row per physical line (``loadtxt`` skips blank lines, which
    the row parser rejects), as many columns as the header, every value
    finite, and every label exactly 0.0 or 1.0.  A file turned down here
    (an empty body, a quoted or ragged cell, ``1_0``, a decoding error)
    goes to the row parser, which loads it or raises the error and row
    number it always has.
    """
    with open(path, "r", newline="") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError:
            return None
        first = re.match(r"[^\r\n]*", text).group()
        header = [name.strip() for name in first.split(",")]
        # a quoted header may span lines and unquotes its names: csv decides
        if '"' in first or label_column not in header:
            return None
        lines = text.count("\n") + (not text.endswith(("\r", "\n")))
        if "\r" in text:
            lines += text.count("\r") - text.count("\r\n")
        if lines < 2:
            return None
        # the row parser rejects a cell longer than csv.field_size_limit();
        # a line break in every aligned window of half that length rules
        # such a cell out
        step = csv.field_size_limit() // 2
        for start in range(0, len(text) - step + 1, step):
            if text.find("\n", start, start + step) < 0 and text.find("\r", start, start + step) < 0:
                return None
        del text
        handle.seek(0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a body of blank lines only warns
            try:
                rows = np.loadtxt(handle, delimiter=",", comments=None, skiprows=1, ndmin=2)
            except ValueError:
                return None
    if rows.shape != (lines - 1, len(header)) or not np.isfinite(rows).all():
        return None
    label = rows[:, header.index(label_column)]
    if not ((label == 0.0) | (label == 1.0)).all():
        return None
    return header, rows


def _load_rows(path: str, label_column: str, columns):
    """``(header, rows)`` of a headed CSV read one ``csv`` row at a time.

    Only the positions ``columns(path, header, label_column)`` returns are
    parsed, in that order within each row, so the first bad cell in that
    order is the one reported; the other columns of ``rows`` stay NaN.
    A row ``csv`` cannot split, or text that is not UTF-8, raises
    :class:`NonNumericFeatureError`.
    """
    row_number = -1  # the header is row 0
    try:
        with open(path, "r", newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = [name.strip() for name in next(reader)]
            except StopIteration:
                raise EmptyFileError(f"{path}: file is empty") from None
            row_number = 0
            positions = columns(path, header, label_column)
            label_pos = header.index(label_column)
            parsers = [
                (i, _parse_label if i == label_pos else _parse_number, header[i])
                for i in positions
            ]
            cells = []
            append = cells.append
            for row_number, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise NonNumericFeatureError(
                        f"{path}: row {row_number} has {len(row)} cells, expected {len(header)}"
                    )
                for i, parse, name in parsers:
                    append(parse(row[i].strip(), path, row_number, name))
    except csv.Error as exc:
        raise NonNumericFeatureError(f"{path}: row {row_number + 1}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise NonNumericFeatureError(f"{path}: {exc}") from None
    if not cells:
        raise EmptyFileError(f"{path}: no data rows")
    rows = np.full((len(cells) // len(positions), len(header)), np.nan)
    rows[:, positions] = np.array(cells, dtype=np.float64).reshape(-1, len(positions))
    return header, rows


def _read_csv(path: str, label_column: str, columns):
    """``(header, float matrix of every column in header order)``: from
    NumPy's C reader where it gives what the row parser would, else from
    the row parser.  ``columns`` is the loader's header check; it raises
    for a header the loader cannot use and returns the positions to parse.
    """
    parsed = _parse_in_c(path, label_column)
    if parsed is None:
        return _load_rows(path, label_column, columns)
    columns(path, parsed[0], label_column)
    return parsed


def _write_csv(path: str, header, values, labels) -> None:
    """Write ``header``, then each row of ``values`` followed by its label."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row, label in zip(values, labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def _dataset_columns(path: str, header: list, label_column: str) -> list:
    if label_column not in header:
        raise MissingColumnError(
            f"{path}: label column {label_column!r} not in header {header}"
        )
    if len(header) < 2:
        raise MissingColumnError(f"{path}: no feature columns besides {label_column!r}")
    label_pos = header.index(label_column)
    return [label_pos] + [i for i in range(len(header)) if i != label_pos]


def load_csv(path: str, label_column: str = "y") -> Dataset:
    """Read a headed CSV into a Dataset.

    All non-label columns become features in header order.  Rows are
    reported 1-based (the header is row 0) in error messages.
    """
    header, rows = _read_csv(path, label_column, _dataset_columns)
    label_pos = header.index(label_column)
    return Dataset(
        np.delete(rows, label_pos, axis=1),
        rows[:, label_pos].astype(np.int64),
        tuple(name for i, name in enumerate(header) if i != label_pos),
        Provenance.from_file(path),
    )


def save_csv(data: Dataset, path: str, label_column: str = "y") -> None:
    """Write a Dataset to CSV (header row; floats via repr, so a reload
    reproduces the values bit-for-bit)."""
    check_type(data, Dataset, "data")
    _write_csv(path, list(data.feature_names) + [label_column], data.features, data.labels)


def _score_columns(path: str, header: list, label_column: str) -> list:
    for required in ("score", label_column):
        if required not in header:
            raise MissingColumnError(
                f"{path}: column {required!r} not in header {header}"
            )
    return [header.index("score"), header.index(label_column)]


def load_score_csv(path: str) -> ScoreSet:
    """Read a score file (columns ``score`` and ``y``) into a ScoreSet."""
    header, rows = _read_csv(path, "y", _score_columns)
    return ScoreSet(rows[:, header.index("score")], rows[:, header.index("y")].astype(np.int64))


def save_score_csv(data: ScoreSet, path: str) -> None:
    """Write a ScoreSet as a score file (columns ``score`` and ``y``)."""
    check_type(data, ScoreSet, "data")
    _write_csv(path, ["score", "y"], data.scores[:, None], data.labels)


# ---------------------------------------------------------------------------
# row/column selection and stratified resampling
# ---------------------------------------------------------------------------

def select_features(data: Dataset, indices) -> Dataset:
    """New Dataset keeping only the chosen feature columns (same labels)."""
    idx = check_indices(indices, "indices", check_type(data, Dataset, "data").d)
    if not idx.size:
        raise IndexOutOfRangeError("indices: feature selection needs at least one index")
    return Dataset(
        data.features[:, idx],
        data.labels,
        tuple(data.feature_names[i] for i in idx),
        data.provenance,
    )


def subset(data: Dataset, indices) -> Dataset:
    """New Dataset keeping only the chosen rows (features and labels)."""
    idx = check_indices(indices, "indices", check_type(data, Dataset, "data").n)
    return Dataset(data.features[idx], data.labels[idx], data.feature_names, data.provenance)


def _class_indices(labels: np.ndarray):
    return np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)


def stratified_split(data: Dataset, train_ratio: float, seed: int):
    """Split into (train, test) preserving class proportions.

    Each class is shuffled with the seeded generator and the first
    ``round(class_count * train_ratio)`` samples (half-up, clamped so both
    sides keep at least one sample of each class) go to train.  Row order
    within each side follows the original dataset order.
    """
    check_type(data, Dataset, "data")
    train_ratio = check_real(train_ratio, "train_ratio", 0.0, 1.0)
    train_idx, test_idx = _split_rows(data.labels, train_ratio, check_int(seed, "seed", 0))
    return subset(data, train_idx), subset(data, test_idx)


def _split_rows(labels: np.ndarray, train_ratio: float, seed: int) -> tuple:
    """The (train, test) row indices of :func:`stratified_split`."""
    rng = np.random.default_rng(seed)
    neg, pos = _class_indices(labels)
    if neg.size < 2 or pos.size < 2:
        raise DegenerateClassError(
            f"both classes need >= 2 samples to split, got {neg.size} neg / {pos.size} pos"
        )
    train_parts = []
    test_parts = []
    for class_idx in (neg, pos):
        perm = rng.permutation(class_idx)
        k = int(math.floor(class_idx.size * train_ratio + 0.5))
        k = min(max(k, 1), class_idx.size - 1)
        train_parts.append(perm[:k])
        test_parts.append(perm[k:])
    return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(test_parts))


def deal_folds(labels: np.ndarray, folds: int, rng) -> np.ndarray:
    """Stratified fold id of every row: each class (0, then 1) is shuffled
    with ``rng`` and dealt round-robin across ``folds``."""
    labels = check_labels(labels)
    folds = check_int(folds, "folds", 1)
    fold_of = np.empty(labels.size, dtype=np.intp)
    for class_idx in _class_indices(labels):
        perm = rng.permutation(class_idx)
        fold_of[perm] = np.arange(perm.size, dtype=np.intp) % folds
    return fold_of


@dataclass(frozen=True)
class FoldAssignment:
    """One (repeat, fold) cell of a fold plan, with its row index sets."""

    repeat_index: int
    fold_index: int
    train_indices: np.ndarray
    test_indices: np.ndarray


@dataclass(frozen=True)
class FoldPlan:
    """Stratified repeated-CV assignments: ``folds`` x ``repeats`` cells.

    Within each repeat the test sets partition the row indices exactly, and
    each fold's per-class test count is within one sample of the ideal
    proportional count.  Assignments depend only on (labels, folds,
    repeats, base_seed); repeat r uses derived seed ``base_seed + r``.
    """

    folds: int
    repeats: int
    base_seed: int
    assignments: tuple

    def assignment(self, repeat_index: int, fold_index: int) -> FoldAssignment:
        return self.assignments[repeat_index * self.folds + fold_index]


def make_fold_plan(data: Dataset, folds: int, repeats: int, base_seed: int) -> FoldPlan:
    """Build a stratified repeated-CV plan by per-class round-robin dealing."""
    check_type(data, Dataset, "data")
    folds, repeats = check_int(folds, "folds", 2), check_int(repeats, "repeats", 1)
    base_seed = check_int(base_seed, "base_seed", 0)
    neg, pos = _class_indices(data.labels)
    if neg.size < folds or pos.size < folds:
        raise TooFewSamplesPerClassError(
            f"each class needs >= folds={folds} samples, got {neg.size} neg / {pos.size} pos"
        )
    assignments = []
    for repeat in range(repeats):
        fold_of = deal_folds(data.labels, folds, np.random.default_rng(base_seed + repeat))
        for fold in range(folds):
            test_idx = np.flatnonzero(fold_of == fold)
            train_idx = np.flatnonzero(fold_of != fold)
            assignments.append(
                FoldAssignment(repeat, fold, readonly(train_idx), readonly(test_idx))
            )
    return FoldPlan(folds, repeats, base_seed, tuple(assignments))
