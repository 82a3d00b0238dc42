"""Small internal helpers shared across modules, and the JSON codec of
calibench's dataclasses."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import types
import typing

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NonBinaryLabelError,
    NonFiniteScoreError,
    NotConvergedError,
    ProbabilityOutOfRangeError,
)

_MASK64 = (1 << 64) - 1


def splitmix64(z: int) -> int:
    """One splitmix64 scrambling round (Steele, Lea & Flood 2014)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(*parts: int) -> int:
    """Derive a stable 64-bit seed from integer parts.

    Pure arithmetic (no salted ``hash()``), so the result is identical across
    processes and platforms.  Used to give every (repeat, fold) run and every
    pipeline phase its own independent, position-derived PRNG stream.
    """
    acc = 0x243F6A8885A308D3  # pi fractional bits; arbitrary fixed offset
    for part in parts:
        acc = splitmix64((acc + (int(part) & _MASK64)) & _MASK64)
    return acc


def readonly(arr: np.ndarray, given=None) -> np.ndarray:
    """``arr`` with its write flag cleared, for a record to hold: a copy if
    ``arr`` is ``given``, the caller's own array, which stays writable."""
    if arr is given:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


class Checked:
    """Base of a dataclass record whose constructor checks its fields: it
    pickles as its field values, in field order, and so unpickles through
    that constructor, which checks them again and keeps read-only arrays."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in dataclasses.fields(self))


def sigmoid(z):
    """Numerically stable logistic function, elementwise."""
    z = np.asarray(z, dtype=np.float64)
    # 1/(1 + exp(-z)) for z >= 0 and exp(z)/(1 + exp(z)) below: e is
    # exp(-|z|), which never overflows, and min(z, -z) keeps a NaN's sign
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def damped_newton(name: str, params: np.ndarray, data: tuple, newton, objective, tol: float,
                  max_iter: int):
    """Minimize ``objective`` from each row of the ``(k, p)`` stack ``params``
    by Newton steps with step halving, each row on its own; ``data`` holds
    the rows' problems, arrays cut to the rows still going (never for one
    row), ``objective(params, *data)`` gives the rows' values and
    ``newton(params, *data)`` their gradient max-norms and a function for
    their steps.  A row stops at norm ``tol``, or after (and counting) a step
    that moves none of its parameters; it fails after ``max_iter`` steps or
    60 failed halvings.  Return each row's parameters, steps, final norm and
    NotConvergedError (or None)."""
    k = len(params)
    found, norms, iterations, errors = params.copy(), np.zeros(k), np.zeros(k, np.intp), [None] * k
    rows, current, steps, moved = np.arange(k), objective(params, *data), 0, np.ones(k, dtype=bool)
    while True:
        gnorm, solve = newton(params, *data)
        # a row whose last step moved nothing gives the same norm, and leaves
        found[rows], norms[rows], iterations[rows] = params, gnorm, steps
        go = ~(gnorm <= tol) & moved
        if steps >= max_iter or not go.any():
            for i in np.flatnonzero(go):
                errors[rows[i]] = NotConvergedError(
                    f"{name} fit: gradient norm {gnorm[i]:.3e} > tol {tol:.1e} "
                    f"after {max_iter} iterations"
                )
            return found, iterations, norms, errors
        step = solve()
        if not go.all():
            params, current, step, rows = params[go], current[go], step[go], rows[go]
            data = [a[go] for a in data]
        candidate = params + step  # every row's full step first
        value = objective(candidate, *data)
        searching = np.flatnonzero(~(value <= current))
        for halvings in range(1, 60):
            if not searching.size:
                break
            part = data if searching.size == rows.size else [a[searching] for a in data]
            candidate[searching] = params[searching] + 0.5 ** halvings * step[searching]
            value[searching] = objective(candidate[searching], *part)
            searching = searching[~(value[searching] <= current[searching])]
        for i in searching:  # no descent step: the row stays, and leaves next time
            errors[rows[i]] = NotConvergedError(f"{name} fit: line search found no descent step")
            candidate[i] = params[i]
        steps += 1
        moved = ~(candidate == params).all(axis=1)
        params, current = candidate, value


def raised(outcome):
    """``outcome``, raised instead if it is an exception."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def write_json(path: str, payload) -> None:
    """Write ``payload`` as indented JSON plus a newline.  The text is built
    before the file is opened, so a value JSON cannot hold (NaN, inf)
    raises ``ValueError`` without leaving a truncated file behind."""
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    with open(path, "w") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# input checkers
# ---------------------------------------------------------------------------
#
# One checker per input kind.  Every public function and input dataclass
# calls the checker of each argument once, at entry, and the private
# kernels behind it trust what it passes on.  A checker raises a ValueError
# whose one-line message names the argument (a bad data value's error is
# also a CalibenchError: see errors).
#
# Inf: data vectors and scalar settings must be finite.  The CDFs take
# +-inf, the limits of their argument.  The maps and predictors take any
# float: NaN gives NaN, and +-inf the map's limit.

def _float_array(values, name: str, ndim: int) -> np.ndarray:
    try:
        arr = np.ascontiguousarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must hold numbers") from None
    if arr.ndim != ndim:
        shape = "a 1-D vector" if ndim == 1 else f"a {ndim}-D array"
        raise ValueError(f"{name} must be {shape}, got shape {arr.shape}")
    return arr


def check_finite(values, name: str, ndim: int = 1) -> np.ndarray:
    """``values`` as a contiguous float64 array of ``ndim`` dimensions (the
    array itself if it is one) whose every entry is finite.  NaN or +-inf
    raises NonFiniteScoreError."""
    arr = _float_array(values, name, ndim)
    if not np.isfinite(arr).all():
        raise NonFiniteScoreError(f"{name} must be finite (no NaN or inf)")
    return arr


def check_probs(values, name: str) -> np.ndarray:
    """``values`` as a contiguous 1-D float64 array of probabilities.  An
    entry outside [0, 1], NaN and +-inf included, raises
    ProbabilityOutOfRangeError."""
    arr = _float_array(values, name, 1)
    if not ((arr >= 0.0) & (arr <= 1.0)).all():
        raise ProbabilityOutOfRangeError(f"{name} must lie in [0, 1] (no NaN)")
    return arr


def check_labels(values, name: str = "labels") -> np.ndarray:
    """``values`` as a new 1-D int64 array if every entry equals 0 or 1
    (bools and floats may); any other, NaN or +-inf, NonBinaryLabelError."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if arr.dtype.kind not in "biuf" or not ((arr == 0) | (arr == 1)).all():
        raise NonBinaryLabelError(f"{name} must contain only 0 and 1")
    return arr.astype(np.int64)


def check_same_length(first, second, names: str) -> None:
    """LengthMismatchError unless ``first`` and ``second`` have as many
    rows; ``names`` names both, such as ``"a and b"``."""
    if len(first) != len(second):
        raise LengthMismatchError(f"{names} differ in length: {len(first)} vs {len(second)}")


def check_pairs(values, labels, name: str = "probs", kind=check_probs, min_size: int = 1):
    """``(kind(values, name), check_labels(labels))``, of one length of at
    least ``min_size`` (else LengthMismatchError)."""
    v, y = kind(values, name), check_labels(labels)
    check_same_length(v, y, f"{name} and labels")
    if v.size < min_size:
        raise LengthMismatchError(f"{name} and labels need at least {min_size} pair(s)")
    return v, y


def check_real(value, name: str, low=-math.inf, high=math.inf, ends: str = "()") -> float:
    """``value`` as a float if it is a real number (a bool is not) in the
    interval from ``low`` to ``high``, whose ``ends`` are brackets:
    ``"()"`` open, ``"[)"`` closed below, ``"[]"`` closed.  NaN lies in no
    interval and +-inf only at a closed infinite end, so a number in an
    open interval is finite.  Else ValueError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond any float
            x = math.inf if value > 0 else -math.inf
        if (low <= x if ends[0] == "[" else low < x) and (x <= high if ends[1] == "]" else x < high):
            return x
    if math.isfinite(high):
        span = f"a number in {ends[0]}{low:g}, {high:g}{ends[1]}"
    else:  # an unbounded interval reads as its lower bound
        span = ("a number" if ends[1] == "]" else "a finite number") + (
            f" {'>=' if ends[0] == '[' else '>'} {low:g}" if math.isfinite(low) else ""
        )
    raise ValueError(f"{name} must be {span}, got {value!r}")


def check_int(value, name: str, minimum: int | None = None, error=ValueError) -> int:
    """``value`` as an int if it is an integer (a NumPy integer is; a bool,
    NaN or +-inf is not) of at least ``minimum``; else ``error``."""
    if (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
        and (minimum is None or value >= minimum)
    ):
        return int(value)
    bound = "" if minimum is None else f" >= {minimum}"
    raise error(f"{name} must be an integer{bound}, got {value!r}")


def check_counts(obj) -> None:
    """:func:`check_int` on every field of dataclass ``obj`` whose metadata
    gives a ``"min"``; the field then holds a plain int."""
    for field in dataclasses.fields(obj):
        if "min" in field.metadata:
            value = check_int(getattr(obj, field.name), field.name, field.metadata["min"])
            object.__setattr__(obj, field.name, value)


def check_ints(values, name: str) -> np.ndarray:
    """``values`` as a 1-D intp array (the array itself if it is one) if
    every entry is an integer; a bool, a fraction, NaN or +-inf is not:
    ValueError.  NumPy reads bools among ints in a list as ints."""
    if isinstance(values, (list, tuple)) and any(isinstance(v, (bool, np.bool_)) for v in values):
        raise ValueError(f"{name} must be a 1-D vector of integers, got a bool among them")
    arr = np.asarray(values)
    if arr.size == 0:
        arr = arr.astype(np.intp)
    if arr.ndim != 1 or arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must be a 1-D vector of integers, got {arr.dtype} {arr.shape}")
    return arr.astype(np.intp, copy=False)


def check_indices(values, name: str, bound: int) -> np.ndarray:
    """:func:`check_ints` of entries in [0, bound), else IndexOutOfRangeError."""
    arr = check_ints(values, name)
    if arr.size and (arr.min() < 0 or arr.max() >= bound):
        raise IndexOutOfRangeError(f"{name} must lie in [0, {bound}), got {arr.min()}..{arr.max()}")
    return arr


def check_type(value, kind, name: str):
    """``value`` if it is an instance of ``kind``, a class or a tuple of
    classes; else ValueError."""
    if not isinstance(value, kind):
        names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise ValueError(f"{name} must be a {names}, got {type(value).__name__}")
    return value


def check_rows(features, d: int) -> tuple:
    """``(float64 matrix, whether one row was given)`` for a length-``d``
    vector or an (n, d) matrix of any floats; else DimensionMismatchError."""
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != d:
        raise DimensionMismatchError(
            f"features: expected vectors of length {d}, got shape {np.shape(features)}"
        )
    return x, single


# ---------------------------------------------------------------------------
# JSON codec driven by dataclass fields
# ---------------------------------------------------------------------------
#
# A dataclass is a JSON object of its fields, in field order.  A class with a
# ``json_kind`` attribute is wrapped as ``{json_kind: {field: value}}``; that
# is how a field typed as a union of such classes says which one it holds.
# Field metadata ``{"json": "omit"}`` leaves a field out of the file (it
# takes its default on reading), and ``{"json": "inline"}`` writes a nested
# dataclass's keys into its parent's object.  A float is written as is, NaN
# as null and +-inf as "inf"/"-inf"; tuples and arrays are lists.

def float_to_json(value):
    """A float as JSON holds it: NaN as null, +-inf as "inf"/"-inf"."""
    value = float(value)
    if math.isnan(value):
        return None
    return value if math.isfinite(value) else str(value)


@functools.cache
def _fields(cls) -> tuple:
    """``(name, annotation, role, field)`` per JSON field of dataclass
    ``cls``, annotations resolved once per class."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], f.metadata.get("json"), f)
        for f in dataclasses.fields(cls)
        if f.metadata.get("json") != "omit"
    )


@functools.cache
def _keys(cls) -> tuple:
    """The keys of the JSON object of dataclass ``cls``."""
    keys = ()
    for name, tp, role, _ in _fields(cls):
        keys += _keys(tp) if role == "inline" else (name,)
    return keys


def to_json(value):
    """The JSON-ready form of ``value``: a dataclass as the object of its
    fields (see the notes above), a float through :func:`float_to_json`, a
    tuple or array as a list; anything else as it is."""
    if isinstance(value, float):
        return float_to_json(value)
    if isinstance(value, (tuple, list)):
        return [to_json(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if not dataclasses.is_dataclass(value):
        return value
    body = {}
    for name, tp, role, _ in _fields(type(value)):
        item = getattr(value, name)
        if tp is float:
            item = float_to_json(item)
        elif tp not in _SCALARS:
            item = to_json(item)
        if role == "inline":
            body.update(item)
        else:
            body[name] = item
    kind = getattr(value, "json_kind", None)
    return body if kind is None else {kind: body}


# annotation -> the JSON type of its values, and its name in messages
_JSON_TYPES = {
    bool: (bool, "true or false"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
    tuple: (list, "a list"),
    np.ndarray: (list, "a list"),
}
_SCALARS = (bool, int, str)  # annotations whose values JSON holds as they are


def from_json(tp, value, root: str):
    """Inverse of :func:`to_json` for a value of annotation ``tp``.

    Strict: an unknown key or a value of the wrong JSON type (``true`` or
    ``1.5`` as an integer, a string as a number, a list as a float) raises
    ``ValueError``; a missing key without a default raises ``KeyError``.
    A float also reads null as NaN and "inf"/"-inf".  Each message is one
    line and names the key path, such as ``records[0].metrics``; ``root``
    names the top-level value.
    """
    return _read(tp, value, "", root)


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _read(tp, value, path: str, root: str, minimum: int | None = None):
    where = path or root
    if tp is int:
        return check_int(value, where, minimum)
    if tp is float and (value is None or value in ("inf", "-inf")):
        return math.nan if value is None else float(value)
    origin = None
    if tp not in _JSON_TYPES:  # a union, a dataclass, a tuple[...] or an array
        origin = typing.get_origin(tp)
        if origin in (typing.Union, types.UnionType):
            return _read_union(typing.get_args(tp), value, path, root)
        if hasattr(tp, "json_kind"):
            return _read_union((tp,), value, path, root)
        if dataclasses.is_dataclass(tp):
            return _read_object(tp, value, path, root)
    base = origin or tp
    json_type, name = _JSON_TYPES[base]
    if not isinstance(value, json_type) or (isinstance(value, bool) and base is not bool):
        raise ValueError(f"{where} must be {name}, got {value!r}")
    if base is tuple:
        item = typing.get_args(tp)[0]
        return tuple(_read(item, v, f"{where}[{i}]", root) for i, v in enumerate(value))
    if base is np.ndarray:
        dtype = typing.get_args(typing.get_args(tp)[1])[0]
        json_type, name = _JSON_TYPES[int if np.issubdtype(dtype, np.integer) else float]
        for i, v in enumerate(value):
            if not isinstance(v, json_type) or isinstance(v, bool):
                raise ValueError(f"{where}[{i}] must be {name}, got {v!r}")
    try:
        if base is np.ndarray:
            return np.array(value, dtype=dtype)
        return float(value) if base is float else value
    except OverflowError:  # an integer beyond the dtype, or beyond a float
        raise ValueError(f"{where} holds a number out of range") from None


def _read_union(members, value, path: str, root: str):
    where = path or root
    if value is None and type(None) in members:
        return None
    members = [m for m in members if m is not type(None)]
    if hasattr(members[0], "json_kind"):
        kinds = {m.json_kind: m for m in members}
        body = _json_object(value, where, tuple(kinds))
        if len(body) != 1:
            raise ValueError(f"{where} must name exactly one of: {', '.join(kinds)}")
        ((kind, body),) = body.items()
        return _read_object(kinds[kind], body, _join(path, kind), root)
    if len(members) == 1:
        return _read(members[0], value, path, root)
    for member in members:  # such as str | tuple[int, ...]: the JSON type decides
        if isinstance(value, _JSON_TYPES[typing.get_origin(member) or member][0]):
            return _read(member, value, path, root)
    names = " or ".join(_JSON_TYPES[typing.get_origin(m) or m][1] for m in members)
    raise ValueError(f"{where} must be {names}, got {value!r}")


def _json_object(value, where: str, keys: tuple) -> dict:
    """``value`` if it is a JSON object whose keys all lie in ``keys``."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {value!r}")
    unknown = sorted(set(value) - set(keys), key=str)
    if unknown:
        raise ValueError(
            f"unknown {where} key {unknown[0]!r}; valid: {', '.join(keys) or 'none'}"
        )
    return value


def _read_object(cls, value, path: str, root: str):
    where = path or root
    body = _json_object(value, where, _keys(cls))
    args = {}
    for name, tp, role, field in _fields(cls):
        if role == "inline":
            args[name] = _read_object(tp, {k: body[k] for k in _keys(tp) if k in body}, path, root)
        elif name in body:
            args[name] = _read(tp, body[name], _join(path, name), root, field.metadata.get("min"))
        elif field.default is dataclasses.MISSING:
            raise KeyError(f"{where}: missing key {name!r}")
    return cls(**args)
