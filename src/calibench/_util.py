"""Small internal helpers shared across modules."""

from __future__ import annotations

import json

import numpy as np

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


def as_float_vector(values, name: str) -> np.ndarray:
    """Coerce to a contiguous 1-D float64 array."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    return arr


def as_binary_labels(values, name: str = "labels") -> np.ndarray:
    """Coerce to a 1-D int64 array of {0, 1}, rejecting anything else."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    as_int = arr.astype(np.int64, copy=True)
    if arr.dtype.kind == "f" and not np.array_equal(as_int, arr):
        raise ValueError(f"{name} must contain only 0 and 1")
    if not np.isin(as_int, (0, 1)).all():
        raise ValueError(f"{name} must contain only 0 and 1")
    return as_int


def readonly(arr: np.ndarray) -> np.ndarray:
    """Return ``arr`` with its write flag cleared (immutability guard)."""
    arr.setflags(write=False)
    return arr


def sigmoid(z):
    """Numerically stable logistic function, elementwise."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def write_json(path: str, payload) -> None:
    """Write ``payload`` as indented JSON plus a newline.  The text is built
    before the file is opened, so a value JSON cannot hold (NaN, inf)
    raises ``ValueError`` without leaving a truncated file behind."""
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    with open(path, "w") as handle:
        handle.write(text)
