"""Numerically stable primitives used by every other module.

Every softmax consumer works from the row-max shifted logits
S = Z - max z of ``shift_rows``, whose entries all lie in
[-finfo.max, 0], and from ``exp_rows``, the one kernel that takes
E = exp(S / tau) and its sums through ``row_sums``, the one row-sum
kernel; both also take an (R, n, C) stack of matrices. ``row_softmax``
is the one softmax: it works on (n, C) logit matrices at an optional
temperature (a scalar or one per row) and normalises E;
``top_confidence`` is 1 / sum E, since the predicted class has S = 0.
A single sample is a one-row matrix. ``predicted_labels`` is the one
definition of the predicted class (argmax of the logits, which no
temperature can move). Probabilities destined for a logarithm are
clamped to ``PROB_FLOOR`` by the caller.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import DomainError, InvalidInputError

# Floor applied to probabilities before any logarithm downstream.
PROB_FLOOR = 1e-12


def check_logits(Z) -> np.ndarray:
    """An (n, C) logit matrix as float64, checked to hold only finite entries."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2:
        raise InvalidInputError(f"expected a 2-D matrix, got shape {Z.shape}")
    if not np.all(np.isfinite(Z)):
        raise InvalidInputError("logit matrix contains non-finite entries")
    return Z


def check_integers(values, name: str) -> np.ndarray:
    """``values`` as an int64 array. Bool and float are refused, not
    truncated; an empty list has no dtype to check."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise InvalidInputError(f"{name} must be integers") from exc
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise InvalidInputError(f"{name} must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def check_count(value, name: str, low: int) -> None:
    """Raise DomainError unless ``value`` is an integer, not a bool, >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")


def shift_rows(Z: np.ndarray, out=None) -> np.ndarray:
    """Z minus its row max, into ``out`` (may be Z) or a new array. Every
    entry lies in [-finfo.max, 0]: a difference that overflows to -inf is
    raised to -finfo.max, so 0 * S stays 0, and its exponential at any
    temperature below 2e305 is still an exact 0."""
    with np.errstate(over="ignore"):
        S = np.subtract(Z, Z.max(axis=1, keepdims=True), out=out)
    return np.maximum(S, -np.finfo(float).max, out=S)


def tau_column(taus, rows: tuple) -> np.ndarray:
    """Checked temperatures shaped to divide rows of leading shape ``rows``,
    (n,) or (R, n): a scalar stays a scalar, one temperature per row,
    shaped like ``rows``, becomes a column of shape ``rows + (1,)``."""
    taus = np.asarray(taus, dtype=np.float64)
    if not np.all(np.isfinite(taus) & (taus > 0)):
        raise DomainError("temperatures must be finite and > 0")
    if taus.ndim and taus.shape == rows:
        return taus[..., None]
    if taus.ndim != 0:
        raise InvalidInputError(f"expected a scalar or {rows} temperatures, got shape {taus.shape}")
    return taus


def exp_rows(S: np.ndarray, taus=None, out=None) -> tuple[np.ndarray, np.ndarray]:
    """E = exp(S / tau) for row-max shifted logits S and temperatures from
    :func:`tau_column` (None for tau = 1), into ``out`` (may be S) or a new
    array, and the row sums of E. A row's max entry is exactly 1."""
    if taus is not None:
        # S <= 0, so the quotient can only overflow to -inf, whose exponential is 0.
        with np.errstate(over="ignore"):
            S = np.divide(S, taus, out=out)
        out = S
    E = np.exp(S, out=out)
    return E, row_sums(E)


def row_sums(A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Sums over the last axis of A, or of A * B without forming it, by one
    batch-invariant einsum; a stack of matrices sums each one's rows."""
    return np.einsum("...j->...", A) if B is None else np.einsum("...j,...j->...", A, B)


def stable_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` of a NaN-free vector, bit for bit: the
    default sort, then one sort of (group, index) keys puts ties in index order."""
    order = np.argsort(values)
    ordered = values[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1], [True]))
    tied = np.flatnonzero(~(first[:-1] & first[1:]))
    keys = np.cumsum(first[tied]) * values.size + order[tied]
    order[tied] = np.sort(keys) % values.size
    return order


def _checked_shift(Z, taus) -> tuple[np.ndarray, np.ndarray | None]:
    """Checked logits minus their row max, and the checked temperatures."""
    Z = check_logits(Z)
    if taus is not None:
        taus = tau_column(taus, Z.shape[:1])
    return shift_rows(Z), taus


def row_softmax(Z, taus=None) -> np.ndarray:
    """softmax(z / tau) of each row of an (n, C) matrix; ``taus`` is
    None (tau = 1), a scalar, or one temperature per row.

    The row max is subtracted before dividing, so large but finite
    logits cannot overflow at any temperature.
    """
    S, taus = _checked_shift(Z, taus)
    E, total = exp_rows(S, taus, out=S)
    E /= total[:, None]
    return E


def predicted_labels(Z) -> np.ndarray:
    """Predicted class of each row: the argmax of the logits (the first
    one on ties), unchanged by any temperature."""
    return np.argmax(Z, axis=-1)


def top_confidence(Z, taus=None) -> np.ndarray:
    """Softmax score of each row's predicted class at the given temperature(s),
    1 / sum_c exp(S_c / tau) for S = Z - row max: the predicted class has S = 0
    and exp(0) = 1, so this is ``row_softmax(Z, taus)`` at the argmax bit for bit."""
    S, taus = _checked_shift(Z, taus)
    return 1.0 / exp_rows(S, taus, out=S)[1]


def top_k_indices(v, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis of a finite
    vector or matrix, descending; ties favor the smaller index. A
    C-contiguous (k,) or (n, k) array."""
    v = np.array(v, dtype=np.float64)
    if v.ndim not in (1, 2):
        raise InvalidInputError(f"expected a vector or a matrix, got shape {v.shape}")
    if not 1 <= k <= v.shape[-1]:
        raise DomainError(f"k must satisfy 1 <= k <= {v.shape[-1]}, got {k}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("top-k input contains non-finite entries")
    # k argmax passes over one copy, each masking the previous pick with -inf:
    # argmax returns the first maximum, so ties come out in index order.
    rows = v.reshape(-1, v.shape[-1])
    picks = np.empty((k, rows.shape[0]), dtype=np.intp)
    starts = np.arange(0, rows.size, rows.shape[1])
    rows.argmax(axis=1, out=picks[0])
    for j in range(1, k):
        np.put(rows, picks[j - 1] + starts, -np.inf)
        rows.argmax(axis=1, out=picks[j])
    # A transposed view would make every gather at these indices slower.
    return np.ascontiguousarray(picks.T).reshape(v.shape[:-1] + (k,))


def softplus(x):
    """log(1 + e^x), overflow-safe for large |x|."""
    return np.logaddexp(0.0, x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Element-wise logistic function, the derivative of softplus: with
    e = exp(-|x|) <= 1, 1 / (1 + e) for x >= 0 and e / (1 + e) below."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)
