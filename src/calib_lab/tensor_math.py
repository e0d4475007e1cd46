"""Numerically stable primitives used by every other module.

Every softmax consumer works from the row-max shifted logits
S = Z - max z of ``shift_rows``, whose entries all lie in
[-finfo.max, 0]. Its max is ``row_max``, the one row-max kernel:
numpy's reduction over a short last axis pays a per-row cost (13 ms
for 300k rows of 10 on a 2-core Xeon VM, against 3 ms for a column
fold of ``np.maximum`` over row blocks), so rows of fewer than 32
columns are folded; the fold was faster at every width measured below
32, and up to 1.2x slower at 32 and 4x at 64 columns, whose
power-of-two row strides defeat the cache. ``exp_rows`` is the one
kernel that takes E = exp(S / tau) and its sums through ``row_sums``,
the one row-sum kernel; these three kernels also take an (R, n, C)
stack of matrices. ``row_softmax`` is the one softmax: it works on
(n, C) logit matrices at an optional temperature (a scalar or one per
row) and normalises E;
``top_confidence`` is 1 / sum E, since the predicted class has S = 0.
A single sample is a one-row matrix. ``predicted_labels`` is the one
definition of the predicted class (argmax of the logits, which no
temperature can move). Probabilities destined for a logarithm are
clamped to ``PROB_FLOOR`` by the caller. Raw input is read and refused
here alone, by ``read_array`` and the ``check_*`` helpers, and every
value object holds its arrays as the read-only copies of ``read_only``.

The row-wise kernels on the scoring and generation path take their rows
in the plain blocks of ``row_blocks``, so their temporaries are
block-sized; every row gets the same bits whatever block it sits in.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import InvalidInputError

# Floor applied to probabilities before any logarithm downstream.
PROB_FLOOR = 1e-12
# Rows per block of the row-wise kernels; see row_blocks.
ROW_BLOCK = 8192
# Rows of fewer columns take their max by a column fold; see row_max.
ROW_MAX_FOLD_LIMIT = 32


def row_blocks(n: int) -> list[slice]:
    """Slices of ``ROW_BLOCK`` rows covering rows 0..n-1 in order; the last may
    be shorter, and no rows make one empty slice."""
    return [slice(lo, min(lo + ROW_BLOCK, n)) for lo in range(0, max(n, 1), ROW_BLOCK)]


def map_row_blocks(fn, n: int) -> np.ndarray:
    """``fn(rows)`` for each slice of :func:`row_blocks`, joined along axis 0,
    the row axis of its outputs. A single block's output is returned as it is,
    so a one-block call allocates nothing beyond what ``fn`` does."""
    blocks = row_blocks(n)
    if len(blocks) == 1:
        return fn(blocks[0])
    out = None
    for rows in blocks:
        part = fn(rows)
        if out is None:
            out = np.empty((n,) + part.shape[1:], part.dtype)
        out[rows] = part
    return out


def read_array(values, name: str, kinds: str = "iuf", *, shape: tuple | None = None,
               finite: bool = False) -> np.ndarray:
    """``values`` as an array whose dtype kind (numpy's code) is one of ``kinds``:
    integers and floats by default, returned as float64. Ragged nesting, any
    other kind (strings, bools, objects, integers beyond 64 bits), a shape
    other than ``shape`` (where a None entry takes any length) and, if
    ``finite``, a NaN or an infinity raise InvalidInputError; an empty array
    has no kind."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise InvalidInputError(f"{name} must be a rectangular array") from exc
    if arr.size and arr.dtype.kind not in kinds:
        raise InvalidInputError(f"{name} cannot hold {arr.dtype} values")
    if shape is not None and (arr.ndim != len(shape) or any(
            want is not None and want != have for want, have in zip(shape, arr.shape))):
        raise InvalidInputError(f"{name} has shape {arr.shape}, expected {shape}")
    if finite and not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} holds non-finite entries")
    return arr.astype(np.float64, copy=False) if kinds == "iuf" else arr


def read_only(values, *, copy: bool = True) -> np.ndarray:
    """``values`` as a read-only array, the one rule by which a value
    object holds its arrays: a copy, so the caller's array stays writable and later
    writes to it cannot reach the object. ``copy=False`` freezes a caller's fresh
    array in place instead, and refuses one that would need a copy."""
    arr = np.array(values, copy=copy)
    arr.setflags(write=False)
    return arr


def check_logits(Z) -> np.ndarray:
    """An (n, C) logit matrix as float64, checked to hold only finite entries."""
    return read_array(Z, "logits", shape=(None, None), finite=True)


def check_integers(values, name: str, shape: tuple | None = None) -> np.ndarray:
    """``values`` as int64, of ``shape`` if given; bools and floats are refused."""
    return read_array(values, name, "iu", shape=shape).astype(np.int64, copy=False)


def check_count(value, name: str, low: int, high: int = 2 ** 63 - 1) -> None:
    """InvalidInputError unless ``value`` is an integer, not a bool, in [``low``, ``high``]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or not low <= value <= high:
        raise InvalidInputError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


def check_real(value, name: str, low: float, high: float = np.inf, *,
               closed: bool = False) -> float:
    """``value`` read by :func:`read_array` as a float; InvalidInputError unless it is finite,
    above ``low`` (or equal to it if ``closed``) and at most ``high``."""
    v = float(read_array(value, name, shape=()))
    if not (np.isfinite(v) and (low <= v if closed else low < v) and v <= high):
        bound = f"{'>=' if closed else '>'} {low:g}" + (f" and <= {high:g}" if high < np.inf else "")
        raise InvalidInputError(f"{name} must be finite and {bound}, got {value!r}")
    return v


def check_member(value, kind: type, name: str):
    """``value``, after raising InvalidInputError unless it is an instance of ``kind``:
    for an enum, one of its members, and a member's string value is refused too."""
    if not isinstance(value, kind):
        raise InvalidInputError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


def check_pair(confidences, correct) -> tuple[np.ndarray, np.ndarray]:
    """Validate equal-length 1-D confidence and correctness vectors; every
    confidence must lie in (0, 1], and correctness is bool or 0/1."""
    confidences = read_array(confidences, "confidences")
    correct = read_array(correct, "correctness flags", "biuf")
    if correct.dtype != bool:
        if not np.all((correct == 0) | (correct == 1)):
            raise InvalidInputError("correctness flags must be bool or 0/1")
        correct = correct.astype(bool)
    if confidences.ndim != 1 or confidences.shape != correct.shape:
        raise InvalidInputError("confidences and correctness must be equal-length 1-D vectors")
    if confidences.size == 0:
        raise InvalidInputError("batch must be non-empty")
    # The comparisons are False for NaN, so this also rejects non-finite values.
    if not np.all((confidences > 0.0) & (confidences <= 1.0)):
        raise InvalidInputError("confidences must lie in (0, 1]")
    return confidences, correct


def row_max(A: np.ndarray) -> np.ndarray:
    """Max over the last axis of A, equal to ``A.max(axis=-1)`` but for the sign
    of a zero max. Rows narrower than ``ROW_MAX_FOLD_LIMIT`` fold their columns
    with ``np.maximum``: numpy's reduction pays a per-row cost on short rows."""
    if A.shape[-1] >= ROW_MAX_FOLD_LIMIT:
        return A.max(axis=-1)
    m = A[..., 0].copy()
    for j in range(1, A.shape[-1]):
        np.maximum(m, A[..., j], out=m)
    return m


def shift_rows(Z: np.ndarray, out=None) -> np.ndarray:
    """Z minus its row max, into ``out`` (may be Z) or a new array, one row
    block at a time, so each block is shifted while it is in cache. Every
    entry lies in [-finfo.max, 0]: a difference that overflows to -inf is
    raised to -finfo.max, so 0 * S stays 0, and its exponential at any
    temperature below 2e305 is still an exact 0."""
    S = np.empty(Z.shape) if out is None else out
    with np.errstate(over="ignore"):
        for rows in row_blocks(Z.shape[0]):
            block = np.subtract(Z[rows], row_max(Z[rows])[:, None], out=S[rows])
            np.maximum(block, -np.finfo(float).max, out=block)
    return S


def tau_column(taus, rows: tuple) -> np.ndarray:
    """Checked temperatures shaped to divide rows of leading shape ``rows``,
    (n,) or (R, n): a scalar stays a scalar, one temperature per row,
    shaped like ``rows``, becomes a column of shape ``rows + (1,)``."""
    taus = read_array(taus, "temperatures")
    if not np.all(np.isfinite(taus) & (taus > 0)):
        raise InvalidInputError("temperatures must be finite and > 0")
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


def _checked(Z, taus) -> tuple[np.ndarray, np.ndarray | None]:
    """Checked logits and the checked temperatures."""
    Z = check_logits(Z)
    return Z, None if taus is None else tau_column(taus, Z.shape[:1])


def row_softmax(Z, taus=None) -> np.ndarray:
    """softmax(z / tau) of each row of an (n, C) matrix; ``taus`` is
    None (tau = 1), a scalar, or one temperature per row.

    The row max is subtracted before dividing, so large but finite
    logits cannot overflow at any temperature.
    """
    Z, taus = _checked(Z, taus)
    S = shift_rows(Z)
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
    and exp(0) = 1, so this is ``row_softmax(Z, taus)`` at the argmax bit for bit.
    Computed per row block: the shifted rows of one block are alive at a time."""
    Z, taus = _checked(Z, taus)

    def block(rows):
        S = shift_rows(Z[rows])
        return 1.0 / exp_rows(S, taus if taus is None or taus.ndim == 0 else taus[rows], out=S)[1]
    return map_row_blocks(block, Z.shape[0])


def top_k_indices(v, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis of a finite
    vector or matrix, descending; ties favor the smaller index. A
    C-contiguous (k,) or (n, k) array."""
    v = np.array(read_array(v, "top-k input", finite=True))  # a copy: the passes write to it
    if v.ndim not in (1, 2):
        raise InvalidInputError(f"expected a vector or a matrix, got shape {v.shape}")
    check_count(k, "k", 1, v.shape[-1])
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
