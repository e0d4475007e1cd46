"""Domain data model: datasets and derived per-sample quantities
(correctness, wrongness degree).

A dataset stores its contents as stacked arrays (logits ``(n, C)``,
labels ``(n,)``, transform softmax outputs ``(n, M, C)``) so the
numeric modules can stay vectorized; a single sample is a one-row
dataset.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .tensor_math import (check_integers, predicted_labels, read_array, read_only, row_softmax,
                          top_confidence)

# Largest gap of a transform row's sum from 1 kept as is, renormalized, renormalized with a warning.
PROB_SUM_TOL, _SUM_SILENT, _SUM_WARN = 1e-9, 1e-6, 1e-3


def _check_values(logits: np.ndarray, labels: np.ndarray, probs: np.ndarray,
                  record_ids: np.ndarray | None) -> np.ndarray:
    """Every value check on a dataset. A failure names the first bad record
    and, in it, the first bad field of logits, label, transforms[0..M-1].
    Returns ``probs``, or a copy whose rows off by over PROB_SUM_TOL are renormalized."""
    signed = (probs >= 0).all(axis=2)  # False for NaN too; +inf fails the sum
    with np.errstate(invalid="ignore", over="ignore"):
        deltas = probs.sum(axis=2, keepdims=True) - 1.0
    bad = np.column_stack([~np.isfinite(logits).all(axis=1),
                           (labels < 0) | (labels >= logits.shape[1]),
                           ~signed | ~(np.abs(deltas[..., 0]) <= _SUM_WARN)])
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), bad.shape[1])
        ch = col - 2
        reason = ("logits contain non-finite entries" if col == 0 else
                  f"label lies outside [0, {logits.shape[1]})" if col == 1 else
                  "transform row entries must be finite and >= 0" if not signed[row, ch] else
                  f"transform row sums to 1{deltas[row, ch, 0]:+.2e}, beyond {_SUM_WARN:g}")
        raise InvalidInputError(reason, row=row,
                                field=("logits", "label")[col] if col < 2 else f"transforms[{ch}]")
    gaps = np.abs(deltas, out=deltas)
    loud = gaps > _SUM_SILENT
    if loud.any():
        first = int(np.argmax(loud.any(axis=(1, 2))))
        warnings.warn(f"{np.count_nonzero(loud)} transform rows sum to 1 within {_SUM_WARN:g} but "
                      f"not {_SUM_SILENT:g} (first at record id "
                      f"{first if record_ids is None else record_ids[first]}); renormalizing",
                      stacklevel=3)
    fix = gaps > PROB_SUM_TOL
    return (np.divide(probs, probs.sum(axis=2, keepdims=True), out=probs.copy(), where=fix)
            if fix.any() else probs)


class Dataset:
    """Immutable collection of records sharing class count C and
    transform count M. Its arrays are read-only copies; an ``_owned`` caller's fresh
    float64 logits and transforms are frozen, not copied. A transform row whose sum misses
    1 by over 1e-9 is divided by its sum, with one warning per dataset naming the first
    record id beyond 1e-6; beyond 1e-3 it is refused. Files and arrays get the same answer."""

    def __init__(self, logits: np.ndarray, labels: np.ndarray, transform_probs: np.ndarray,
                 record_ids: np.ndarray | None = None, *, _owned: bool = False):
        logits = read_only(read_array(logits, "logits"), copy=not _owned)
        if logits.ndim != 2 or logits.shape[0] == 0 or logits.shape[1] < 2:
            raise InvalidInputError(f"logits must be (n, C) with n >= 1, C >= 2, got {logits.shape}")
        n, c = logits.shape
        labels = read_only(check_integers(labels, "labels", (n,)))
        given = read_array(transform_probs, "transform_probs")
        if given.ndim != 3 or given.shape != (n, given.shape[1], c) or given.shape[1] < 1:
            raise InvalidInputError(
                f"transform_probs must have shape ({n}, M, {c}) with M >= 1, got {given.shape}")
        if record_ids is not None:
            record_ids = read_only(check_integers(record_ids, "record_ids", (n,)))
        probs = _check_values(logits, labels, given, record_ids)
        self.logits = logits
        self.labels = labels
        # A renormalized array is a fresh copy already.
        self.transform_probs = read_only(probs, copy=not _owned and probs is given)
        self.record_ids = (read_only(np.arange(n, dtype=np.int64), copy=False)
                           if record_ids is None else record_ids)
        self._view = None  # built by correctness_view on first use

    @property
    def n(self) -> int:
        return self.logits.shape[0]

    @property
    def n_classes(self) -> int:
        return self.logits.shape[1]

    @property
    def n_transforms(self) -> int:
        return self.transform_probs.shape[1]

    def subset(self, indices) -> "Dataset":
        """Selection-only subset; record contents are preserved bit-exactly. Every
        index must lie in [0, n): a negative one does not count from the end."""
        indices = check_integers(indices, "subset indices")
        if indices.size == 0:
            raise InvalidInputError("subset must keep at least one record")
        if not (indices.min() >= 0 and indices.max() < self.n):
            raise InvalidInputError(f"subset indices must lie in [0, {self.n})")
        return Dataset(self.logits[indices], self.labels[indices],
                       self.transform_probs[indices], self.record_ids[indices], _owned=True)


@dataclass(frozen=True, eq=False)
class CorrectnessView:
    """Per-record prediction, correctness flag, and uncalibrated confidence."""

    predicted: np.ndarray   # (n,) argmax labels
    correct: np.ndarray     # (n,) bool
    confidence: np.ndarray  # (n,) max softmax score, uncalibrated

    def __post_init__(self):
        for name in ("predicted", "correct", "confidence"):
            object.__setattr__(self, name, read_only(getattr(self, name)))

    @property
    def accuracy(self) -> float:
        return float(np.mean(self.correct))


def correctness_view(d: Dataset) -> CorrectnessView:
    """Predicted label, correctness indicator, and uncalibrated confidence
    for every record. Only the logits and labels matter; transform
    channels never enter. Built on the first call and kept on the
    dataset; both are read-only, so later calls return the same view."""
    if d._view is None:
        predicted = predicted_labels(d.logits)
        d._view = CorrectnessView(predicted.astype(np.int64, copy=False), predicted == d.labels,
                                  top_confidence(d.logits))
    return d._view


def wrongness_ratios(d: Dataset) -> np.ndarray:
    """Vectorized wrongness ratios; NaN for correctly predicted records. The
    softmax works row by row, so it runs on the wrong rows alone."""
    view = correctness_view(d)
    wrong = np.flatnonzero(~view.correct)
    probs = row_softmax(d.logits[wrong])
    idx = np.arange(wrong.size)
    ratios = np.full(d.n, np.nan)
    ratios[wrong] = probs[idx, d.labels[wrong]] / probs[idx, view.predicted[wrong]]
    return ratios
