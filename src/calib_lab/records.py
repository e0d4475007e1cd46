"""Domain data model: datasets and derived per-sample quantities
(correctness, wrongness degree).

A dataset stores its contents as stacked arrays (logits ``(n, C)``,
labels ``(n,)``, transform softmax outputs ``(n, M, C)``) so the
numeric modules can stay vectorized; a single sample is a one-row
dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .tensor_math import (check_integers, exp_rows, predicted_labels, read_array, shift_rows,
                          top_confidence)

# Transform softmax rows must sum to 1 within this tolerance.
PROB_SUM_TOL = 1e-9


def _check_values(logits: np.ndarray, labels: np.ndarray, probs: np.ndarray) -> None:
    """Every value check on a dataset. A failure names the first bad record
    and, in it, the first bad field of logits, label, transforms[0..M-1]."""
    with np.errstate(invalid="ignore", over="ignore"):
        deltas = probs.sum(axis=2) - 1.0
    signed = (probs >= 0).all(axis=2)  # False for NaN too; +inf fails the sum
    bad = np.column_stack([~np.isfinite(logits).all(axis=1),
                           (labels < 0) | (labels >= logits.shape[1]),
                           ~signed | ~(np.abs(deltas) <= PROB_SUM_TOL)])
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), bad.shape[1])
        ch = col - 2
        reason = ("logits contain non-finite entries" if col == 0 else
                  f"label lies outside [0, {logits.shape[1]})" if col == 1 else
                  "transform row entries must be finite and >= 0" if not signed[row, ch] else
                  f"transform row sums to 1{deltas[row, ch]:+.2e}, beyond {PROB_SUM_TOL:g}")
        raise InvalidInputError(reason, row=row,
                                field=("logits", "label")[col] if col < 2 else f"transforms[{ch}]")


class Dataset:
    """Immutable collection of records sharing class count C and
    transform count M. An ``_owned`` caller's fresh float64 arrays are frozen, not copied."""

    def __init__(self, logits: np.ndarray, labels: np.ndarray, transform_probs: np.ndarray,
                 record_ids: np.ndarray | None = None, *, _owned: bool = False):
        logits = np.array(read_array(logits, "logits"), copy=not _owned)
        if logits.ndim != 2 or logits.shape[0] == 0 or logits.shape[1] < 2:
            raise InvalidInputError(f"logits must be (n, C) with n >= 1, C >= 2, got {logits.shape}")
        n, c = logits.shape
        # Copies: the dataset freezes its arrays, and the caller's stay writable.
        labels = np.array(check_integers(labels, "labels", (n,)))
        probs = np.array(read_array(transform_probs, "transform_probs"), copy=not _owned)
        if probs.ndim != 3 or probs.shape != (n, probs.shape[1], c) or probs.shape[1] < 1:
            raise InvalidInputError(
                f"transform_probs must have shape ({n}, M, {c}) with M >= 1, got {probs.shape}")
        _check_values(logits, labels, probs)
        record_ids = (np.arange(n, dtype=np.int64) if record_ids is None
                      else np.array(check_integers(record_ids, "record_ids", (n,))))
        for arr in (logits, labels, probs, record_ids):
            arr.setflags(write=False)
        self.logits = logits
        self.labels = labels
        self.transform_probs = probs
        self.record_ids = record_ids
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
        """Selection-only subset; record contents are preserved bit-exactly."""
        indices = check_integers(indices, "subset indices")
        if indices.size == 0:
            raise InvalidInputError("subset must keep at least one record")
        return Dataset(self.logits[indices], self.labels[indices],
                       self.transform_probs[indices], self.record_ids[indices], _owned=True)


@dataclass(frozen=True)
class CorrectnessView:
    """Per-record prediction, correctness flag, and uncalibrated confidence."""

    predicted: np.ndarray   # (n,) argmax labels
    correct: np.ndarray     # (n,) bool
    confidence: np.ndarray  # (n,) max softmax score, uncalibrated

    def __post_init__(self):
        for arr in (self.predicted, self.correct, self.confidence):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.predicted.shape[0]

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
        d._view = CorrectnessView(predicted.astype(np.int64), predicted == d.labels,
                                  top_confidence(d.logits))
    return d._view


def wrongness_ratios(d: Dataset) -> np.ndarray:
    """Vectorized wrongness ratios; NaN for correctly predicted records. The
    softmax works row by row, so it runs on the wrong rows alone."""
    view = correctness_view(d)
    wrong = np.flatnonzero(~view.correct)
    Z = d.logits[wrong]  # a fresh copy, so the softmax runs in place in it
    probs, total = exp_rows(shift_rows(Z, out=Z), out=Z)
    probs /= total[:, None]
    idx = np.arange(wrong.size)
    ratios = np.full(d.n, np.nan)
    ratios[wrong] = probs[idx, d.labels[wrong]] / probs[idx, view.predicted[wrong]]
    return ratios
