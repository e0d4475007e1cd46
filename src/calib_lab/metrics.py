"""Calibration and separability metrics.

All metric functions take a confidence vector (entries in (0, 1]) and a
boolean correctness vector of the same length. Values are kept raw in
[0, 1]; the conventional x100 table scaling happens only at CSV export.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError
from .losses import DiscrepancyMode, ca_loss_batch
from .records import Dataset, correctness_view
from .tensor_math import check_count, check_pair, stable_order

DEFAULT_BINS = 25


@dataclass(frozen=True)
class MetricsReport:
    """One evaluation row: calibration metrics, accuracy and record count."""

    ece: float
    brier: float
    ks: float
    auroc: float  # NaN when only one outcome class is present
    accuracy: float
    n: int


def ece(confidences, correct, bins: int = DEFAULT_BINS) -> float:
    """Expected calibration error over `bins` equal-width bins on (0, 1].

    Bins are left-open/right-closed so a confidence of exactly 1 lands
    in the last bin; empty bins contribute nothing.
    """
    confidences, correct = check_pair(confidences, correct)
    check_count(bins, "bins", 1)
    edges = np.linspace(0.0, 1.0, bins + 1)
    # First edge >= c, minus one: the unique b with edges[b] < c <= edges[b+1].
    idx = np.searchsorted(edges, confidences, side="left") - 1
    n = confidences.size
    counts = np.bincount(idx, minlength=bins)
    conf_sums = np.bincount(idx, weights=confidences, minlength=bins)
    acc_sums = np.bincount(idx, weights=correct.astype(np.float64), minlength=bins)
    filled = counts > 0
    gaps = np.abs(conf_sums[filled] / counts[filled] - acc_sums[filled] / counts[filled])
    return float(np.sum(counts[filled] / n * gaps))


def brier_top_label(confidences, correct) -> float:
    """Mean squared gap between top-label confidence and correctness: the
    squared-distance CA loss of the batch."""
    return ca_loss_batch(confidences, correct, DiscrepancyMode.SQUARED_L2)


def ks_error(confidences, correct) -> float:
    """Max gap between cumulative confidence and cumulative correctness
    over confidence-sorted prefixes (ties kept in original order)."""
    confidences, correct = check_pair(confidences, correct)
    order = stable_order(confidences)
    diff = confidences[order] - correct[order].astype(np.float64)
    return float(np.max(np.abs(np.cumsum(diff))) / confidences.size)


def auroc(confidences, correct) -> float:
    """Probability a random correct sample outranks a random wrong one,
    ties counted one half (rank-sum form)."""
    confidences, correct = check_pair(confidences, correct)
    n_pos = int(np.sum(correct))
    n_neg = confidences.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs at least one correct and one wrong sample")
    ranks = _midranks(confidences)
    u = float(np.sum(ranks[correct])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged. A tie group shares its mean rank, so
    the order of equal values in the sort changes no rank: no stable sort."""
    order = np.argsort(values)
    sorted_vals = values[order]
    bounds = np.flatnonzero(np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1], [True])))
    ranks = np.empty(values.size, dtype=np.float64)
    # Sorted positions i..j-1 share the midrank (i + j + 1) / 2.
    ranks[order] = np.repeat((bounds[:-1] + bounds[1:] + 1) / 2.0, np.diff(bounds))
    return ranks


def report(d: Dataset, confidences=None) -> MetricsReport:
    """Bundle every metric for a dataset under the given confidences
    (uncalibrated ones when omitted); AUROC is NaN where it is undefined."""
    view = correctness_view(d)
    if confidences is None:
        confidences = view.confidence
    try:
        auc = auroc(confidences, view.correct)
    except UndefinedMetricError:
        auc = float("nan")
    return MetricsReport(
        ece=ece(confidences, view.correct),
        brier=brier_top_label(confidences, view.correct),
        ks=ks_error(confidences, view.correct),
        auroc=auc,
        accuracy=view.accuracy,
        n=d.n,
    )
