"""Training losses and their temperature derivatives.

Three losses act on a temperature-scaled softmax:

* ``ca`` — correctness-aware: distance between the top softmax score
  and the 0/1 correctness indicator of the (temperature-invariant)
  prediction.
* ``ce`` — cross-entropy against the ground-truth label.
* ``mse`` — squared error against the one-hot label vector.

The module also provides the closed-form lower/upper bounds of the
batch ``ca`` loss, its split into a confidence-gap term (``e_diff``,
wrong vs. paired correct samples) plus a residual-confidence term
(``e_plus``), and analytic d(loss)/d(temperature) for all three losses.

The batched losses work from the row-max shifted logits S = Z - max z
of ``tensor_math.shift_rows`` alone, and take E = exp(S / tau) with its
row sums from ``tensor_math.exp_rows``. With p = E / sum E, the top
score is c = 1 / sum E, because the predicted class has S = 0, and the mean
logit under p enters the derivatives as z_pred - zbar = -sum_c p_c S_c,
a sum of terms of one sign instead of a difference of two large
numbers. Only the MSE loss normalises E.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .tensor_math import (PROB_FLOOR, check_count, check_integers, check_logits, check_member,
                          check_pair, check_real, exp_rows, predicted_labels, map_row_blocks,
                          row_sums, shift_rows, stable_order, tau_column)


class DiscrepancyMode(enum.Enum):
    """Distance used between confidence and the correctness indicator."""

    L1 = "l1"
    SQUARED_L2 = "sq"


class LossKind(enum.Enum):
    CA = "ca"
    CE = "ce"
    MSE = "mse"


@dataclass(frozen=True)
class LossBounds:
    """Closed-form range of the batch L1 ``ca`` loss at accuracy rho."""

    lower: float
    upper: float
    rho: float
    n_classes: int


@dataclass(frozen=True)
class Decomposition:
    """Split of the batch L1 ``ca`` loss into a wrong-vs-correct
    confidence gap and a residual correct-confidence term.

    ``reconstruction`` recombines the terms as
    (1-rho) * e_diff + (2*rho - 1) * e_plus + (1-rho); it equals the
    batch loss exactly whenever rho >= 0.5, regardless of which correct
    samples were paired. Below 0.5 the numbers are diagnostic only.
    """

    e_diff: float
    e_plus: float
    rho: float
    reconstruction: float


def _discrepancy(residual: np.ndarray, mode: DiscrepancyMode) -> np.ndarray:
    return np.abs(residual) if mode is DiscrepancyMode.L1 else residual * residual


def ca_loss_batch(confidences, correct, mode: DiscrepancyMode = DiscrepancyMode.L1) -> float:
    """Mean per-sample correctness-aware loss over a batch."""
    check_member(mode, DiscrepancyMode, "discrepancy mode")
    confidences, correct = check_pair(confidences, correct)
    return float(np.mean(_discrepancy(confidences - correct.astype(np.float64), mode)))


def ca_bounds(rho: float, n_classes: int) -> LossBounds:
    """Lower/upper bound of the batch L1 loss given accuracy rho and C classes."""
    rho = check_real(rho, "rho", 0.0, 1.0, closed=True)
    check_count(n_classes, "class count", 2)
    lower = (1.0 - rho) / n_classes
    upper = lower + (n_classes - 1) / n_classes
    return LossBounds(lower=lower, upper=upper, rho=rho, n_classes=n_classes)


def decompose(confidences, correct, pairing: str = "lowest",
              rng: np.random.Generator | None = None) -> Decomposition:
    """Gap/residual split of the batch L1 loss.

    Wrong samples are paired against an equal-sized subset of correct
    samples: with ``pairing="lowest"`` the correct samples with the
    smallest confidence (deterministic), with ``pairing="random"`` a
    seeded random subset. The recombination identity holds for either
    choice when rho >= 0.5.
    """
    confidences, correct = check_pair(confidences, correct)
    if pairing not in ("lowest", "random"):
        raise InvalidInputError(f"unknown pairing {pairing!r}")

    rho = float(np.mean(correct))
    wrong_conf = confidences[~correct]
    correct_conf = confidences[correct]
    n_pair = min(wrong_conf.size, correct_conf.size)

    if pairing == "lowest":
        order = stable_order(correct_conf)
    else:
        rng = rng if rng is not None else np.random.default_rng(0)
        check_member(rng, np.random.Generator, "rng")
        order = rng.permutation(correct_conf.size)
    paired = correct_conf[order[:n_pair]]
    unpaired = correct_conf[order[n_pair:]]

    e_diff = float(np.mean(wrong_conf) - np.mean(paired)) if n_pair > 0 else 0.0
    e_plus = float(np.mean(1.0 - unpaired)) if unpaired.size > 0 else 0.0
    reconstruction = (1.0 - rho) * e_diff + (2.0 * rho - 1.0) * e_plus + (1.0 - rho)
    return Decomposition(e_diff=e_diff, e_plus=e_plus, rho=rho,
                         reconstruction=float(reconstruction))


def _at_labels(A: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each row's entry at its label, for (n, C) or (R, n, C) rows."""
    return np.take_along_axis(A, labels[..., None], axis=-1)[..., 0]


def _one_hot_residual(P, labels) -> np.ndarray:
    residual = np.array(P, dtype=np.float64)
    labels = np.asarray(labels)[..., None]
    np.put_along_axis(residual, labels, np.take_along_axis(residual, labels, -1) - 1.0, -1)
    return residual


def mse_rows(P, labels) -> np.ndarray:
    """Per-row squared distance between P[i] and the one-hot label y_i."""
    residual = _one_hot_residual(P, labels)
    return row_sums(residual, residual)


def _checked_labels(labels, shape: tuple) -> np.ndarray:
    """Labels for logits of ``shape``: integers of ``shape[:-1]`` in [0, C)."""
    labels = check_integers(labels, "labels", shape[:-1])
    if labels.size and not (labels.min() >= 0 and labels.max() < shape[-1]):
        raise InvalidInputError(f"labels must lie in [0, {shape[-1]})")
    return labels


class LogitBatch:
    """The temperature-free part of the batched losses, computed once:
    integer ``labels``, the row-max shifted logits ``S`` of
    :func:`~calib_lab.tensor_math.shift_rows` (all finite) and, on first
    use, the ``predicted`` labels. ``S`` is (n, C), or (R, n, C) for a
    stack of R batches of equal size, with (R, n) labels: every loss then
    gives one row of values per batch.

    The logits themselves are not kept: with E = exp(S / tau) and its row
    sums from :func:`~calib_lab.tensor_math.exp_rows`, the top score is
    c = 1 / sum E, since the predicted class has S = 0, and the
    softmax-weighted mean logit enters every derivative only through
    z_pred - zbar = -sum_c p_c S_c. :meth:`prepare` and :meth:`stack` build
    one; :meth:`take` selects rows without repeating any of that work, so
    a trainer prepares its data once and only ``exp_rows`` runs per step.
    """

    def __init__(self, labels, S, predicted=None):
        self.labels, self.S = labels, S
        self._predicted = predicted

    @classmethod
    def prepare(cls, Z, labels) -> "LogitBatch":
        """Check an (n, C) logit matrix and its labels and derive everything but E."""
        S = shift_rows(check_logits(Z))
        return cls(_checked_labels(labels, S.shape), S)

    @classmethod
    def stack(cls, Zs, labels) -> "LogitBatch":
        """An (R, n, C) batch from R checked (n, C) logit matrices and their labels."""
        S = np.empty((len(Zs),) + np.shape(Zs[0]))
        for Z, out in zip(Zs, S):
            shift_rows(check_logits(Z), out=out)
        return cls(_checked_labels(labels, S.shape), S)

    @property
    def predicted(self) -> np.ndarray:
        # Only the CA loss reads it, so it is computed when first asked for. The row
        # max is the only entry that the shift sends to 0, so argmax S is argmax Z.
        if self._predicted is None:
            self._predicted = predicted_labels(self.S)
        return self._predicted

    def take(self, idx) -> "LogitBatch":
        """The rows at ``idx`` (an index array or a slice) of every batch."""
        if isinstance(idx, slice):
            idx = np.arange(self.labels.shape[-1])[idx]
        predicted = None if self._predicted is None else self._predicted.take(idx, axis=-1)
        return LogitBatch(self.labels.take(idx, axis=-1), self.S.take(idx, axis=-2), predicted)


def _batch(Z, labels) -> LogitBatch:
    """A LogitBatch as given (it carries its own labels), or one prepared here."""
    if isinstance(Z, LogitBatch):
        if labels is not None:
            raise InvalidInputError("a LogitBatch carries its own labels; pass labels=None")
        return Z
    return LogitBatch.prepare(Z, labels)


def _batch_losses(b: LogitBatch, taus, kind: LossKind, mode: DiscrepancyMode,
                  own: bool) -> np.ndarray:
    """Per-row losses of a batch at temperatures from ``tau_column``; if the
    batch is ``own``ed by the caller, E overwrites its S."""
    if kind is LossKind.CA:
        # Correctness of the tau-invariant prediction, read before S may be overwritten.
        correct = b.predicted == b.labels
    E, total = exp_rows(b.S, taus, out=b.S if own else None)
    if kind is LossKind.CE:
        return -np.log(np.maximum(_at_labels(E, b.labels) / total, PROB_FLOOR))
    if kind is LossKind.MSE:
        E /= total[..., None]
        return mse_rows(E, b.labels)
    # CA: the top score 1 / sum E against correctness.
    return _discrepancy(1.0 / total - correct, mode)


def loss_values(Z, labels, taus, kind: LossKind,
                mode: DiscrepancyMode = DiscrepancyMode.L1) -> np.ndarray:
    """Per-sample loss of softmax(z_i / tau_i) for each row, as configured;
    ``taus`` is a scalar or one temperature per row. ``Z`` is a logit
    matrix, or a :class:`LogitBatch` with ``labels=None``. A logit matrix is
    checked once and then prepared and scored one row block at a time."""
    check_member(kind, LossKind, "loss kind")
    check_member(mode, DiscrepancyMode, "discrepancy mode")
    if isinstance(Z, LogitBatch):
        b = _batch(Z, labels)
        return _batch_losses(b, tau_column(taus, b.S.shape[:-1]), kind, mode, own=False)
    Z = check_logits(Z)
    labels = _checked_labels(labels, Z.shape)
    taus = tau_column(taus, Z.shape[:1])
    # Each block's batch is made here, so E may overwrite its S.
    return map_row_blocks(lambda rows: _batch_losses(
        LogitBatch(labels[rows], shift_rows(Z[rows])), taus if taus.ndim == 0 else taus[rows],
        kind, mode, own=True), Z.shape[0])


def dloss_dtau_batch(Z, labels, taus, kind: LossKind,
                     mode: DiscrepancyMode = DiscrepancyMode.L1) -> np.ndarray:
    """Analytic derivative of the per-sample loss with respect to its
    temperature.

    With E = exp(S / tau) and p = E / sum E, dE_c/dtau = -(S_c / tau^2) E_c,
    so dp_c/dtau = -(p_c / tau^2) * (S_c - m) for m = sum_c p_c S_c <= 0, and
    the top score c = 1 / sum E has dc/dtau = (c / tau^2) * m. These are
    folded into each loss; the cross-entropy derivative is zero in the
    floored region. ``Z`` is a logit matrix, or a :class:`LogitBatch` with
    ``labels=None``.
    """
    check_member(kind, LossKind, "loss kind")
    check_member(mode, DiscrepancyMode, "discrepancy mode")
    b = _batch(Z, labels)
    S, labels = b.S, b.labels
    E, total = exp_rows(S, tau_column(taus, S.shape[:-1]))
    m = row_sums(E, S) / total
    taus = np.asarray(taus, dtype=np.float64)
    tau_sq = taus * taus

    if kind is LossKind.CE:
        # A floored row may overflow here; its value is discarded below.
        with np.errstate(over="ignore"):
            grad = (_at_labels(S, labels) - m) / tau_sq
        return np.where(_at_labels(E, labels) / total > PROB_FLOOR, grad, 0.0)
    if kind is LossKind.MSE:
        E /= total[..., None]
        # S and m lie in [-finfo.max, 0], so S - m cannot overflow.
        dP = -(E / tau_sq[..., None]) * (S - m[..., None])
        return 2.0 * row_sums(_one_hot_residual(E, labels), dP)
    c_hat = 1.0 / total
    dc_dtau = (c_hat / tau_sq) * m
    indicator = (b.predicted == labels).astype(np.float64)
    if mode is DiscrepancyMode.L1:
        # |c - I|: c > I for wrong samples, c < I for correct ones.
        sign = np.where(indicator == 1.0, -1.0, 1.0)
        return sign * dc_dtau
    return 2.0 * (c_hat - indicator) * dc_dtau
