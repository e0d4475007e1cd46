"""Diagnostic studies as data grids: loss surfaces over a
(ground-truth logit, temperature) grid, wrongness-band experiments,
and the top-k feature sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import metrics
from .calibrator import TrainConfig, calibrate_dataset, train
from .datagen import craft_wrongness_set
from .errors import DomainError, UndefinedMetricError
from .losses import DiscrepancyMode, LossKind, loss_values
from .records import Dataset, correctness_view
from .tensor_math import row_softmax

# Four-way template with the ground truth on class 0 and the wrongly
# predicted class fixed at logit 2.0.
SURFACE_TEMPLATE = (2.0, 0.1, 0.05)
SURFACE_LABEL = 0

DEFAULT_BANDS = ((0.8, 1.0), (0.6, 0.8), (0.4, 0.6), (0.2, 0.4), (0.0, 0.2))


def default_a_grid() -> np.ndarray:
    return np.linspace(-2.0, 1.95, 80)


def default_tau_grid() -> np.ndarray:
    return np.geomspace(0.05, 20.0, 200)


@dataclass(frozen=True)
class SurfaceGrid:
    """Loss values over the (a, tau) grid for one loss, with the
    ground-truth softmax score recorded at each grid point."""

    loss_kind: LossKind
    mode: DiscrepancyMode
    a_values: np.ndarray
    tau_values: np.ndarray
    loss: np.ndarray  # (|a|, |tau|)
    c_gt: np.ndarray  # (|a|, |tau|)


@dataclass(frozen=True)
class BandRow:
    band_low: float
    band_high: float
    method: str
    ece: float
    auroc: float  # NaN when only one outcome class is present
    n: int


@dataclass(frozen=True)
class KSweepRow:
    k: int
    ks: float
    auroc: float
    ks_uncal: float
    auroc_uncal: float


def loss_surface(kind: LossKind, a_values=None, tau_values=None,
                 mode: DiscrepancyMode = DiscrepancyMode.SQUARED_L2) -> SurfaceGrid:
    """Evaluate one loss on the wrongly predicted template sample
    [a, 2.0, 0.1, 0.05] (label 0) over a grid of a and tau."""
    a_values = default_a_grid() if a_values is None else np.asarray(a_values, dtype=np.float64)
    tau_values = default_tau_grid() if tau_values is None else np.asarray(tau_values, dtype=np.float64)
    if a_values.size == 0 or tau_values.size == 0:
        raise DomainError("loss surface needs at least one a value and one tau value")
    if np.any(a_values >= SURFACE_TEMPLATE[0]):
        raise DomainError("ground-truth logit a must stay below 2.0 (sample must stay wrong)")

    n_a = a_values.size
    Z = np.empty((n_a, 4))
    Z[:, 0] = a_values
    Z[:, 1:] = SURFACE_TEMPLATE
    labels = np.zeros(n_a, dtype=np.int64)

    loss = np.empty((n_a, tau_values.size))
    c_gt = np.empty_like(loss)
    for j, tau in enumerate(tau_values):
        loss[:, j] = loss_values(Z, labels, tau, kind, mode)
        c_gt[:, j] = row_softmax(Z, tau)[:, 0]
    return SurfaceGrid(loss_kind=kind, mode=mode, a_values=a_values,
                       tau_values=tau_values, loss=loss, c_gt=c_gt)


def _band_metrics(d: Dataset, confidences, method: str,
                  band: tuple[float, float], bins: int) -> BandRow:
    view = correctness_view(d)
    conf = view.confidence if confidences is None else confidences
    try:
        auc = metrics.auroc(conf, view.correct)
    except UndefinedMetricError:
        auc = float("nan")
    return BandRow(band_low=band[0], band_high=band[1], method=method,
                   ece=metrics.ece(conf, view.correct, bins), auroc=auc, n=d.n)


def wrongness_experiment(train_set: Dataset, test_set: Dataset, config: TrainConfig,
                         bands=DEFAULT_BANDS, count: int = 50, vary: str = "test",
                         train_wrong: int = 200, train_correct: int = 1000,
                         bins: int = metrics.DEFAULT_BINS) -> list[BandRow]:
    """Per-band comparison of no calibration vs. CE- and CA-trained
    calibrators.

    ``vary="test"`` trains once on the full training set and evaluates
    on crafted wrong-only test bands; ``vary="train"`` trains per band
    on a crafted set of ``train_wrong`` banded wrong plus
    ``train_correct`` correct records, evaluating on the full test set.
    """
    if vary not in ("test", "train"):
        raise DomainError(f"vary must be 'test' or 'train', got {vary!r}")
    ca_config = replace(config, loss=LossKind.CA)
    ce_config = replace(config, loss=LossKind.CE)
    rows: list[BandRow] = []

    if vary == "test":
        ca_params, _ = train(train_set, ca_config)
        ce_params, _ = train(train_set, ce_config)
        for band in bands:
            subset = craft_wrongness_set(test_set, band[0], band[1], count)
            rows.append(_band_metrics(subset, None, "uncal", band, bins))
            _, conf_ce = calibrate_dataset(ce_params, subset)
            rows.append(_band_metrics(subset, conf_ce, "ce", band, bins))
            _, conf_ca = calibrate_dataset(ca_params, subset)
            rows.append(_band_metrics(subset, conf_ca, "ca", band, bins))
    else:
        for band in bands:
            crafted = craft_wrongness_set(train_set, band[0], band[1], train_wrong,
                                          n_correct=train_correct)
            ca_params, _ = train(crafted, ca_config)
            ce_params, _ = train(crafted, ce_config)
            rows.append(_band_metrics(test_set, None, "uncal", band, bins))
            _, conf_ce = calibrate_dataset(ce_params, test_set)
            rows.append(_band_metrics(test_set, conf_ce, "ce", band, bins))
            _, conf_ca = calibrate_dataset(ca_params, test_set)
            rows.append(_band_metrics(test_set, conf_ca, "ca", band, bins))
    return rows


def k_sweep(train_set: Dataset, test_set: Dataset, k_values, config: TrainConfig) -> list[KSweepRow]:
    """Train one CA calibrator per k and report held-out KS and AUROC,
    with the uncalibrated values alongside."""
    view = correctness_view(test_set)
    ks_uncal = metrics.ks_error(view.confidence, view.correct)
    auroc_uncal = metrics.auroc(view.confidence, view.correct)
    rows = []
    for k in k_values:
        k = int(k)
        params, _ = train(train_set, replace(config, k=k))
        _, conf = calibrate_dataset(params, test_set)
        rows.append(KSweepRow(
            k=k,
            ks=metrics.ks_error(conf, view.correct),
            auroc=metrics.auroc(conf, view.correct),
            ks_uncal=ks_uncal,
            auroc_uncal=auroc_uncal,
        ))
    return rows
