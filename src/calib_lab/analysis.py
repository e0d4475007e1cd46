"""Diagnostic studies as data grids: loss surfaces over a
(ground-truth logit, temperature) grid, wrongness-band experiments,
and the top-k feature sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import metrics
from .calibrator import TrainConfig, calibrate_dataset, train, train_stack
from .datagen import craft_wrongness_set
from .errors import DomainError
from .losses import DiscrepancyMode, LossKind, loss_values
from .records import Dataset, correctness_view
from .tensor_math import read_array, row_softmax

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
    a_values = default_a_grid() if a_values is None else read_array(a_values, "a values")
    tau_values = default_tau_grid() if tau_values is None else read_array(tau_values, "tau values")
    if a_values.size == 0 or tau_values.size == 0:
        raise DomainError("loss surface needs at least one a value and one tau value")
    if np.any(a_values >= SURFACE_TEMPLATE[0]):
        raise DomainError("ground-truth logit a must stay below 2.0 (sample must stay wrong)")

    # One row per (a, tau) grid point, a-major, each with its own temperature.
    n_a, n_tau = a_values.size, tau_values.size
    Z = np.empty((n_a * n_tau, 4))
    Z[:, 0] = np.repeat(a_values, n_tau)
    Z[:, 1:] = SURFACE_TEMPLATE
    taus = np.tile(tau_values, n_a)
    loss = loss_values(Z, np.full(Z.shape[0], SURFACE_LABEL), taus, kind, mode)
    c_gt = row_softmax(Z, taus)[:, SURFACE_LABEL]
    return SurfaceGrid(loss_kind=kind, mode=mode, a_values=a_values, tau_values=tau_values,
                       loss=loss.reshape(n_a, n_tau), c_gt=c_gt.reshape(n_a, n_tau))


def _band_metrics(d: Dataset, params, method: str, band: tuple[float, float]) -> BandRow:
    """A band's row for one method: ``d`` scored by ``params``, or as-is if None."""
    rep = metrics.report(d, None if params is None else calibrate_dataset(params, d)[1])
    return BandRow(band_low=float(band[0]), band_high=float(band[1]), method=method,
                   ece=rep.ece, auroc=rep.auroc, n=d.n)


def wrongness_experiment(train_set: Dataset, test_set: Dataset, config: TrainConfig,
                         bands=DEFAULT_BANDS, count: int = 50, vary: str = "test",
                         train_wrong: int = 200, train_correct: int = 1000) -> list[BandRow]:
    """Per-band comparison of no calibration vs. CE- and CA-trained
    calibrators.

    ``vary="test"`` trains once on the full training set and evaluates
    on crafted wrong-only test bands; ``vary="train"`` trains per band
    on a crafted set of ``train_wrong`` banded wrong plus
    ``train_correct`` correct records, evaluating on the full test set.
    """
    if vary not in ("test", "train"):
        raise DomainError(f"vary must be 'test' or 'train', got {vary!r}")
    trained_on = [train_set] if vary == "test" else [
        craft_wrongness_set(train_set, low, high, train_wrong, n_correct=train_correct)
        for low, high in bands]
    # Each loss's models, one per training set, trained as one stack.
    ce, ca = ([p for p, _ in train_stack(trained_on, replace(config, loss=kind), trace=False)]
              for kind in (LossKind.CE, LossKind.CA))
    del trained_on  # the crafted sets are not scored
    if vary == "test":
        ce, ca = ce * len(bands), ca * len(bands)
    rows: list[BandRow] = []
    for band, ce_params, ca_params in zip(bands, ce, ca):
        evaluated = (craft_wrongness_set(test_set, band[0], band[1], count) if vary == "test"
                     else test_set)
        rows.extend(_band_metrics(evaluated, params, name, band) for name, params
                    in (("uncal", None), ("ce", ce_params), ("ca", ca_params)))
    return rows


def k_sweep(train_set: Dataset, test_set: Dataset, k_values, config: TrainConfig) -> list[KSweepRow]:
    """Train one CA calibrator per k and report held-out KS and AUROC,
    with the uncalibrated values alongside."""
    view = correctness_view(test_set)
    ks_uncal = metrics.ks_error(view.confidence, view.correct)
    auroc_uncal = metrics.auroc(view.confidence, view.correct)
    rows = []
    for k in k_values:
        params, _ = train(train_set, replace(config, k=k), trace=False)
        _, conf = calibrate_dataset(params, test_set)
        rows.append(KSweepRow(
            k=k,
            ks=metrics.ks_error(conf, view.correct),
            auroc=metrics.auroc(conf, view.correct),
            ks_uncal=ks_uncal,
            auroc_uncal=auroc_uncal,
        ))
    return rows
