from dataclasses import replace

import numpy as np
import pytest

from calib_lab.analysis import (DEFAULT_BANDS, SURFACE_TEMPLATE, BandRow, default_a_grid,
                                default_tau_grid, k_sweep, loss_surface, wrongness_experiment)
from calib_lab import analysis
from calib_lab.calibrator import TrainConfig, calibrate_dataset, train, train_stack
from calib_lab.datagen import SynthConfig, craft_wrongness_set, generate
from calib_lab.errors import DomainError, ShortfallError, UndefinedMetricError
from calib_lab.losses import DiscrepancyMode, LossKind, loss_values
from calib_lab.metrics import DEFAULT_BINS, auroc, ece
from calib_lab.records import correctness_view
from calib_lab.tensor_math import row_softmax

L1 = DiscrepancyMode.L1
SQ = DiscrepancyMode.SQUARED_L2


def test_surface_rejects_bad_grids():
    with pytest.raises(DomainError):
        loss_surface(LossKind.CA, a_values=[0.0, 2.0])
    with pytest.raises(DomainError):
        loss_surface(LossKind.CA, tau_values=[0.5, 0.0])


def test_ca_rows_nonincreasing_dense_grid():
    taus = np.arange(0.05, 20.0 + 1e-9, 0.05)
    for mode in (L1, SQ):
        grid = loss_surface(LossKind.CA, tau_values=taus, mode=mode)
        assert np.all(np.diff(grid.loss, axis=1) <= 1e-15)


def test_ce_limit_is_log_four():
    grid = loss_surface(LossKind.CE, tau_values=np.geomspace(0.05, 5000.0, 120))
    np.testing.assert_allclose(grid.loss[:, -1], np.log(4.0), atol=1e-3)


def test_mse_interior_minimum_near_one():
    grid = loss_surface(LossKind.MSE, a_values=np.array([1.9]))
    j = int(np.argmin(grid.loss[0]))
    assert 0 < j < grid.tau_values.size - 1
    assert 0.5 < grid.tau_values[j] < 2.0


def per_tau_surface(kind, a_values, tau_values, mode):
    """The surface one scalar temperature at a time, as a column loop."""
    Z = np.empty((a_values.size, 4))
    Z[:, 0] = a_values
    Z[:, 1:] = SURFACE_TEMPLATE
    labels = np.zeros(a_values.size, dtype=np.int64)
    loss = np.empty((a_values.size, tau_values.size))
    c_gt = np.empty_like(loss)
    for j, tau in enumerate(tau_values):
        loss[:, j] = loss_values(Z, labels, tau, kind, mode)
        c_gt[:, j] = row_softmax(Z, tau)[:, 0]
    return loss, c_gt


GRIDS = {"default": (default_a_grid(), default_tau_grid()),
         "one_point": (np.array([0.5]), np.array([1.3])),
         "custom": (np.linspace(-5.0, 1.9, 7), np.array([0.01, 0.3, 1.0, 7.5, 1000.0]))}


@pytest.mark.parametrize("grid_name", list(GRIDS))
@pytest.mark.parametrize("mode", [L1, SQ])
@pytest.mark.parametrize("kind", list(LossKind))
def test_surface_is_bit_equal_to_the_per_tau_loop(kind, mode, grid_name):
    a_values, tau_values = GRIDS[grid_name]
    grid = loss_surface(kind, a_values, tau_values, mode)
    loss, c_gt = per_tau_surface(kind, a_values, tau_values, mode)
    assert grid.loss.shape == grid.c_gt.shape == (a_values.size, tau_values.size)
    assert grid.loss.tobytes() == loss.tobytes()
    assert grid.c_gt.tobytes() == c_gt.tobytes()


def test_c_gt_strictly_increasing_in_a():
    grid = loss_surface(LossKind.CA)
    assert np.all(np.diff(grid.c_gt, axis=0) > 0)


def test_default_grids():
    a = default_a_grid()
    assert a[0] == -2.0 and a[-1] == pytest.approx(1.95) and a.size == 80
    t = default_tau_grid()
    assert t[0] == pytest.approx(0.05) and t[-1] == pytest.approx(20.0) and t.size == 200


@pytest.fixture(scope="module")
def small_pools():
    train_set = generate(SynthConfig(n=6000, wrongness_skew=0.5, seed=40))
    test_set = generate(SynthConfig(n=8000, wrongness_skew=0.5, seed=41))
    return train_set, test_set


def test_wrongness_experiment_rows_and_determinism(small_pools):
    train_set, test_set = small_pools
    cfg = TrainConfig(epochs=10, seed=0)
    bands = ((0.5, 1.0), (0.0, 0.2))
    rows1 = wrongness_experiment(train_set, test_set, cfg, bands=bands, count=150)
    rows2 = wrongness_experiment(train_set, test_set, cfg, bands=bands, count=150)
    for a, b in zip(rows1, rows2):
        assert (a.band_low, a.band_high, a.method, a.n) == (b.band_low, b.band_high, b.method, b.n)
        assert a.ece == b.ece
        assert (np.isnan(a.auroc) and np.isnan(b.auroc)) or a.auroc == b.auroc
    assert [r.method for r in rows1] == ["uncal", "ce", "ca"] * 2
    assert all(r.n == 150 for r in rows1)
    # wrong-only bands leave AUROC undefined
    assert all(np.isnan(r.auroc) for r in rows1)


def test_wrongness_experiment_vary_train(small_pools):
    train_set, test_set = small_pools
    cfg = TrainConfig(epochs=8, seed=0)
    rows = wrongness_experiment(train_set, test_set, cfg, bands=((0.0, 1.0),),
                                vary="train", train_wrong=400, train_correct=400)
    assert [r.method for r in rows] == ["uncal", "ce", "ca"]
    # mixed test set: AUROC defined everywhere
    assert all(np.isfinite(r.auroc) for r in rows)
    assert all(r.n == test_set.n for r in rows)


def two_branch_wrongness(train_set, test_set, config, bands, count, vary, train_wrong,
                         train_correct):
    """The band experiment with one branch per ``vary`` value."""
    def band_row(d, conf, method, band):
        view = correctness_view(d)
        conf = view.confidence if conf is None else conf
        try:
            auc = auroc(conf, view.correct)
        except UndefinedMetricError:
            auc = float("nan")
        return BandRow(band[0], band[1], method, ece(conf, view.correct, DEFAULT_BINS), auc, d.n)

    ca_config = replace(config, loss=LossKind.CA)
    ce_config = replace(config, loss=LossKind.CE)
    rows = []
    if vary == "test":
        ca_params, _ = train(train_set, ca_config)
        ce_params, _ = train(train_set, ce_config)
        for band in bands:
            subset = craft_wrongness_set(test_set, band[0], band[1], count)
            rows.append(band_row(subset, None, "uncal", band))
            rows.append(band_row(subset, calibrate_dataset(ce_params, subset)[1], "ce", band))
            rows.append(band_row(subset, calibrate_dataset(ca_params, subset)[1], "ca", band))
    else:
        for band in bands:
            crafted = craft_wrongness_set(train_set, band[0], band[1], train_wrong,
                                          n_correct=train_correct)
            ca_params, _ = train(crafted, ca_config)
            ce_params, _ = train(crafted, ce_config)
            rows.append(band_row(test_set, None, "uncal", band))
            rows.append(band_row(test_set, calibrate_dataset(ce_params, test_set)[1], "ce", band))
            rows.append(band_row(test_set, calibrate_dataset(ca_params, test_set)[1], "ca", band))
    return rows


@pytest.mark.parametrize("vary", ["test", "train"])
def test_wrongness_experiment_equals_the_two_branch_version(small_pools, vary):
    train_set, test_set = small_pools
    args = (train_set, test_set, TrainConfig(epochs=2, seed=1))
    sizes = dict(bands=((0.5, 1.0), (0.0, 0.2)), count=60, vary=vary, train_wrong=80,
                 train_correct=200)
    rows = wrongness_experiment(*args, **sizes)
    # repr, so that a NaN AUROC compares equal to itself.
    assert repr(rows) == repr(two_branch_wrongness(*args, **sizes))
    assert len(rows) == 6


def test_wrongness_experiment_propagates_shortfall(small_pools):
    train_set, test_set = small_pools
    with pytest.raises(ShortfallError):
        wrongness_experiment(train_set, test_set, TrainConfig(epochs=1, seed=0),
                             bands=((0.95, 1.0),), count=10 ** 6)


def test_default_bands_cover_unit_interval():
    lows = sorted(b[0] for b in DEFAULT_BANDS)
    assert lows == [0.0, 0.2, 0.4, 0.6, 0.8]


def test_k_sweep_improves_ks_on_informative_fixture(small_pools):
    train_set, test_set = small_pools
    rows = k_sweep(train_set, test_set, [1, 2, 4, 10], TrainConfig(epochs=15, seed=0))
    assert [r.k for r in rows] == [1, 2, 4, 10]
    for row in rows:
        assert row.ks <= row.ks_uncal
        assert np.isfinite(row.auroc)


def test_k_sweep_rejects_k_above_class_count(small_pools):
    train_set, test_set = small_pools
    with pytest.raises(DomainError):
        k_sweep(train_set, test_set, [train_set.n_classes + 1], TrainConfig(epochs=1))
    # k = 2.5 was once trained as k = 2 and written as a row with k = 2.
    with pytest.raises(DomainError):
        k_sweep(train_set, test_set, [2.5], TrainConfig(epochs=1))


def test_sweep_and_band_rows_equal_those_of_traced_training(small_pools, monkeypatch):
    train_set, test_set = small_pools
    cfg = TrainConfig(epochs=3, seed=2)

    def rows():
        return (k_sweep(train_set, test_set, [1, 4], cfg),
                wrongness_experiment(train_set, test_set, cfg, bands=((0.5, 1.0), (0.0, 0.2)),
                                     vary="train", train_wrong=80, train_correct=200))

    untraced = rows()
    passed = []

    def traced(trainer):
        """``trainer`` with the per-epoch trace, whatever its caller asks for."""
        def call(data, config, trace):
            passed.append(trace)
            return trainer(data, config)
        return call

    monkeypatch.setattr(analysis, "train", traced(train))
    monkeypatch.setattr(analysis, "train_stack", traced(train_stack))
    # repr, so that a NaN AUROC compares equal to itself.
    assert repr(rows()) == repr(untraced)
    assert passed == [False] * 4


def test_k_sweep_deterministic(small_pools):
    train_set, test_set = small_pools
    cfg = TrainConfig(epochs=5, seed=3)
    assert k_sweep(train_set, test_set, [4], cfg) == k_sweep(train_set, test_set, [4], cfg)
