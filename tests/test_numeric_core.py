"""Cross-module consistency of the shared numeric core: one predicted
label, and a tempered softmax that survives extreme finite logits."""

import warnings

import numpy as np
import pytest

from calib_lab.baselines import GlobalTemp, apply_global, fit_global_temperature, nll_objective
from calib_lab.calibrator import feature_matrix
from calib_lab.losses import DiscrepancyMode, LossKind, dloss_dtau_batch, loss_values
from calib_lab.records import Dataset, correctness_view, wrongness_ratios


def test_near_tie_has_one_predicted_label():
    # exp collapses the 1e-17 gap, but argmax z still picks class 1, so
    # the label-0 record is wrong everywhere.
    logits = np.array([[0.0, 1e-17, -3.0]])
    d = Dataset(logits, [0], np.array([[[0.5, 0.3, 0.2]]]))
    view = correctness_view(d)
    assert view.predicted.tolist() == [1]
    assert not view.correct[0]
    ca = loss_values(logits, [0], [1.0], LossKind.CA, DiscrepancyMode.L1)[0]
    assert ca == pytest.approx(1.0 / (2.0 + np.exp(-3.0)), rel=1e-12)  # 0.488, scored as wrong
    ratio = wrongness_ratios(d)[0]
    assert not np.isnan(ratio)
    # the top-1 feature is the transform value at the predicted class
    assert feature_matrix(d, 1)[0, 0] == d.transform_probs[0, 0, view.predicted[0]]


# the last row spans more than the float64 range: its shifted logits overflow
EXTREME = np.array([[1e307, -1e307, 0.0], [0.0, 5e306, -1e307], [1e308, -1e308, 0.0]])


@pytest.mark.parametrize("kind", [LossKind.CA, LossKind.CE])
def test_extreme_logits_give_finite_losses_and_gradients(kind):
    labels = np.ones(len(EXTREME), dtype=int)
    taus = np.full(len(EXTREME), 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = loss_values(EXTREME, labels, taus, kind)
        grads = dloss_dtau_batch(EXTREME, labels, taus, kind)
    assert np.all(np.isfinite(values)) and np.all(np.isfinite(grads))


def test_extreme_logits_in_global_temperature_scaling():
    d = Dataset(EXTREME, np.ones(len(EXTREME), dtype=int), np.full((len(EXTREME), 1, 3), 1.0 / 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        conf = apply_global(d, GlobalTemp(0.05))
        nll = nll_objective(d, 0.05)
        fitted = fit_global_temperature(d)
    assert np.all(np.isfinite(conf)) and np.isfinite(nll) and np.isfinite(fitted.tau)
    np.testing.assert_array_equal(conf, np.ones(len(EXTREME)))
