"""Cross-module consistency of the shared numeric core: one predicted
label, and a tempered softmax that survives extreme finite logits."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calib_lab.baselines import GlobalTemp, apply_global, fit_global_temperature, nll_objective
from calib_lab.calibrator import feature_matrix
from calib_lab.errors import InvalidInputError
from calib_lab.losses import (DiscrepancyMode, LogitBatch, LossKind, dloss_dtau_batch,
                             loss_values, mse_rows)
from calib_lab.records import Dataset, correctness_view, wrongness_ratios
from calib_lab.tensor_math import row_softmax, top_confidence


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


@pytest.mark.parametrize("kind", [LossKind.CA, LossKind.CE, LossKind.MSE])
def test_extreme_logits_give_finite_losses_and_gradients(kind):
    taus = np.full(len(EXTREME), 0.05)
    for label in range(3):
        labels = np.full(len(EXTREME), label)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = loss_values(EXTREME, labels, taus, kind)
            grads = dloss_dtau_batch(EXTREME, labels, taus, kind)
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(grads))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_top_confidence_is_row_softmax_at_argmax(data):
    extreme = data.draw(st.booleans())
    n, c = data.draw(st.integers(1, 6)), 3 if extreme else data.draw(st.integers(2, 6))
    magnitude = data.draw(st.sampled_from([1.0, 50.0, 1e300]))
    # values drawn from a small set make tied maxima common
    entry = st.one_of(st.floats(-magnitude, magnitude), st.sampled_from([-1.0, 0.0, 2.0]))
    Z = np.array(data.draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                                    min_size=n, max_size=n)))
    if extreme:
        Z = np.vstack([EXTREME, Z])
    per_row = st.lists(st.floats(0.05, 50.0), min_size=len(Z), max_size=len(Z)).map(np.array)
    taus = data.draw(st.one_of(st.none(), st.floats(0.05, 50.0), per_row))
    expected = row_softmax(Z, taus)[np.arange(len(Z)), np.argmax(Z, axis=1)]
    assert np.array_equal(top_confidence(Z, taus), expected)


@pytest.mark.parametrize("tau", [1.0, 1e300, 1e308])
@pytest.mark.parametrize("row", [[1e308, -1e308], [2.0, -1.0]], ids=["span", "plain"])
def test_top_score_agrees_across_softmax_consumers(row, tau):
    # Class 0 is predicted and the label is 1, so the L1 CA loss |c - 0| is the top score c.
    Z = np.array([row])
    c = top_confidence(Z, tau)[0]
    assert row_softmax(Z, tau)[0, 0] == c
    assert loss_values(Z, [1], tau, LossKind.CA, DiscrepancyMode.L1)[0] == c
    d = Dataset(Z, [1], np.array([[[0.5, 0.5]]]))
    assert np.all(np.isfinite(wrongness_ratios(d)))


def test_extreme_logits_in_global_temperature_scaling():
    d = Dataset(EXTREME, np.ones(len(EXTREME), dtype=int), np.full((len(EXTREME), 1, 3), 1.0 / 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        conf = apply_global(d, GlobalTemp(0.05))
        nll = nll_objective(d, 0.05)
        fitted = fit_global_temperature(d)
    assert np.all(np.isfinite(conf)) and np.isfinite(nll) and np.isfinite(fitted.tau)
    np.testing.assert_array_equal(conf, np.ones(len(EXTREME)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_loss_values_equal_the_softmax_formulas_bit_for_bit(data):
    """loss_values reads the top score and the label score from E = exp(S / tau)
    and its row sums; each value equals its formula on row_softmax exactly."""
    extreme = data.draw(st.booleans())
    n, c = data.draw(st.integers(1, 6)), 3 if extreme else data.draw(st.integers(2, 6))
    magnitude = data.draw(st.sampled_from([1.0, 50.0, 1e300]))
    Z = np.array(data.draw(st.lists(st.lists(st.floats(-magnitude, magnitude),
                                             min_size=c, max_size=c),
                                    min_size=n, max_size=n)))
    labels = np.array(data.draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)))
    if extreme:
        Z = np.vstack([EXTREME, Z])
        labels = np.concatenate([data.draw(st.lists(st.integers(0, 2), min_size=3,
                                                    max_size=3)), labels])
    per_row = st.lists(st.floats(0.05, 50.0), min_size=len(Z), max_size=len(Z)).map(np.array)
    taus = data.draw(st.one_of(st.floats(0.05, 50.0), per_row))
    P = row_softmax(Z, taus)
    rows = np.arange(len(Z))
    residual = top_confidence(Z, taus) - (np.argmax(Z, axis=1) == labels)
    assert np.array_equal(loss_values(Z, labels, taus, LossKind.CA, DiscrepancyMode.L1),
                          np.abs(residual))
    assert np.array_equal(loss_values(Z, labels, taus, LossKind.CA,
                                      DiscrepancyMode.SQUARED_L2), residual * residual)
    assert np.array_equal(loss_values(Z, labels, taus, LossKind.CE),
                          -np.log(np.maximum(P[rows, labels], 1e-12)))
    assert np.array_equal(loss_values(Z, labels, taus, LossKind.MSE), mse_rows(P, labels))


# --- the prepared logit batch is the array call, bit for bit ---

def assert_prepared_matches_arrays(Z, labels, taus, idx, kind, mode):
    """loss_values and dloss_dtau_batch on a LogitBatch, whole and after
    take(idx), equal the array calls on the same rows. Both sides run
    under one errstate, so a non-finite value must match too."""
    Z, labels, taus = np.asarray(Z), np.asarray(labels), np.asarray(taus)
    b = LogitBatch.prepare(Z, labels)
    row_taus = taus[idx] if taus.ndim else taus
    with np.errstate(over="ignore", invalid="ignore"):
        for fn in (loss_values, dloss_dtau_batch):
            assert np.array_equal(fn(b, None, taus, kind, mode),
                                  fn(Z, labels, taus, kind, mode), equal_nan=True)
            assert np.array_equal(fn(b.take(idx), None, row_taus, kind, mode),
                                  fn(Z[idx], labels[idx], row_taus, kind, mode), equal_nan=True)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(LossKind)), st.sampled_from(list(DiscrepancyMode)), st.data())
def test_prepared_batch_equals_array_call(kind, mode, data):
    n, c = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 6))
    magnitude = data.draw(st.sampled_from([1.0, 50.0, 1e300]))
    Z = data.draw(st.lists(st.lists(st.floats(-magnitude, magnitude), min_size=c, max_size=c),
                           min_size=n, max_size=n))
    labels = data.draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
    per_row = st.lists(st.floats(0.05, 50.0), min_size=n, max_size=n)
    taus = data.draw(st.one_of(st.floats(0.05, 50.0), per_row))
    idx = data.draw(st.one_of(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n).map(np.array),
        st.integers(0, n - 1).map(lambda start: slice(start, None))))
    assert_prepared_matches_arrays(Z, labels, taus, idx, kind, mode)


@pytest.mark.parametrize("mode", list(DiscrepancyMode))
@pytest.mark.parametrize("kind", list(LossKind))
@pytest.mark.parametrize("label", [0, 1, 2])
def test_prepared_batch_equals_array_call_on_extreme_rows(kind, mode, label):
    labels = np.full(len(EXTREME), label)
    for taus in (0.05, np.array([0.05, 1.0, 30.0])):
        for idx in (np.array([2, 0, 2]), slice(1, None)):
            assert_prepared_matches_arrays(EXTREME, labels, taus, idx, kind, mode)


def test_prepared_batch_refuses_a_second_set_of_labels():
    b = LogitBatch.prepare(EXTREME, [0, 1, 2])
    with pytest.raises(InvalidInputError, match="carries its own labels"):
        loss_values(b, [0, 1, 2], 1.0, LossKind.CE)


# --- a row's scores do not depend on what shares its batch ---

def row_scores(Z, labels, taus):
    """Every per-row output of the row-sum kernel's consumers, as one list."""
    return [top_confidence(Z, taus)] + [fn(Z, labels, taus, kind) for kind in LossKind
                                        for fn in (loss_values, dloss_dtau_batch)]


@pytest.mark.parametrize("c", [2, 3, 10, 100])
def test_row_scores_are_batch_invariant(c):
    rng = np.random.default_rng(c)
    n = 40
    Z, labels, taus = rng.normal(0.0, 4.0, (n, c)), rng.integers(0, c, n), rng.uniform(0.1, 5.0, n)
    full = row_scores(Z, labels, taus)

    def joined(starts, size):
        parts = [row_scores(Z[i:i + size], labels[i:i + size], taus[i:i + size]) for i in starts]
        return [np.concatenate(scores) for scores in zip(*parts)]

    # The same logits one float64 past the start of a buffer, so every row moves in memory.
    offset = np.empty(n * c + 1)[1:].reshape(n, c)
    offset[...] = Z
    for scores in (joined(range(n), 1), joined(range(0, n, 7), 7),
                   row_scores(offset, labels, taus)):
        for got, expected in zip(scores, full):
            assert got.tobytes() == expected.tobytes()
