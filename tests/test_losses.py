import numpy as np
import pytest

from calib_lab.errors import InvalidInputError
from calib_lab.losses import (DiscrepancyMode, LogitBatch, LossKind, ca_bounds, ca_loss_batch,
                              decompose, dloss_dtau_batch, loss_values, mse_rows)
from calib_lab.tensor_math import row_softmax

L1 = DiscrepancyMode.L1
SQ = DiscrepancyMode.SQUARED_L2

ORACLE_P = row_softmax([[1.0, 2.0, 0.1, 0.05]])[0]


def random_batch(rng, n=None, c=None):
    c = c or int(rng.integers(2, 50))
    n = n or int(rng.integers(1, 500))
    conf = rng.uniform(1.0 / c, 1.0, n)
    correct = rng.random(n) < rng.random()
    return conf, correct, c


# --- one-sample and batch CA loss ---

def test_ca_loss_examples():
    assert ca_loss_batch([1.0], [True], L1) == 0.0
    assert ca_loss_batch([0.292], [False], L1) == pytest.approx(0.292, abs=1e-15)
    assert ca_loss_batch([0.6], [False], SQ) == pytest.approx(0.36, abs=1e-15)


def test_ca_loss_domain():
    for bad in (0.0, -0.1, 1.2, np.nan):
        with pytest.raises(InvalidInputError):
            ca_loss_batch([bad], [True], L1)


def test_ca_loss_batch_hand_cases():
    assert ca_loss_batch([1.0, 1.0, 1.0], [True, True, True], L1) == 0.0
    assert ca_loss_batch([0.9, 0.3], [True, False], L1) == pytest.approx(0.2, abs=1e-15)
    with pytest.raises(InvalidInputError):
        ca_loss_batch([], [], L1)


def test_ca_loss_batch_respects_bounds():
    rng = np.random.default_rng(10)
    for _ in range(200):
        conf, correct, c = random_batch(rng)
        bounds = ca_bounds(float(np.mean(correct)), c)
        value = ca_loss_batch(conf, correct, L1)
        assert bounds.lower <= value <= bounds.upper


def test_ca_bounds_examples():
    b = ca_bounds(1.0, 10)
    assert (b.lower, b.upper) == (0.0, 0.9)
    b = ca_bounds(0.0, 4)
    assert (b.lower, b.upper) == (0.25, 1.0)
    b = ca_bounds(0.8, 1000)
    assert b.lower == pytest.approx(0.0002, abs=1e-15)
    assert b.upper == pytest.approx(0.0002 + 0.999, abs=1e-15)
    with pytest.raises(InvalidInputError):
        ca_bounds(1.5, 10)
    with pytest.raises(InvalidInputError):
        ca_bounds(0.5, 1)
    # Bounds for 2.5 classes were once returned.
    with pytest.raises(InvalidInputError):
        ca_bounds(0.5, 2.5)


# --- decomposition ---

def test_decompose_all_correct_perfect_confidence():
    dec = decompose([1.0, 1.0, 1.0], [True, True, True])
    assert dec.e_plus == 0.0
    assert dec.reconstruction == 0.0


def test_decompose_hand_case():
    # Two correct (0.9, 0.8), one wrong (0.6). Direct batch loss:
    # (0.1 + 0.2 + 0.6) / 3 = 0.3. Pairing the lowest correct (0.8):
    # e_diff = 0.6 - 0.8 = -0.2, e_plus = 1 - 0.9 = 0.1, and
    # (1/3)(-0.2) + (1/3)(0.1) + 1/3 = 0.3.
    dec = decompose([0.9, 0.8, 0.6], [True, True, False])
    assert dec.e_diff == pytest.approx(-0.2, abs=1e-15)
    assert dec.e_plus == pytest.approx(0.1, abs=1e-15)
    assert dec.reconstruction == pytest.approx(0.3, abs=1e-15)
    assert dec.rho >= 0.5
    direct = ca_loss_batch([0.9, 0.8, 0.6], [True, True, False], L1)
    assert dec.reconstruction == pytest.approx(direct, abs=1e-12)


def test_decompose_gap_shrinks_when_confidences_separate():
    base = decompose([0.9, 0.8, 0.6], [True, True, False])
    moved = decompose([0.95, 0.85, 0.4], [True, True, False])
    assert moved.e_diff < base.e_diff


def test_decompose_identity_random_batches_both_pairings():
    rng = np.random.default_rng(11)
    pair_rng = np.random.default_rng(12)
    checked = 0
    while checked < 200:
        conf, correct, _ = random_batch(rng)
        if np.mean(correct) < 0.5:
            continue
        direct = ca_loss_batch(conf, correct, L1)
        for dec in (decompose(conf, correct, "lowest"),
                    decompose(conf, correct, "random", rng=pair_rng)):
            assert abs(dec.reconstruction - direct) < 1e-10
        checked += 1


@pytest.mark.parametrize("rng", [5, "seed", np.random.RandomState(0)])
def test_decompose_refuses_an_rng_that_is_not_a_generator(rng):
    with pytest.raises(InvalidInputError, match="rng must be a Generator"):
        decompose([0.9, 0.8, 0.6], [True, True, False], "random", rng=rng)


def test_decompose_below_half_accuracy_is_diagnostic_only():
    dec = decompose([0.6, 0.7, 0.8], [True, False, False])
    assert dec.rho < 0.5


# --- CE / MSE ---

def test_ce_loss_values():
    def ce(z, label):
        return loss_values([z], [label], 1.0, LossKind.CE)[0]
    # exp(-1e308) is an exact 0, so this row's softmax is the one-hot [1, 0, 0]
    assert ce([0.0, -1e308, -1e308], 0) == pytest.approx(0.0, abs=1e-15)
    assert ce([0.0] * 4, 2) == pytest.approx(np.log(4.0), abs=1e-15)
    # frozen from the arbitrary-precision softmax oracle
    assert ce([1.0, 2.0, 0.1, 0.05], 0) == pytest.approx(1.5066501979839817, abs=1e-15)
    # floored at 1e-12 instead of diverging
    assert ce([-1e308, 0.0], 0) == pytest.approx(-np.log(1e-12), abs=1e-9)


def test_mse_loss_values():
    assert mse_rows(np.array([[0.0, 1.0, 0.0]]), [1])[0] == 0.0
    assert mse_rows(np.full((1, 4), 0.25), [3])[0] == pytest.approx(0.75, abs=1e-15)
    assert mse_rows(np.array([ORACLE_P]), [0])[0] == pytest.approx(0.9843149212862595, abs=1e-15)


# Each bad label set once scored silently (-1 as class 2, [0, 1] as two rows, 1.7 as
# label 1) or escaped as numpy's IndexError (3).
BAD_LABELS = {"negative": [-1], "past_last_class": [3], "two_for_one_row": [0, 1],
              "fractional": [1.7]}


@pytest.mark.parametrize("labels", list(BAD_LABELS.values()), ids=list(BAD_LABELS))
@pytest.mark.parametrize("fn", [loss_values, dloss_dtau_batch])
def test_losses_refuse_bad_labels(fn, labels):
    with pytest.raises(InvalidInputError, match="labels"):
        fn([[0.0, 1.0, 2.0]], labels, 1.0, LossKind.CE)


@pytest.mark.parametrize("labels", list(BAD_LABELS.values()), ids=list(BAD_LABELS))
def test_stacked_batch_refuses_bad_labels(labels):
    Z = [[0.0, 1.0, 2.0]]
    with pytest.raises(InvalidInputError, match="labels"):
        LogitBatch.stack([Z, Z], [[2], labels])
    with pytest.raises(InvalidInputError, match="labels"):
        LogitBatch.stack([Z, Z], [[2]])


def test_losses_refuse_ragged_logits():
    # Once numpy's bare ValueError ("setting an array element with a sequence").
    with pytest.raises(InvalidInputError, match="rectangular"):
        loss_values([[0., 1.], [0.]], [0, 0], 1.0, LossKind.CE)


# --- temperature derivatives ---

def test_dloss_dtau_matches_central_differences():
    rng = np.random.default_rng(13)
    h = 1e-5
    for kind, mode in ((LossKind.CA, L1), (LossKind.CA, SQ),
                       (LossKind.CE, L1), (LossKind.MSE, L1)):
        checked = 0
        while checked < 100:
            c = int(rng.integers(2, 11))
            z = rng.normal(0, 1.5, c)
            zs = np.sort(z)
            if zs[-1] - zs[-2] < 1e-3:  # keep away from argmax ties
                continue
            label = int(rng.integers(c))
            tau = float(np.exp(rng.uniform(np.log(0.3), np.log(5.0))))
            analytic = dloss_dtau_batch([z], [label], [tau], kind, mode)[0]
            fd = (loss_values([z], [label], [tau + h], kind, mode)[0]
                  - loss_values([z], [label], [tau - h], kind, mode)[0]) / (2 * h)
            assert abs(analytic - fd) / max(1.0, abs(analytic)) < 1e-5
            checked += 1


@pytest.mark.parametrize("kind,mode", [(LossKind.CA, L1), (LossKind.CA, SQ),
                                       (LossKind.CE, L1), (LossKind.MSE, L1)])
def test_dloss_dtau_is_shift_invariant_bit_for_bit(kind, mode):
    # Dyadic logits: z + 2**40 is exact, and so is its shift back by the row max.
    z = np.array([2.0, 0.25, -1.0, 0.75])
    expected = dloss_dtau_batch([z], [1], [0.7], kind, mode)
    shifted = dloss_dtau_batch([z + 2.0 ** 40], [1], [0.7], kind, mode)
    assert expected[0] != 0.0
    assert shifted.tobytes() == expected.tobytes()


def test_dloss_dtau_constant_logits_is_zero():
    z = np.array([1.3, 1.3, 1.3, 1.3])
    for kind in LossKind:
        assert dloss_dtau_batch([z], [2], [0.7], kind)[0] == pytest.approx(0.0, abs=1e-15)


def test_ca_derivative_negative_for_wrong_prediction():
    rng = np.random.default_rng(14)
    checked = 0
    while checked < 50:
        z = rng.normal(0, 2, 5)
        label = int(rng.integers(5))
        if int(np.argmax(z)) == label or np.ptp(z) < 1e-6:
            continue
        for mode in (L1, SQ):
            assert dloss_dtau_batch([z], [label], [1.3], LossKind.CA, mode)[0] < 0
        checked += 1


def test_a_loss_kind_or_mode_that_is_not_the_enum_is_refused():
    # "l1" was once read as the squared loss (0.25), and "ce" fell through to
    # the CA branch and raised a bare UnboundLocalError.
    with pytest.raises(InvalidInputError, match="DiscrepancyMode"):
        ca_loss_batch([0.5], [1], "l1")
    for fn in (loss_values, dloss_dtau_batch):
        with pytest.raises(InvalidInputError, match="LossKind"):
            fn([[0.0, 1.0, 2.0]], [0], 1.0, "ce")
        with pytest.raises(InvalidInputError, match="DiscrepancyMode"):
            fn([[0.0, 1.0, 2.0]], [0], 1.0, LossKind.CA, "sq")
    assert ca_loss_batch([0.5], [1], L1) == 0.5


def test_dloss_dtau_rejects_nonpositive_tau():
    with pytest.raises(InvalidInputError):
        dloss_dtau_batch([[1.0, 2.0]], [0], [0.0], LossKind.CE)


def test_ca_loss_nonincreasing_in_tau_for_wrong_sample():
    z = np.array([1.9, 2.0, 0.1, 0.05])
    taus = np.geomspace(0.05, 50.0, 300)
    for mode in (L1, SQ):
        values = [loss_values([z], [0], [t], LossKind.CA, mode)[0] for t in taus]
        assert np.all(np.diff(values) <= 1e-15)
