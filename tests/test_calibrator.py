import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from calib_lab.calibrator import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, TAU_MIN_MAX,
                                  CalibratorParams, TrainConfig, batch_loss, calibrate_dataset,
                                  constant_temperature_params, feature_matrix, forward_batch,
                                  grad_params, init_params, train, train_stack)
from calib_lab.datagen import SynthConfig, generate
from calib_lab.errors import InvalidInputError, TrainingDivergedError
from calib_lab.losses import (DiscrepancyMode, LogitBatch, LossKind, dloss_dtau_batch,
                              loss_values)
from calib_lab.metrics import ece
from calib_lab.records import Dataset, correctness_view
from calib_lab.tensor_math import row_softmax

L1 = DiscrepancyMode.L1
SQ = DiscrepancyMode.SQUARED_L2


def record_with_transforms(logits, label, transforms):
    """A one-record dataset."""
    return Dataset([logits], [label], [transforms])


# --- feature gathering ---

def test_self_gather_sorts_descending():
    logits = [0.3, 1.7, -0.5, 0.9]
    own = row_softmax([logits])[0]
    r = record_with_transforms(logits, 1, [own])
    feats = feature_matrix(r, 4)[0]
    np.testing.assert_allclose(feats, np.sort(own)[::-1], atol=0)


def test_hand_gather_two_channels():
    # softmax of [1, 2, 0.1, 0.05] ranks classes as 1, 0, 2, 3; with k=2
    # each channel contributes its values at indices (1, 0).
    logits = [1.0, 2.0, 0.1, 0.05]
    v1 = [0.1, 0.6, 0.2, 0.1]
    v2 = [0.4, 0.3, 0.2, 0.1]
    r = record_with_transforms(logits, 0, [v1, v2])
    np.testing.assert_allclose(feature_matrix(r, 2)[0], [0.6, 0.1, 0.3, 0.4], atol=0)


def test_gather_ignores_classes_outside_top_k():
    logits = [3.0, 2.0, 0.5, 0.1, -1.0]
    base = np.array([[0.5, 0.2, 0.1, 0.1, 0.1]])
    r1 = record_with_transforms(logits, 0, base)
    swapped = base.copy()
    swapped[0, [3, 4]] = swapped[0, [4, 3]]  # permute outside top-2
    r2 = record_with_transforms(logits, 0, swapped)
    np.testing.assert_array_equal(feature_matrix(r1, 2), feature_matrix(r2, 2))


def test_feature_matrix_matches_per_record():
    d = generate(SynthConfig(n=60, seed=8))
    F = feature_matrix(d, 4)
    for i in range(d.n):
        np.testing.assert_array_equal(F[i], feature_matrix(d.subset([i]), 4)[0])


def test_feature_matrix_rejects_large_k():
    d = generate(SynthConfig(n=5, seed=8))
    with pytest.raises(InvalidInputError):
        feature_matrix(d.subset([0]), d.n_classes + 1)
    with pytest.raises(InvalidInputError):
        feature_matrix(d, d.n_classes + 1)


# --- forward pass ---

def test_forward_zero_params_closed_form():
    p = constant_temperature_params(np.log(2.0) + 0.05, 4, 2, 3, tau_min=0.05)
    # zero weights and zero output bias: softplus(0) + tau_min
    zero = CalibratorParams(layers=((np.zeros((5, 6)), np.zeros(5)), (np.zeros((1, 5)), [0.0])),
                            tau_min=0.05, n_classes=4, n_transforms=2, k=3)
    f = np.random.default_rng(0).random(6)
    assert forward_batch(zero, f[None])[0] == pytest.approx(np.log(2.0) + 0.05, abs=1e-15)
    assert forward_batch(p, f[None])[0] == pytest.approx(forward_batch(zero, f[None])[0],
                                                         abs=1e-12)


def test_forward_always_above_tau_min():
    rng = np.random.default_rng(21)
    p = init_params(8, 3, 4, tau_min=0.05, seed=3)
    F = rng.normal(0, 5, (200, 12))
    taus = forward_batch(p, F)
    assert np.all(taus >= 0.05)
    assert np.all(np.isfinite(taus))


@pytest.mark.parametrize("two_hidden", [False, True])
def test_forward_matches_plain_arithmetic_oracle(two_hidden):
    rng = np.random.default_rng(22)
    for seed in range(5):
        p = init_params(6, 2, 3, seed=seed, two_hidden=two_hidden)
        p = replace(p, layers=[(w, rng.normal(0, 0.5, b.shape)) for w, b in p.layers])
        f = rng.random(6)
        # independent re-implementation with plain loops; ReLU on every layer but the last
        values = list(f)
        for depth, (w, b) in enumerate(p.layers):
            out = []
            for i in range(w.shape[0]):
                acc = b[i]
                for j in range(w.shape[1]):
                    acc += w[i, j] * values[j]
                out.append(acc if depth == len(p.layers) - 1 else max(acc, 0.0))
            values = out
        expected = np.log1p(np.exp(values[0])) + p.tau_min
        assert abs(forward_batch(p, f[None])[0] - expected) < 1e-12


def test_forward_rejects_dimension_mismatch():
    p = init_params(6, 2, 3, seed=0)
    with pytest.raises(InvalidInputError):
        forward_batch(p, np.zeros((1, 5)))


# Ragged and string features once escaped as numpy's bare ValueError.
def test_forward_refuses_ragged_features():
    with pytest.raises(InvalidInputError, match="rectangular"):
        forward_batch(init_params(10, 3, 4), [[0.0] * 12, [0.0]])


def test_forward_refuses_string_features():
    with pytest.raises(InvalidInputError, match="cannot hold <U1 values"):
        forward_batch(init_params(10, 3, 4), [["a"] * 12])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_forward_refuses_non_finite_features(bad):
    # NaN once came back as a NaN temperature, or a RuntimeWarning under -W error.
    F = np.zeros((2, 12))
    F[1, 3] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        forward_batch(init_params(10, 3, 4), F)


def test_grad_params_refuses_ragged_logits():
    with pytest.raises(InvalidInputError, match="rectangular"):
        grad_params(init_params(2, 1, 2), np.zeros((2, 2)), [[0.0, 1.0], [0.0]], [0, 1])


def test_init_params_refuses_counts_that_are_not_integers():
    # k = 2.5 once raised a bare TypeError.
    for args in ((10, 3, 2.5), (10, 3.0, 2), (2.5, 3, 2)):
        with pytest.raises(InvalidInputError):
            init_params(*args)
    with pytest.raises(InvalidInputError):
        init_params(10, 3, 2, seed=-1)


def test_two_hidden_layer_variant():
    p = init_params(6, 2, 3, seed=1, two_hidden=True)
    assert len(p.layers) == 3 and p.layers[1][0].shape == (5, 5)
    f = np.random.default_rng(5).random(6)
    assert forward_batch(p, f[None])[0] >= p.tau_min


# --- calibration ---

def test_identity_temperature_preserves_softmax():
    d = generate(SynthConfig(n=40, seed=9))
    p = constant_temperature_params(1.0, d.n_classes, d.n_transforms, 4)
    for i in range(5):
        one = d.subset([i])
        taus, _ = calibrate_dataset(p, one)
        np.testing.assert_allclose(row_softmax(one.logits, taus)[0], row_softmax(one.logits)[0],
                                   atol=1e-15)
        assert taus[0] == pytest.approx(1.0, abs=1e-12)


def test_calibration_preserves_predictions_dataset_wide():
    d = generate(SynthConfig(n=500, seed=10))
    params, _ = train(d, TrainConfig(epochs=3, seed=0))
    view = correctness_view(d)
    taus, _ = calibrate_dataset(params, d)
    predicted_after = np.argmax(row_softmax(d.logits / taus[:, None]), axis=1)
    np.testing.assert_array_equal(predicted_after, view.predicted)


def test_large_temperature_flattens_confidence():
    d = generate(SynthConfig(n_classes=4, n=10, seed=11))
    p = constant_temperature_params(1e6, 4, d.n_transforms, 4)
    _, confidences = calibrate_dataset(p, d.subset([0]))
    assert confidences[0] == pytest.approx(0.25, abs=1e-5)


# --- gradients ---

def net_loss_oracle(values, F, Z, labels, kind, mode):
    """Independent forward + loss evaluation on raw parameter arrays."""
    a1 = F @ values["w1"].T + values["b1"]
    h = np.maximum(a1, 0.0)
    o = h @ values["w2"].T + float(values["b2"])
    tau = np.log1p(np.exp(o[:, 0])) + values["tau_min"]
    P = np.exp(Z / tau[:, None] - np.max(Z / tau[:, None], axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    idx = np.arange(Z.shape[0])
    if kind is LossKind.CE:
        return float(np.mean(-np.log(np.maximum(P[idx, labels], 1e-12))))
    if kind is LossKind.MSE:
        onehot = np.zeros_like(P)
        onehot[idx, labels] = 1.0
        return float(np.mean(np.sum((P - onehot) ** 2, axis=1)))
    pred = np.argmax(Z, axis=1)
    resid = P[idx, pred] - (pred == labels)
    return float(np.mean(np.abs(resid) if mode is L1 else resid * resid))


def test_grad_params_matches_finite_differences():
    rng = np.random.default_rng(23)
    kinds = [(LossKind.CA, L1), (LossKind.CA, SQ), (LossKind.CE, L1), (LossKind.MSE, L1)]
    h = 1e-6
    for trial in range(20):
        kind, mode = kinds[trial % 4]
        p = init_params(5, 2, 2, seed=trial)
        F = rng.random((3, 4))
        Z = rng.normal(0, 1.5, (3, 5))
        labels = rng.integers(0, 5, 3)
        values = {"w1": p.w1.copy(), "b1": p.b1.copy(), "w2": p.w2.copy(),
                  "b2": np.array(p.b2), "tau_min": p.tau_min}
        # cross-check the oracle itself against the implementation
        assert abs(net_loss_oracle(values, F, Z, labels, kind, mode)
                   - batch_loss(p, F, Z, labels, kind, mode)) < 1e-12
        g = grad_params(p, F, Z, labels, kind, mode)
        grads = {"w1": g[0][0], "b1": g[0][1], "w2": g[-1][0], "b2": g[-1][1]}
        for name in ("w1", "b1", "w2", "b2"):
            arr = values[name]
            it = np.nditer(np.atleast_1d(arr), flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                orig = np.atleast_1d(arr)[i]
                np.atleast_1d(arr)[i] = orig + h
                up = net_loss_oracle(values, F, Z, labels, kind, mode)
                np.atleast_1d(arr)[i] = orig - h
                down = net_loss_oracle(values, F, Z, labels, kind, mode)
                np.atleast_1d(arr)[i] = orig
                fd = (up - down) / (2 * h)
                analytic = float(np.atleast_1d(grads[name])[i])
                assert abs(analytic - fd) / max(1.0, abs(analytic)) < 1e-4


def with_array(p, layer, part, value):
    """``p`` with array ``part`` (0 = W, 1 = b) of layer ``layer`` replaced."""
    layers = [list(pair) for pair in p.layers]
    layers[layer][part] = value
    return replace(p, layers=layers)


def test_grad_params_two_hidden_matches_finite_differences():
    rng = np.random.default_rng(25)
    h = 1e-6
    for trial in range(6):
        p = init_params(5, 2, 2, seed=trial, two_hidden=True)
        F = rng.random((3, 4))
        Z = rng.normal(0, 1.5, (3, 5))
        labels = rng.integers(0, 5, 3)
        g = grad_params(p, F, Z, labels, LossKind.CA, SQ)
        for layer, part in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]:
            grad = g[layer][part]
            base = p.layers[layer][part]
            it = np.nditer(base, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                bumped = base.copy()
                bumped[i] += h
                up = batch_loss(with_array(p, layer, part, bumped), F, Z, labels, LossKind.CA, SQ)
                bumped = base.copy()
                bumped[i] -= h
                down = batch_loss(with_array(p, layer, part, bumped), F, Z, labels,
                                  LossKind.CA, SQ)
                fd = (up - down) / (2 * h)
                assert abs(grad[i] - fd) / max(1.0, abs(grad[i])) < 1e-4


def test_two_hidden_training_runs_and_is_deterministic():
    d = generate(SynthConfig(n=400, seed=17))
    cfg = TrainConfig(epochs=4, seed=2, two_hidden=True)
    p1, t1 = train(d, cfg)
    p2, t2 = train(d, cfg)
    assert len(p1.layers) == 3
    assert p1.layers[1][0].tobytes() == p2.layers[1][0].tobytes()
    assert t1.losses.tobytes() == t2.losses.tobytes()
    assert np.all(np.isfinite(t1.losses))


def test_params_constructor_does_not_freeze_caller_arrays():
    w1 = np.zeros((5, 4))
    CalibratorParams(layers=((w1, np.zeros(5)), (np.zeros((1, 5)), [0.0])),
                     tau_min=0.05, n_classes=5, n_transforms=2, k=2)
    w1[0, 0] = 1.0  # caller's array stays writable


@pytest.mark.parametrize("depth", [1, 4])
def test_params_refuse_a_depth_other_than_two_or_three_layers(depth):
    with pytest.raises(InvalidInputError, match=f"2 or 3 layers, got {depth}"):
        CalibratorParams(layers=[(np.zeros((5, 5)), np.zeros(5))] * depth, tau_min=0.05,
                         n_classes=5, n_transforms=1, k=5)


def test_grad_zero_on_constant_logits():
    p = init_params(4, 1, 2, seed=2)
    F = np.random.default_rng(1).random((4, 2))
    Z = np.full((4, 4), 0.7)
    labels = np.array([0, 1, 2, 3])
    g = grad_params(p, F, Z, labels, LossKind.CA, SQ)
    assert np.all(g[0][0] == 0) and np.all(g[-1][0] == 0) and np.all(g[-1][1] == 0)


def test_batch_gradient_is_mean_of_per_sample_gradients():
    rng = np.random.default_rng(24)
    p = init_params(5, 2, 2, seed=7)
    F = rng.random((6, 4))
    Z = rng.normal(0, 1.5, (6, 5))
    labels = rng.integers(0, 5, 6)
    g_batch = grad_params(p, F, Z, labels, LossKind.CA, SQ)
    singles = [grad_params(p, F[i:i + 1], Z[i:i + 1], labels[i:i + 1], LossKind.CA, SQ)
               for i in range(6)]
    np.testing.assert_allclose(g_batch[0][0], np.mean([s[0][0] for s in singles], axis=0),
                               atol=1e-15)
    np.testing.assert_allclose(g_batch[-1][1], np.mean([s[-1][1] for s in singles], axis=0),
                               atol=1e-15)


# --- training ---

def test_training_loss_decreases_on_default_fixture():
    d = generate(SynthConfig())  # defaults, seed 0
    params, trace = train(d, TrainConfig(epochs=20, seed=0))
    assert np.all(np.isfinite(trace.losses))
    assert trace.losses[-1] < trace.losses[0]
    # regression fixture, frozen from the first recorded run
    assert trace.losses[0] == pytest.approx(0.24813818144146266, rel=1e-9)
    assert trace.losses[-1] == pytest.approx(0.17078010143576824, rel=1e-9)


def test_training_is_bit_reproducible():
    d = generate(SynthConfig(n=400, seed=12))
    cfg = TrainConfig(epochs=4, seed=5)
    p1, t1 = train(d, cfg)
    p2, t2 = train(d, cfg)
    assert p1.w1.tobytes() == p2.w1.tobytes()
    assert p1.b1.tobytes() == p2.b1.tobytes()
    assert p1.w2.tobytes() == p2.w2.tobytes()
    assert p1.b2 == p2.b2
    assert t1.losses.tobytes() == t2.losses.tobytes()


def reference_train(d, config):
    """Per-step trainer: a validated CalibratorParams per minibatch and
    Adam over a dict of arrays, in the operation order train keeps."""
    F, Z, labels = feature_matrix(d, config.k), d.logits, d.labels
    p = init_params(d.n_classes, d.n_transforms, config.k, tau_min=config.tau_min,
                    seed=config.seed, two_hidden=config.two_hidden)
    # Keyed by (layer, 0 for W or 1 for b).
    values = {(i, j): np.array(a) for i, layer in enumerate(p.layers) for j, a in enumerate(layer)}
    adam_m = {key: np.zeros_like(v) for key, v in values.items()}
    adam_v = {key: np.zeros_like(v) for key, v in values.items()}
    rng = np.random.default_rng(config.seed + 1)

    def current():
        return replace(p, layers=[(values[i, 0].copy(), values[i, 1].copy())
                                  for i in range(len(p.layers))])

    losses = [batch_loss(current(), F, Z, labels, config.loss, config.mode)]
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(d.n)
        for start in range(0, d.n, config.batch_size):
            batch = order[start:start + config.batch_size]
            grads = grad_params(current(), F[batch], Z[batch], labels[batch],
                                config.loss, config.mode)
            step += 1
            bias1, bias2 = 1.0 - ADAM_BETA1 ** step, 1.0 - ADAM_BETA2 ** step
            for i, j in values:
                g = np.array(grads[i][j])
                adam_m[i, j] = ADAM_BETA1 * adam_m[i, j] + (1.0 - ADAM_BETA1) * g
                adam_v[i, j] = ADAM_BETA2 * adam_v[i, j] + (1.0 - ADAM_BETA2) * g * g
                update = (adam_m[i, j] / bias1) / (np.sqrt(adam_v[i, j] / bias2) + ADAM_EPS)
                values[i, j] = values[i, j] - config.learning_rate * update
        losses.append(batch_loss(current(), F, Z, labels, config.loss, config.mode))
    return current(), np.array(losses)


@pytest.mark.parametrize("n_classes", [10, 100])
@pytest.mark.parametrize("two_hidden", [False, True])
@pytest.mark.parametrize("mode", [L1, SQ])
@pytest.mark.parametrize("loss", list(LossKind))
def test_training_is_byte_identical_to_the_per_step_reference(loss, mode, two_hidden, n_classes):
    d = generate(SynthConfig(n=300, n_classes=n_classes, seed=n_classes))
    cfg = TrainConfig(loss=loss, mode=mode, two_hidden=two_hidden, epochs=3, batch_size=64,
                      seed=4)
    params, trace = train(d, cfg)
    expected, expected_losses = reference_train(d, cfg)
    assert len(params.layers) == len(expected.layers) == (3 if two_hidden else 2)
    for i, (got, want) in enumerate(zip(params.layers, expected.layers)):
        for j in range(2):
            assert got[j].tobytes() == want[j].tobytes(), (i, j)
    assert trace.losses.tobytes() == expected_losses.tobytes()


@pytest.mark.filterwarnings("ignore:overflow")
def test_training_divergence_carries_epoch():
    d = generate(SynthConfig(n=100, seed=13))
    with pytest.raises(TrainingDivergedError) as excinfo:
        train(d, TrainConfig(epochs=3, learning_rate=1e200, seed=0))
    assert excinfo.value.epoch >= 0


def test_informative_features_cut_held_out_ece():
    # Oracle-feature regime: channel agreement fully determines correctness.
    cfg = SynthConfig(n=4000, p_agree_correct=1.0, p_agree_wrong=0.0, seed=14)
    d_train = generate(cfg)
    d_test = generate(SynthConfig(n=2000, p_agree_correct=1.0, p_agree_wrong=0.0, seed=15))
    params, _ = train(d_train, TrainConfig(epochs=30, seed=0))
    view = correctness_view(d_test)
    _, conf = calibrate_dataset(params, d_test)
    assert ece(conf, view.correct) < ece(view.confidence, view.correct)


def test_train_config_validation():
    d = generate(SynthConfig(n=50, seed=16))
    with pytest.raises(InvalidInputError):
        train(d, TrainConfig(k=d.n_classes + 1))
    with pytest.raises(InvalidInputError):
        train(d, TrainConfig(epochs=0))
    with pytest.raises(InvalidInputError):
        train(d, TrainConfig(learning_rate=0.0))
    # Each of these once escaped as a bare TypeError or numpy's ValueError.
    for bad in (dict(k=2.5), dict(epochs=1.5), dict(batch_size=2.5), dict(seed=-1),
                dict(epochs=True)):
        with pytest.raises(InvalidInputError):
            train(d, TrainConfig(**bad))
    # A config checks itself when it is made, and so does each replace().
    for bad in (dict(k=2.5), dict(learning_rate=np.inf), dict(tau_min=np.nan),
                dict(tau_min=1e300)):
        with pytest.raises(InvalidInputError):
            TrainConfig(**bad)
        with pytest.raises(InvalidInputError):
            replace(TrainConfig(), **bad)
    # A string in place of the enum once made a config silently.
    for bad in (dict(loss="ce"), dict(mode="l1"), dict(loss="ce", mode="l1"),
                dict(loss=DiscrepancyMode.L1)):
        with pytest.raises(InvalidInputError):
            TrainConfig(**bad)
    with pytest.raises(InvalidInputError, match="tau_min must be finite and > 0 and <= 1e"):
        TrainConfig(tau_min=TAU_MIN_MAX * 1.0001)
    with pytest.raises(InvalidInputError):
        TrainConfig(learning_rate="0.01")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("two_hidden", [False, True])
@pytest.mark.parametrize("kind", list(LossKind))
def test_training_at_the_tau_min_bound_stays_finite(kind, two_hidden):
    # Above about 1.3e154, tau * tau in the loss derivatives once overflowed: a
    # RuntimeWarning, and every gradient 0.
    d = generate(SynthConfig(n=120, seed=17))
    cfg = TrainConfig(loss=kind, epochs=2, batch_size=32, tau_min=TAU_MIN_MAX,
                      two_hidden=two_hidden)
    params, trace = train(d, cfg)
    assert params.tau_min == TAU_MIN_MAX
    assert np.all(np.isfinite(trace.losses))
    assert all(np.all(np.isfinite(a)) for layer in params.layers for a in layer)
    taus, confidences = calibrate_dataset(params, d)
    assert np.all(taus >= TAU_MIN_MAX) and np.all(np.isfinite(taus))
    assert np.all((confidences > 0.0) & (confidences <= 1.0))


def test_training_peak_memory_is_within_two_and_a_half_logit_matrices():
    # The prepared batch keeps only the shifted logits S; a step needs E = exp(S / tau)
    # of its rows and the full-set loss one E for all of them, so training holds S,
    # one gathered copy of it per epoch or one E, and (n, M*k) features.
    d = generate(SynthConfig(n=10_000, n_classes=100, n_transforms=4, seed=6))
    tracemalloc.start()
    try:
        train(d, TrainConfig(epochs=2, k=4, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * d.logits.nbytes


# --- a stack of models trains as each model alone ---

def training_digest(params, trace=None) -> str:
    """sha256 of the weights, and of the trace's losses if one is given."""
    h = hashlib.sha256()
    for w, b in params.layers:
        h.update(w.tobytes())
        h.update(b.tobytes())
    if trace is not None:
        h.update(trace.losses.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("two_hidden", [False, True])
@pytest.mark.parametrize("mode", [L1, SQ])
@pytest.mark.parametrize("loss", list(LossKind))
def test_stack_is_bit_identical_to_training_each_model(loss, mode, two_hidden):
    # 150 records in batches of 64: the last batch of every epoch is short.
    datasets = [generate(SynthConfig(n=150, n_classes=10, seed=seed)) for seed in (20, 21, 22)]
    cfg = TrainConfig(loss=loss, mode=mode, two_hidden=two_hidden, epochs=3, batch_size=64,
                      seed=7)
    stacked = train_stack(datasets, cfg)
    assert [training_digest(*model) for model in stacked] == [
        training_digest(*train(d, cfg)) for d in datasets]


@pytest.mark.parametrize("other", [SynthConfig(n=151, seed=24),
                                   SynthConfig(n=150, n_classes=11, seed=24),
                                   SynthConfig(n=150, n_transforms=2, seed=24)],
                         ids=["n", "classes", "transforms"])
def test_stack_refuses_datasets_of_unequal_shape(other):
    with pytest.raises(InvalidInputError):
        train_stack([generate(SynthConfig(n=150, seed=23)), generate(other)], TrainConfig())


def test_stack_refuses_no_datasets():
    with pytest.raises(InvalidInputError):
        train_stack([], TrainConfig())


@pytest.mark.parametrize("two_hidden", [False, True])
@pytest.mark.parametrize("loss", list(LossKind))
def test_training_without_the_trace_keeps_params_initial_and_final(loss, two_hidden):
    # 150 records in batches of 64: the last batch of every epoch is short.
    datasets = [generate(SynthConfig(n=150, n_classes=10, seed=seed)) for seed in (25, 26)]
    cfg = TrainConfig(loss=loss, two_hidden=two_hidden, epochs=3, batch_size=64, seed=8)
    traced = [train(datasets[0], cfg)] + train_stack(datasets, cfg)
    untraced = [train(datasets[0], cfg, trace=False)] + train_stack(datasets, cfg, trace=False)
    for (p, trace), (q, short) in zip(traced, untraced):
        assert training_digest(q) == training_digest(p)
        assert trace.losses.size == cfg.epochs + 1
        assert short.losses.tobytes() == trace.losses[[0, -1]].tobytes()


def diverging_pair():
    """A dataset that diverges at a huge learning rate, one that cannot, and the config."""
    d = generate(SynthConfig(n=100, seed=13))
    # Equal logits give every row the loss gradient 0, so Adam never moves that model.
    flat = Dataset(np.zeros_like(d.logits), d.labels, d.transform_probs)
    return d, flat, TrainConfig(epochs=3, learning_rate=1e200, seed=0)


@pytest.mark.filterwarnings("ignore:overflow")
def test_stack_divergence_names_the_model_and_its_epoch():
    d, flat, cfg = diverging_pair()
    with pytest.raises(TrainingDivergedError) as alone:
        train(d, cfg)
    assert train(flat, cfg)[1].losses.size == 4
    with pytest.raises(TrainingDivergedError, match="model 1 of 2") as stacked:
        train_stack([flat, d], cfg)
    assert stacked.value.epoch == alone.value.epoch


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_without_the_trace_names_the_same_model_and_epoch():
    d, flat, cfg = diverging_pair()
    with pytest.raises(TrainingDivergedError) as traced:
        train_stack([flat, d], cfg)
    assert train(flat, cfg, trace=False)[1].losses.size == 2
    with pytest.raises(TrainingDivergedError, match="model 1 of 2") as untraced:
        train_stack([flat, d], cfg, trace=False)
    assert untraced.value.epoch == traced.value.epoch
    assert str(untraced.value) == str(traced.value)


@pytest.mark.parametrize("idx", [slice(3, None), slice(None, None, 2), np.array([4, 0, 0, 7])])
@pytest.mark.parametrize("kind", list(LossKind))
def test_stacked_logit_batch_rows_equal_each_batch(idx, kind):
    rng = np.random.default_rng(8)
    Zs = [rng.standard_normal((9, 5)) * 4.0 for _ in range(3)]
    labels = [rng.integers(0, 5, 9) for _ in range(3)]
    taus = rng.uniform(0.1, 3.0, (3, 9))
    stacked = LogitBatch.stack(Zs, labels)
    picked = stacked.take(idx)
    assert picked.S.shape == (3, np.arange(9)[idx].size, 5)
    for fn in (loss_values, dloss_dtau_batch):
        got = fn(picked, None, taus[:, idx], kind, SQ)
        for r in range(3):
            want = fn(LogitBatch.prepare(Zs[r], labels[r]).take(idx), None, taus[r, idx], kind, SQ)
            assert got[r].tobytes() == want.tobytes()
