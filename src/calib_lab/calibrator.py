"""Sample-adaptive temperature calibrator.

Per record, the softmax vectors of the M transform channels are
gathered at the indices of the k largest original logits and
concatenated (channel-major) into an M*k feature vector. A small fully
connected network, a list of (W, b) layers (input -> 5 ReLU -> 1 by
default, an extra 5-node hidden layer behind a config switch), maps the
features to a positive temperature via softplus(o) + tau_min. The temperature rescales the
original logits only; transform outputs never touch the logits.

Training is plain minibatch gradient descent with Adam on one of the
losses in :mod:`calib_lab.losses`, single-threaded and bit-reproducible
for a fixed (seed, config, dataset).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, InvalidInputError, TrainingDivergedError
from .losses import DiscrepancyMode, LogitBatch, LossKind, dloss_dtau_batch, loss_values
from .records import Dataset
from .tensor_math import (check_count, check_real, read_array, sigmoid, softplus, top_confidence,
                          top_k_indices)

HIDDEN_WIDTH = 5
DEFAULT_TAU_MIN = 0.05
# The loss tau-derivatives divide by tau * tau, which overflows above about 1.3e154
# and turns every gradient into 0; this bound leaves room for the softplus on top.
TAU_MIN_MAX = 1e100
# Adam's moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _weights(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """Read-only float64 copy of a weight array, named by its parameter-file key."""
    arr = np.array(read_array(value, f"parameter field {name!r}", shape=shape, finite=True))
    arr.setflags(write=False)
    return arr


# Parameter-file keys of each (W, b) layer, input to output; the middle
# pair is the optional second hidden layer.
LAYER_KEYS = (("W1", "b1"), ("W1b", "b1b"), ("W2", "b2"))


def layer_keys(depth: int) -> tuple[tuple[str, str], ...]:
    """File keys of the layers of a ``depth``-layer net (2 or 3)."""
    if depth not in (2, 3):
        raise InvalidInputError(f"the network has 2 or 3 layers, got {depth}")
    return LAYER_KEYS if depth == 3 else (LAYER_KEYS[0], LAYER_KEYS[-1])


def layer_widths(n_transforms: int, k: int, depth: int) -> tuple[int, ...]:
    """Widths of a ``depth``-layer net, input to output: M*k, 5 per hidden layer, 1."""
    for key, value in (("M", n_transforms), ("k", k)):
        check_count(value, f"parameter field {key!r}", 1, error=InvalidInputError)
    return (n_transforms * k,) + (HIDDEN_WIDTH,) * (depth - 1) + (1,)


@dataclass(frozen=True)
class CalibratorParams:
    """Weights of the temperature network plus gather/shape metadata.

    ``layers`` holds one (W, b) pair per linear layer, input to output:
    M*k -> 5 [-> 5] -> 1, so W is (fan_out, fan_in) and the output bias
    is a 1-vector. Arrays are read-only once constructed.
    """

    layers: tuple
    tau_min: float
    n_classes: int
    n_transforms: int
    k: int

    def __post_init__(self):
        keys = layer_keys(len(self.layers))
        check_count(self.n_classes, "parameter field 'C'", 2, error=InvalidInputError)
        widths = layer_widths(self.n_transforms, self.k, len(keys))
        check_count(self.k, "parameter field 'k'", 1, self.n_classes, InvalidInputError)
        # Copy before freezing so caller-owned arrays keep their flags.
        layers = tuple((_weights(w_key, w, (fan_out, fan_in)), _weights(b_key, b, (fan_out,)))
                       for (w_key, b_key), (w, b), fan_in, fan_out
                       in zip(keys, self.layers, widths, widths[1:]))
        tau_min = float(read_array(self.tau_min, "parameter field 'tau_min'", shape=()))
        object.__setattr__(self, "tau_min", check_real(tau_min, "tau_min", 0.0, TAU_MIN_MAX,
                                                       error=InvalidInputError))
        object.__setattr__(self, "layers", layers)

    @property
    def input_width(self) -> int:
        return self.n_transforms * self.k

    @property
    def w1(self) -> np.ndarray:
        return self.layers[0][0]

    @property
    def b1(self) -> np.ndarray:
        return self.layers[0][1]

    @property
    def w2(self) -> np.ndarray:
        return self.layers[-1][0]

    @property
    def b2(self) -> float:
        return float(self.layers[-1][1][0])


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for calibrator training."""

    loss: LossKind = LossKind.CA
    mode: DiscrepancyMode = DiscrepancyMode.SQUARED_L2
    k: int = 4
    epochs: int = 50
    batch_size: int = 256
    learning_rate: float = 1e-2
    seed: int = 0
    tau_min: float = DEFAULT_TAU_MIN
    two_hidden: bool = False

    def __post_init__(self):
        for name, low in (("k", 1), ("epochs", 1), ("batch_size", 1), ("seed", 0)):
            check_count(getattr(self, name), name, low)
        check_real(self.learning_rate, "learning rate", 0.0)
        check_real(self.tau_min, "tau_min", 0.0, TAU_MIN_MAX)


@dataclass(frozen=True)
class TrainingTrace:
    """Full-training-set loss per epoch; index 0 is the initial loss. A
    training run without the trace keeps only the initial and the final
    loss, so ``initial`` and ``final`` mean the same either way."""

    losses: np.ndarray

    def __post_init__(self):
        losses = np.array(self.losses, dtype=np.float64)
        losses.setflags(write=False)
        object.__setattr__(self, "losses", losses)

    @property
    def initial(self) -> float:
        return float(self.losses[0])

    @property
    def final(self) -> float:
        return float(self.losses[-1])


def _features(Z: np.ndarray, T: np.ndarray, k: int) -> np.ndarray:
    """Gather each transform channel at every row's top-k logit indices;
    channels are concatenated in order, each in rank order, (n, M*k)."""
    q = top_k_indices(Z, k)                                        # (n, k)
    gathered = np.take_along_axis(T, q[:, None, :], axis=2)
    return gathered.reshape(Z.shape[0], T.shape[1] * k)


def feature_matrix(d: Dataset, k: int) -> np.ndarray:
    """Top-k transform features of every record, (n, M*k)."""
    return _features(d.logits, d.transform_probs, k)


def _forward_trace(p: CalibratorParams, F: np.ndarray):
    """Forward pass keeping each layer's input for backprop: returns
    those inputs, the output pre-activation o and the temperatures. A
    stack of R models, with (R, fan_out, fan_in) layers, maps (R, n, M*k)
    features to (R, n) outputs."""
    h = F
    inputs = []
    for i, (w, b) in enumerate(p.layers):
        if i:
            np.maximum(h, 0.0, out=h)  # the hidden layer's ReLU, in place
        inputs.append(h)
        h = np.matmul(h, w.swapaxes(-1, -2))
        h += b[..., None, :]
    o = h[..., 0]
    return inputs, o, softplus(o) + p.tau_min


def _read_features(p: CalibratorParams, F, finite: bool = False) -> np.ndarray:
    """Raw features as a float64 (n, M*k) matrix, or (R, n, M*k) for a stack."""
    F = read_array(F, "features", finite=finite)
    if F.ndim != p.layers[0][0].ndim or F.shape[-1] != p.input_width:
        raise DomainError(f"features must have shape (n, {p.input_width}), got {F.shape}")
    return F


def forward_batch(p: CalibratorParams, F) -> np.ndarray:
    """Temperatures for a finite feature matrix, shape (n,). Features that
    overflow the network raise DomainError."""
    with np.errstate(over="ignore", invalid="ignore"):
        taus = _forward_trace(p, _read_features(p, F, finite=True))[2]
    if not np.all(np.isfinite(taus)):
        raise DomainError("temperatures must be finite and > 0")
    return taus


def calibrate_dataset(p: CalibratorParams, d: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-record temperatures and calibrated confidences for a dataset."""
    if d.n_classes != p.n_classes or d.n_transforms != p.n_transforms:
        raise DomainError(
            f"dataset (C={d.n_classes}, M={d.n_transforms}) does not match calibrator "
            f"(C={p.n_classes}, M={p.n_transforms})")
    taus = forward_batch(p, feature_matrix(d, p.k))
    return taus, top_confidence(d.logits, taus)


def batch_loss(p: CalibratorParams, F: np.ndarray, Z: np.ndarray, labels: np.ndarray,
               kind: LossKind, mode: DiscrepancyMode) -> float:
    """Mean configured loss of the calibrator on a batch; ``Z`` may be a
    :class:`~calib_lab.losses.LogitBatch` with ``labels=None``. A stack of
    models gives one mean per model."""
    losses = np.mean(loss_values(Z, labels, forward_batch(p, F), kind, mode), axis=-1)
    return float(losses) if losses.ndim == 0 else losses


def grad_params(p: CalibratorParams, F: np.ndarray, Z: np.ndarray, labels: np.ndarray,
                kind: LossKind = LossKind.CA,
                mode: DiscrepancyMode = DiscrepancyMode.SQUARED_L2) -> list:
    """Exact gradient of the mean batch loss as (dW, db) pairs laid out
    like ``p.layers``: d(loss)/d(tau) chained through softplus, the
    linear layers, and ReLU (derivative at 0 taken as 0). The batch
    gradient is the mean of per-sample gradients. ``Z`` may be a
    :class:`~calib_lab.losses.LogitBatch` with ``labels=None``. A stack of
    models gives stacked gradients."""
    F = _read_features(p, F)
    n = F.shape[-2]
    if n == 0:
        raise DomainError("batch must be non-empty")
    inputs, o, tau = _forward_trace(p, F)
    # g: d(loss)/d(pre-activation) of the current layer, (..., n, fan_out).
    g = (dloss_dtau_batch(Z, labels, tau, kind, mode) * sigmoid(o))[..., None]
    grads = [None] * len(p.layers)
    for i in reversed(range(len(p.layers))):
        h = inputs[i]
        grads[i] = (np.matmul(g.swapaxes(-1, -2), h) / n, g.sum(axis=-2) / n)
        if i:
            # A ReLU output is > 0 exactly where its input is.
            g = np.matmul(g, p.layers[i][0])
            g *= h > 0
    return grads


def softplus_inverse(y: float) -> float:
    """Solve softplus(x) = y for y > 0: x = y + log(1 - e^-y), accurate for any y."""
    if not y > 0:
        raise DomainError("softplus inverse requires a positive value")
    return float(y + np.log(-np.expm1(-y)))


def init_params(n_classes: int, n_transforms: int, k: int, *, tau_min: float = DEFAULT_TAU_MIN,
                seed: int = 0, two_hidden: bool = False) -> CalibratorParams:
    """Seeded uniform [-a, a] weight init with a = sqrt(6/(fan_in+fan_out));
    biases start at zero."""
    widths = layer_widths(n_transforms, k, 3 if two_hidden else 2)
    check_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)

    def uniform_init(fan_in, fan_out):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-a, a, size=(fan_out, fan_in))

    layers = [(uniform_init(fan_in, fan_out), np.zeros(fan_out))
              for fan_in, fan_out in zip(widths, widths[1:])]
    return CalibratorParams(layers=layers, tau_min=tau_min, n_classes=n_classes,
                            n_transforms=n_transforms, k=k)


def constant_temperature_params(tau: float, n_classes: int, n_transforms: int, k: int,
                                tau_min: float = DEFAULT_TAU_MIN) -> CalibratorParams:
    """Zero-weight calibrator emitting the same temperature for every input."""
    p = init_params(n_classes, n_transforms, k, tau_min=tau_min)
    bias = softplus_inverse(check_real(tau, "tau", p.tau_min) - p.tau_min)
    layers = [(np.zeros_like(w), np.zeros_like(b)) for w, b in p.layers]
    return replace(p, layers=layers[:-1] + [(layers[-1][0], [bias])])


class _FlatParams:
    """The weights of R same-shape CalibratorParams as the rows of one
    (R, P) float64 matrix ``theta``.

    ``layers`` holds (W, b) views of ``theta`` shaped (R, fan_out, fan_in)
    and (R, fan_out), so :func:`grad_params` and :func:`batch_loss` read it
    as a stack of models while the optimiser updates ``theta`` in place.
    """

    def __init__(self, models: list):
        self.template = models[0]
        self.tau_min = self.template.tau_min
        self.input_width = self.template.input_width
        arrays = [np.stack(group) for group in
                  zip(*([a for layer in p.layers for a in layer] for p in models))]
        self.theta = self.flat(arrays)
        parts = np.split(self.theta, np.cumsum([a[0].size for a in arrays])[:-1], axis=1)
        views = [part.reshape(a.shape) for part, a in zip(parts, arrays)]
        self.layers = tuple(zip(views[::2], views[1::2]))

    def params(self) -> list:
        """A frozen, validated copy of each model's current weights."""
        return [replace(self.template, layers=[(w[r], b[r]) for w, b in self.layers])
                for r in range(len(self.theta))]

    @staticmethod
    def flat(arrays) -> np.ndarray:
        """Stacked (R, ...) arrays, in layer order, laid out like ``theta``."""
        return np.concatenate([a.reshape(len(a), -1) for a in arrays], axis=1)


def train(d: Dataset, config: TrainConfig, *,
          trace: bool = True) -> tuple[CalibratorParams, TrainingTrace]:
    """Adam-train the calibrator on a dataset: the one-model case of
    :func:`train_stack`.

    Shuffling, initialization, and updates are all driven by one seeded
    generator, so two runs with equal (seed, config, dataset) produce
    bit-identical parameters, with or without the per-epoch ``trace``.
    Raises :class:`TrainingDivergedError` as :func:`train_stack` does.
    """
    return train_stack([d], config, trace=trace)[0]


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def train_stack(datasets, config: TrainConfig, *, trace: bool = True) -> list:
    """Adam-train one calibrator per dataset under one config, as a stack:
    a (params, trace) pair per dataset.

    The datasets must agree in record, class and transform counts. Every
    model starts from the ``config.seed`` init and all share one seeded
    permutation stream, so model r is ``train(datasets[r], config)`` bit
    for bit; the stack only shares the per-step overhead. Raises
    :class:`TrainingDivergedError` at the first epoch where some model's
    loss, temperatures, weights or Adam moments become non-finite, naming its
    position; a floating-point overflow mid-run shows only as that error.

    With ``trace=False`` the full-set loss, a second pass over the data,
    is computed only before the first epoch and after the last, so each
    trace holds [initial, final]. The epochs between end with the forward
    pass alone, which checks every temperature, so the parameters and the
    epoch named on divergence are the same either way.
    """
    datasets = list(datasets)
    shapes = {(d.n, d.n_classes, d.n_transforms) for d in datasets}
    if len(shapes) != 1:
        raise DomainError(f"a stack needs datasets of one (n, C, M) shape, got {sorted(shapes)}")
    ((n, n_classes, n_transforms),) = shapes
    check_count(config.k, "k", 1, n_classes)
    F = np.stack([feature_matrix(d, config.k) for d in datasets])
    data = LogitBatch.stack([d.logits for d in datasets], [d.labels for d in datasets])

    net = _FlatParams([init_params(n_classes, n_transforms, config.k, tau_min=config.tau_min,
                                   seed=config.seed, two_hidden=config.two_hidden)
                       for _ in datasets])
    theta = net.theta
    adam_m = np.zeros_like(theta)
    adam_v = np.zeros_like(theta)
    update = np.empty_like(theta)
    denom = np.empty_like(theta)
    step = 0
    rng = np.random.default_rng(config.seed + 1)

    def diverged(epoch: int, values: np.ndarray, exc=None) -> TrainingDivergedError:
        """The error naming the first model with a non-finite entry in its row of ``values``."""
        r = int(np.argmin(np.isfinite(values).reshape(len(datasets), -1).all(axis=1)))
        return TrainingDivergedError(epoch, f"model {r} of {len(datasets)} diverged at epoch "
                                            f"{epoch}" + (f": {exc}" if exc else ""))

    def run(fn, epoch: int, features: np.ndarray, batch: LogitBatch):
        try:
            return fn(net, features, batch, None, config.loss, config.mode)
        except (DomainError, InvalidInputError) as exc:
            # Inputs were validated up front, so a non-finite temperature
            # or parameter mid-run means the optimization blew up.
            raise diverged(epoch, _forward_trace(net, features)[2], exc) from exc

    def full_loss(epoch: int) -> np.ndarray:
        values = run(batch_loss, epoch, F, data)
        if not np.all(np.isfinite(values)):
            raise diverged(epoch, values)
        return values

    losses = [full_loss(0)]

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            grads = run(grad_params, epoch, F.take(batch, axis=1), data.take(batch))
            g = net.flat([a for layer in grads for a in layer])
            step += 1
            bias1 = 1.0 - ADAM_BETA1 ** step
            bias2 = 1.0 - ADAM_BETA2 ** step
            # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
            # theta -= lr * (m/bias1) / (sqrt(v/bias2) + eps), each rounded as written.
            adam_m *= ADAM_BETA1
            adam_m += (1.0 - ADAM_BETA1) * g
            adam_v *= ADAM_BETA2
            adam_v += (1.0 - ADAM_BETA2) * g * g
            np.divide(adam_v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            np.divide(adam_m, bias1, out=update)
            update /= denom
            update *= config.learning_rate
            theta -= update
            if not np.all(np.isfinite(theta)):
                raise diverged(epoch, theta)
        # An overflowed g * g leaves theta finite but stops Adam moving those weights.
        if not np.all(np.isfinite(adam_v)):
            raise diverged(epoch, adam_v)
        if trace or epoch == config.epochs:
            losses.append(full_loss(epoch))
        elif not np.all(np.isfinite(taus := _forward_trace(net, F)[2])):
            raise diverged(epoch, taus, "temperatures must be finite and > 0")

    losses = np.stack(losses)
    return [(p, TrainingTrace(losses[:, r])) for r, p in enumerate(net.params())]
