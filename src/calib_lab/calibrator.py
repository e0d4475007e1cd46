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
from .tensor_math import sigmoid, softplus, top_confidence, top_k_indices

HIDDEN_WIDTH = 5
DEFAULT_TAU_MIN = 0.05
# Adam's moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _weights(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """Read-only float64 copy of a weight array, named by its
    parameter-file key. Only integers and floats are numbers here:
    strings, bools and objects are refused, not coerced."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise InvalidInputError(f"parameter field {name!r} is not numeric") from exc
    if arr.dtype.kind not in "iuf":
        raise InvalidInputError(f"parameter field {name!r} is not numeric")
    arr = np.array(arr, dtype=np.float64)
    if arr.shape != shape:
        raise InvalidInputError(f"parameter field {name!r} has shape {arr.shape}, "
                                f"expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"parameter field {name!r} contains non-finite values")
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
        # Copy before freezing so caller-owned arrays keep their flags.
        keys = layer_keys(len(self.layers))
        widths = (self.input_width,) + (HIDDEN_WIDTH,) * (len(keys) - 1) + (1,)
        layers = tuple((_weights(w_key, w, (fan_out, fan_in)), _weights(b_key, b, (fan_out,)))
                       for (w_key, b_key), (w, b), fan_in, fan_out
                       in zip(keys, self.layers, widths, widths[1:]))
        if not (np.isfinite(self.tau_min) and self.tau_min > 0):
            raise InvalidInputError(f"tau_min must be finite and > 0, got {self.tau_min}")
        if not 1 <= self.k <= self.n_classes:
            raise InvalidInputError(f"k={self.k} outside [1, {self.n_classes}]")
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

    def validate(self, n_classes: int) -> None:
        if not 1 <= self.k <= n_classes:
            raise DomainError(f"k={self.k} outside [1, {n_classes}]")
        if self.epochs < 1:
            raise DomainError("epochs must be >= 1")
        if self.batch_size < 1:
            raise DomainError("batch_size must be >= 1")
        if not self.learning_rate > 0:
            raise DomainError("learning rate must be > 0")
        if not (np.isfinite(self.tau_min) and self.tau_min > 0):
            raise DomainError(f"tau_min must be finite and > 0, got {self.tau_min}")


@dataclass(frozen=True)
class TrainingTrace:
    """Full-training-set loss per epoch; index 0 is the initial loss."""

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
    those inputs, the output pre-activation o and the temperatures."""
    h = F
    inputs = []
    for w, b in p.layers[:-1]:
        inputs.append(h)
        # a stays alive until the next layer's replaces it: freeing it at once
        # left cli_desk's peak RSS 1.7 MB higher (heap layout, not live data).
        a = h @ w.T + b
        h = np.maximum(a, 0.0)
    inputs.append(h)
    w, b = p.layers[-1]
    o = (h @ w.T + b)[:, 0]
    return inputs, o, softplus(o) + p.tau_min


def forward_batch(p: CalibratorParams, F: np.ndarray) -> np.ndarray:
    """Temperatures for a feature matrix, shape (n,)."""
    F = np.asarray(F, dtype=np.float64)
    if F.ndim != 2 or F.shape[1] != p.input_width:
        raise DomainError(f"features must have shape (n, {p.input_width}), got {F.shape}")
    return _forward_trace(p, F)[2]


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
    :class:`~calib_lab.losses.LogitBatch` with ``labels=None``."""
    taus = forward_batch(p, F)
    return float(np.mean(loss_values(Z, labels, taus, kind, mode)))


def grad_params(p: CalibratorParams, F: np.ndarray, Z: np.ndarray, labels: np.ndarray,
                kind: LossKind = LossKind.CA,
                mode: DiscrepancyMode = DiscrepancyMode.SQUARED_L2) -> list:
    """Exact gradient of the mean batch loss as (dW, db) pairs laid out
    like ``p.layers``: d(loss)/d(tau) chained through softplus, the
    linear layers, and ReLU (derivative at 0 taken as 0). The batch
    gradient is the mean of per-sample gradients. ``Z`` may be a
    :class:`~calib_lab.losses.LogitBatch` with ``labels=None``."""
    F = np.asarray(F, dtype=np.float64)
    if F.shape[0] == 0:
        raise DomainError("batch must be non-empty")
    n = F.shape[0]
    inputs, o, tau = _forward_trace(p, F)
    # g: d(loss)/d(pre-activation) of the current layer, (n, fan_out).
    g = (dloss_dtau_batch(Z, labels, tau, kind, mode) * sigmoid(o))[:, None]
    grads = [None] * len(p.layers)
    for i in reversed(range(len(p.layers))):
        h = inputs[i]
        grads[i] = (g.T @ h / n, g.mean(axis=0))
        if i:
            # A ReLU output is > 0 exactly where its input is.
            g = (g @ p.layers[i][0]) * (h > 0)
    return grads


def softplus_inverse(y: float) -> float:
    """Solve softplus(x) = y for y > 0; stable for large y."""
    if not y > 0:
        raise DomainError("softplus inverse requires a positive value")
    return float(y + np.log1p(-np.exp(-y)))


def init_params(n_classes: int, n_transforms: int, k: int, *, tau_min: float = DEFAULT_TAU_MIN,
                seed: int = 0, two_hidden: bool = False) -> CalibratorParams:
    """Seeded uniform [-a, a] weight init with a = sqrt(6/(fan_in+fan_out));
    biases start at zero."""
    rng = np.random.default_rng(seed)

    def uniform_init(fan_in, fan_out):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-a, a, size=(fan_out, fan_in))

    widths = (n_transforms * k,) + (HIDDEN_WIDTH,) * (2 if two_hidden else 1) + (1,)
    layers = [(uniform_init(fan_in, fan_out), np.zeros(fan_out))
              for fan_in, fan_out in zip(widths, widths[1:])]
    return CalibratorParams(layers=layers, tau_min=tau_min, n_classes=n_classes,
                            n_transforms=n_transforms, k=k)


def constant_temperature_params(tau: float, n_classes: int, n_transforms: int, k: int,
                                tau_min: float = DEFAULT_TAU_MIN) -> CalibratorParams:
    """Zero-weight calibrator emitting the same temperature for every input."""
    if not tau > tau_min:
        raise DomainError(f"tau must exceed tau_min={tau_min}")
    d_in = n_transforms * k
    return CalibratorParams(
        layers=[(np.zeros((HIDDEN_WIDTH, d_in)), np.zeros(HIDDEN_WIDTH)),
                (np.zeros((1, HIDDEN_WIDTH)), [softplus_inverse(tau - tau_min)])],
        tau_min=tau_min, n_classes=n_classes, n_transforms=n_transforms, k=k)


class _FlatParams:
    """The weights of a CalibratorParams in one float64 vector ``theta``.

    ``layers`` holds (W, b) views of ``theta`` shaped like the
    CalibratorParams layers, so :func:`grad_params` and
    :func:`batch_loss` read it like a CalibratorParams while the
    optimiser updates ``theta`` in place.
    """

    def __init__(self, p: CalibratorParams):
        self.template = p
        self.tau_min = p.tau_min
        self.input_width = p.input_width
        arrays = [a for layer in p.layers for a in layer]
        self.theta = np.concatenate([a.ravel() for a in arrays])
        parts = np.split(self.theta, np.cumsum([a.size for a in arrays])[:-1])
        views = [part.reshape(a.shape) for part, a in zip(parts, arrays)]
        self.layers = tuple(zip(views[::2], views[1::2]))

    def params(self) -> CalibratorParams:
        """A frozen, validated copy of the current weights."""
        return replace(self.template, layers=self.layers)

    @staticmethod
    def flat(grads) -> np.ndarray:
        """(dW, db) pairs laid out like ``theta``."""
        return np.concatenate([a.ravel() for layer in grads for a in layer])


def train(d: Dataset, config: TrainConfig) -> tuple[CalibratorParams, TrainingTrace]:
    """Adam-train the calibrator on a dataset.

    Shuffling, initialization, and updates are all driven by one seeded
    generator, so two runs with equal (seed, config, dataset) produce
    bit-identical parameters. Raises :class:`TrainingDivergedError` the
    first time the logged loss is non-finite.
    """
    config.validate(d.n_classes)
    F = feature_matrix(d, config.k)
    data = LogitBatch.prepare(d.logits, d.labels)
    n = d.n

    net = _FlatParams(init_params(d.n_classes, d.n_transforms, config.k,
                                  tau_min=config.tau_min, seed=config.seed,
                                  two_hidden=config.two_hidden))
    theta = net.theta
    adam_m = np.zeros_like(theta)
    adam_v = np.zeros_like(theta)
    update = np.empty_like(theta)
    denom = np.empty_like(theta)
    step = 0
    rng = np.random.default_rng(config.seed + 1)

    def full_loss(epoch: int) -> float:
        try:
            value = batch_loss(net, F, data, None, config.loss, config.mode)
        except (DomainError, InvalidInputError) as exc:
            raise TrainingDivergedError(epoch, f"diverged at epoch {epoch}: {exc}") from exc
        if not np.isfinite(value):
            raise TrainingDivergedError(epoch)
        return value

    trace = [full_loss(0)]

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            try:
                grads = grad_params(net, F[batch], data.take(batch), None,
                                    config.loss, config.mode)
            except (DomainError, InvalidInputError) as exc:
                # Inputs were validated up front, so a non-finite temperature
                # or parameter mid-run means the optimization blew up.
                raise TrainingDivergedError(epoch, f"diverged at epoch {epoch}: {exc}") from exc
            g = net.flat(grads)
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
                raise TrainingDivergedError(epoch)
        trace.append(full_loss(epoch))

    return net.params(), TrainingTrace(np.asarray(trace, dtype=np.float64))
