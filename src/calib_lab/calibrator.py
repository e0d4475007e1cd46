"""Sample-adaptive temperature calibrator.

Per record, the softmax vectors of the M transform channels are
gathered at the indices of the k largest original logits and
concatenated (channel-major) into an M*k feature vector. A small fully
connected network (input -> 5 ReLU -> 1 by default, an extra 5-node
hidden layer behind a config switch) maps the features to a positive
temperature via softplus(o) + tau_min. The temperature rescales the
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


def _weights(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """Float64 copy of a weight array, named by its parameter-file key.
    Only integers and floats are numbers here: strings, bools and
    objects are refused, not coerced."""
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
    return arr


@dataclass(frozen=True)
class CalibratorParams:
    """Weights of the temperature network plus gather/shape metadata.

    ``w1b``/``b1b`` hold the optional second hidden layer and stay None
    for the default single-hidden-layer architecture. Arrays are
    read-only once constructed.
    """

    w1: np.ndarray   # (HIDDEN_WIDTH, M*k)
    b1: np.ndarray   # (HIDDEN_WIDTH,)
    w2: np.ndarray   # (1, HIDDEN_WIDTH)
    b2: float
    tau_min: float
    n_classes: int
    n_transforms: int
    k: int
    w1b: np.ndarray | None = None  # (HIDDEN_WIDTH, HIDDEN_WIDTH)
    b1b: np.ndarray | None = None  # (HIDDEN_WIDTH,)

    def __post_init__(self):
        # Copy before freezing so caller-owned arrays keep their flags.
        w1 = _weights("W1", self.w1, (HIDDEN_WIDTH, self.n_transforms * self.k))
        b1 = _weights("b1", self.b1, (HIDDEN_WIDTH,))
        w2 = _weights("W2", self.w2, (1, HIDDEN_WIDTH))
        if (self.w1b is None) != (self.b1b is None):
            raise InvalidInputError("w1b and b1b must be provided together")
        w1b = b1b = None
        if self.w1b is not None:
            w1b = _weights("W1b", self.w1b, (HIDDEN_WIDTH, HIDDEN_WIDTH))
            b1b = _weights("b1b", self.b1b, (HIDDEN_WIDTH,))
        if not np.isfinite(self.b2):
            raise InvalidInputError(f"parameter field 'b2' is not finite, got {self.b2}")
        all_values = [w1, b1, w2] + ([w1b, b1b] if w1b is not None else [])
        if not (np.isfinite(self.tau_min) and self.tau_min > 0):
            raise InvalidInputError(f"tau_min must be finite and > 0, got {self.tau_min}")
        if not 1 <= self.k <= self.n_classes:
            raise InvalidInputError(f"k={self.k} outside [1, {self.n_classes}]")
        for a in all_values:
            a.setflags(write=False)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "b2", float(self.b2))
        object.__setattr__(self, "w1b", w1b)
        object.__setattr__(self, "b1b", b1b)

    @property
    def input_width(self) -> int:
        return self.n_transforms * self.k


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for calibrator training."""

    loss: LossKind = LossKind.CA
    mode: DiscrepancyMode = DiscrepancyMode.SQUARED_L2
    k: int = 4
    epochs: int = 50
    batch_size: int = 256
    learning_rate: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
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


@dataclass
class ParamGradients:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float
    w1b: np.ndarray | None = None
    b1b: np.ndarray | None = None


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
    """Forward pass keeping intermediates for backprop."""
    a1 = F @ p.w1.T + p.b1
    h1 = np.maximum(a1, 0.0)
    if p.w1b is not None:
        a2 = h1 @ p.w1b.T + p.b1b
        h_last = np.maximum(a2, 0.0)
    else:
        a2 = None
        h_last = h1
    o = h_last @ p.w2.T + p.b2
    o = o[:, 0]
    tau = softplus(o) + p.tau_min
    return a1, h1, a2, h_last, o, tau


def forward_batch(p: CalibratorParams, F: np.ndarray) -> np.ndarray:
    """Temperatures for a feature matrix, shape (n,)."""
    F = np.asarray(F, dtype=np.float64)
    if F.ndim != 2 or F.shape[1] != p.input_width:
        raise DomainError(f"features must have shape (n, {p.input_width}), got {F.shape}")
    return _forward_trace(p, F)[5]


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
                mode: DiscrepancyMode = DiscrepancyMode.SQUARED_L2) -> ParamGradients:
    """Exact gradient of the mean batch loss with respect to every
    parameter: d(loss)/d(tau) chained through softplus, the linear
    layers, and ReLU (derivative at 0 taken as 0). The batch gradient is
    the mean of per-sample gradients. ``Z`` may be a
    :class:`~calib_lab.losses.LogitBatch` with ``labels=None``."""
    F = np.asarray(F, dtype=np.float64)
    if F.shape[0] == 0:
        raise DomainError("batch must be non-empty")
    n = F.shape[0]
    a1, h1, a2, h_last, o, tau = _forward_trace(p, F)
    dl_dtau = dloss_dtau_batch(Z, labels, tau, kind, mode)
    g_o = dl_dtau * sigmoid(o)                       # (n,)

    g_w2 = (g_o @ h_last)[None, :] / n               # (1, hidden)
    g_b2 = float(np.mean(g_o))
    g_h = g_o[:, None] * p.w2                        # (n, hidden)

    if p.w1b is not None:
        g_a2 = g_h * (a2 > 0)
        g_w1b = g_a2.T @ h1 / n
        g_b1b = g_a2.mean(axis=0)
        g_h1 = g_a2 @ p.w1b
    else:
        g_w1b = g_b1b = None
        g_h1 = g_h
    g_a1 = g_h1 * (a1 > 0)
    g_w1 = g_a1.T @ F / n
    g_b1 = g_a1.mean(axis=0)
    return ParamGradients(w1=g_w1, b1=g_b1, w2=g_w2, b2=g_b2, w1b=g_w1b, b1b=g_b1b)


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
    d_in = n_transforms * k

    def uniform_init(fan_in, fan_out):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-a, a, size=(fan_out, fan_in))

    w1 = uniform_init(d_in, HIDDEN_WIDTH)
    w1b = b1b = None
    if two_hidden:
        w1b = uniform_init(HIDDEN_WIDTH, HIDDEN_WIDTH)
        b1b = np.zeros(HIDDEN_WIDTH)
    w2 = uniform_init(HIDDEN_WIDTH, 1)
    return CalibratorParams(w1=w1, b1=np.zeros(HIDDEN_WIDTH), w2=w2, b2=0.0,
                            tau_min=tau_min, n_classes=n_classes, n_transforms=n_transforms,
                            k=k, w1b=w1b, b1b=b1b)


def constant_temperature_params(tau: float, n_classes: int, n_transforms: int, k: int,
                                tau_min: float = DEFAULT_TAU_MIN) -> CalibratorParams:
    """Zero-weight calibrator emitting the same temperature for every input."""
    if not tau > tau_min:
        raise DomainError(f"tau must exceed tau_min={tau_min}")
    d_in = n_transforms * k
    return CalibratorParams(
        w1=np.zeros((HIDDEN_WIDTH, d_in)), b1=np.zeros(HIDDEN_WIDTH),
        w2=np.zeros((1, HIDDEN_WIDTH)), b2=softplus_inverse(tau - tau_min),
        tau_min=tau_min, n_classes=n_classes, n_transforms=n_transforms, k=k)


class _FlatParams:
    """The weights of a CalibratorParams in one float64 vector ``theta``.

    ``w1``, ``b1``, ``w2``, ``b2`` (and ``w1b``, ``b1b``) are views of
    ``theta`` with the shapes of the CalibratorParams fields, so
    :func:`grad_params` and :func:`batch_loss` read it like a
    CalibratorParams while the optimiser updates ``theta`` in place.
    """

    def __init__(self, p: CalibratorParams):
        self.template = p
        self.tau_min = p.tau_min
        self.input_width = p.input_width
        self.names = ("w1", "b1", "w2", "b2") + (("w1b", "b1b") if p.w1b is not None else ())
        self.theta = np.concatenate([np.ravel(getattr(p, name)) for name in self.names])
        self.w1b = self.b1b = None
        start = 0
        for name in self.names:
            shape = np.shape(getattr(p, name))
            size = int(np.prod(shape))
            setattr(self, name, self.theta[start:start + size].reshape(shape))
            start += size

    def params(self) -> CalibratorParams:
        """A frozen, validated copy of the current weights."""
        return replace(self.template, **{name: getattr(self, name) for name in self.names})

    def flat(self, g: ParamGradients) -> np.ndarray:
        """Gradients laid out like ``theta``."""
        return np.concatenate([np.ravel(getattr(g, name)) for name in self.names])


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
        F_epoch, data_epoch = F[order], data.take(order)
        for start in range(0, n, config.batch_size):
            batch = slice(start, start + config.batch_size)
            try:
                grads = grad_params(net, F_epoch[batch], data_epoch.take(batch), None,
                                    config.loss, config.mode)
            except (DomainError, InvalidInputError) as exc:
                # Inputs were validated up front, so a non-finite temperature
                # or parameter mid-run means the optimization blew up.
                raise TrainingDivergedError(epoch, f"diverged at epoch {epoch}: {exc}") from exc
            g = net.flat(grads)
            step += 1
            bias1 = 1.0 - config.beta1 ** step
            bias2 = 1.0 - config.beta2 ** step
            # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
            # theta -= lr * (m/bias1) / (sqrt(v/bias2) + eps), each rounded as written.
            adam_m *= config.beta1
            adam_m += (1.0 - config.beta1) * g
            adam_v *= config.beta2
            adam_v += (1.0 - config.beta2) * g * g
            np.divide(adam_v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += config.adam_eps
            np.divide(adam_m, bias1, out=update)
            update /= denom
            update *= config.learning_rate
            theta -= update
            if not np.all(np.isfinite(theta)):
                raise TrainingDivergedError(epoch)
        # Free this epoch's copies before the full-set loss and the next gather.
        del F_epoch, data_epoch
        trace.append(full_loss(epoch))

    return net.params(), TrainingTrace(np.asarray(trace, dtype=np.float64))
