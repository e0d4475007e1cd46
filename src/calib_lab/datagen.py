"""Synthetic classifier-output generation.

Records are drawn so the prediction matches the label with probability
``target_rho``. Logits put a ``sharpness``-sized peak on the predicted
class over spherical Gaussian noise; for wrong predictions the
ground-truth class additionally receives a random fraction of the peak,
which spreads the ground-truth/predicted probability ratio across its
whole (0, 1] range (from barely-lost ties to hopeless misses).
``wrongness_skew`` shapes that spectrum: 1.0 draws the fraction
uniformly, values below 1 concentrate it near the peak (more narrow
misses). Each transform channel's softmax vector peaks on the predicted
class with probability ``p_agree_correct`` or ``p_agree_wrong``
(depending on the record's correctness), otherwise on a random other
class; channel vectors are Dirichlet draws concentrated on that peak.
The correctness signal carried by the channels is exactly the gap
between the two agreement probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShortfallError
from .records import Dataset, correctness_view, wrongness_ratios
from .tensor_math import check_count, check_real, predicted_labels, row_blocks


@dataclass(frozen=True)
class SynthConfig:
    n_classes: int = 10
    n_transforms: int = 3
    n: int = 1000
    target_rho: float = 0.7
    sharpness: float = 5.0
    p_agree_correct: float = 0.9
    p_agree_wrong: float = 0.5
    noise: float = 1.0
    concentration: float = 20.0
    wrongness_skew: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n_classes", 2), ("n_transforms", 1), ("n", 1), ("seed", 0)):
            check_count(getattr(self, name), name, low)
        check_real(self.target_rho, "target_rho", 0.0, 1.0)
        for name in ("p_agree_correct", "p_agree_wrong"):
            check_real(getattr(self, name), name, 0.0, 1.0, closed=True)
        check_real(self.noise, "noise", 0.0, closed=True)
        for name in ("sharpness", "concentration", "wrongness_skew"):
            check_real(getattr(self, name), name, 0.0)


def _random_other(rng: np.random.Generator, base: np.ndarray, n_classes: int) -> np.ndarray:
    """Uniform class indices guaranteed to differ from ``base``."""
    return (base + rng.integers(1, n_classes, size=base.shape)) % n_classes


def generate(cfg: SynthConfig) -> Dataset:
    """Draw a dataset; fully determined by the seed."""
    rng = np.random.default_rng(cfg.seed)
    n, c, m = cfg.n, cfg.n_classes, cfg.n_transforms
    rows = np.arange(n)

    labels = rng.integers(0, c, size=n)
    correct = rng.random(n) < cfg.target_rho
    predicted = labels.copy()
    predicted[~correct] = _random_other(rng, labels[~correct], c)

    logits = rng.normal(0.0, abs(cfg.noise), size=(n, c))  # numpy refuses a scale of -0.0
    # A logit beyond the float range becomes inf, which Dataset refuses by row.
    with np.errstate(over="ignore"):
        logits[rows, predicted] += cfg.sharpness
        # Wrongness spectrum: lift the true class by a random fraction of the
        # peak. Exponents below 1 skew the spectrum toward narrow misses.
        wrong_lift = (rng.random(n) ** cfg.wrongness_skew) * cfg.sharpness
        logits[~correct, labels[~correct]] += wrong_lift[~correct]
    # Noise can overturn the intended argmax; swap it back into place.
    top = predicted_labels(logits)
    off = top != predicted
    off_rows = rows[off]
    logits[off_rows, top[off]], logits[off_rows, predicted[off]] = (
        logits[off_rows, predicted[off]], logits[off_rows, top[off]])

    agree_p = np.where(correct, cfg.p_agree_correct, cfg.p_agree_wrong)
    # The Dirichlet draws run one row block at a time, in row order, so the
    # generator is consumed as by one draw over all rows. The output is allocated
    # first: the order of large allocations sets the heap layout, and with it
    # the peak RSS of later calls.
    blocks = row_blocks(n)
    transform_probs, block_alpha = np.empty((n, m, c)), np.ones((blocks[0].stop, c))
    for i in range(m):
        agrees = rng.random(n) < agree_p
        channel_class = predicted.copy()
        channel_class[~agrees] = _random_other(rng, predicted[~agrees], c)
        for block in blocks:
            peak = channel_class[block]
            at = rows[:peak.size]
            alpha = block_alpha[:peak.size]
            alpha[at, peak] += cfg.concentration
            probs = rng.standard_gamma(alpha)
            alpha[at, peak] = 1.0
            probs /= probs.sum(axis=1, keepdims=True)
            top_p = np.argmax(probs, axis=1)
            off = top_p != peak
            off_rows = at[off]
            probs[off_rows, top_p[off]], probs[off_rows, peak[off]] = (
                probs[off_rows, peak[off]], probs[off_rows, top_p[off]])
            transform_probs[block, i, :] = probs

    return Dataset(logits, labels, transform_probs, _owned=True)


def craft_wrongness_set(d: Dataset, ratio_low: float, ratio_high: float, count: int,
                        n_correct: int = 0) -> Dataset:
    """Subset of exactly ``count`` wrongly predicted records whose
    wrongness ratio lies in [ratio_low, ratio_high), optionally padded
    with the first ``n_correct`` correctly predicted records (for
    training-set crafting). Selection only; record contents are
    untouched."""
    ratio_low = check_real(ratio_low, "ratio_low", 0.0, closed=True)
    ratio_high = check_real(ratio_high, "ratio_high", ratio_low)
    check_count(count, "count", 1)
    check_count(n_correct, "n_correct", 0)
    ratios = wrongness_ratios(d)
    with np.errstate(invalid="ignore"):
        in_band = (ratios >= ratio_low) & (ratios < ratio_high)
    band_idx = np.flatnonzero(in_band)
    if band_idx.size < count:
        raise ShortfallError(
            f"band [{ratio_low}, {ratio_high}) holds {band_idx.size} wrong records, "
            f"need {count}",
            band=(ratio_low, ratio_high), available=int(band_idx.size), requested=count)
    chosen = band_idx[:count]
    if n_correct > 0:
        correct_idx = np.flatnonzero(correctness_view(d).correct)
        if correct_idx.size < n_correct:
            raise ShortfallError(
                f"dataset holds {correct_idx.size} correct records, need {n_correct}",
                available=int(correct_idx.size), requested=n_correct)
        chosen = np.concatenate([chosen, correct_idx[:n_correct]])
    return d.subset(chosen)
