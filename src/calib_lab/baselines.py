"""Global temperature scaling and the uncalibrated pass-through.

The single temperature is fitted by minimizing mean cross-entropy of
softmax(z / tau) against the labels. Without the PROB_FLOOR clamp that
objective, logsumexp(beta z) - beta z_y, is convex in beta = 1 / tau, so
a Newton iteration in beta, safeguarded by bisection, finds its minimum
over tau in [0.05, 50]. tau = 1 is always a candidate, and the two are
compared on the floored objective, so the fit can never exceed the
unscaled one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import LossKind, loss_values
from .records import Dataset
from .tensor_math import check_real, row_sums, shift_rows, top_confidence

TAU_GRID_LO = 0.05
TAU_GRID_HI = 50.0


@dataclass(frozen=True)
class GlobalTemp:
    tau: float

    def __post_init__(self):
        check_real(self.tau, "global temperature", 0.0)


def nll_objective(d: Dataset, tau: float) -> float:
    """Mean cross-entropy of softmax(z / tau) against the labels."""
    return float(np.mean(loss_values(d.logits, d.labels, tau, LossKind.CE)))


def fit_global_temperature(d: Dataset) -> GlobalTemp:
    """Best single temperature for a dataset under the CE objective."""
    # Finite even where a row spans more than the float64 range.
    shifted = shift_rows(d.logits)
    label_z = shifted[np.arange(d.n), d.labels]
    buf = np.empty_like(shifted)

    def derivatives(beta: float) -> tuple[float, float]:
        # Slope E_p[z] - z_y and curvature Var_p(z) of the unfloored CE, summed over rows.
        # beta * z only overflows to -inf (weight exactly 0); where the weight is > 0,
        # |z| < 750 / beta. The slope sum overflows to +inf only if some z_y is near -1e308.
        with np.errstate(over="ignore"):
            np.exp(np.multiply(shifted, beta, out=buf), out=buf)
            total = row_sums(buf)
            mean_z = row_sums(buf, shifted) / total
            np.multiply(buf, shifted, out=buf)
            var_z = row_sums(buf, shifted) / total - mean_z * mean_z
            return float(np.sum(mean_z - label_z)), float(np.sum(var_z))

    lo, hi = 1.0 / TAU_GRID_HI, 1.0 / TAU_GRID_LO
    if derivatives(lo)[0] >= 0.0:
        tau = TAU_GRID_HI
    elif derivatives(hi)[0] <= 0.0:
        tau = TAU_GRID_LO
    else:
        beta = 1.0
        # 64 bisections alone would exhaust the float64 resolution of the bracket.
        for _ in range(64):
            slope, curvature = derivatives(beta)
            # Stop once the Newton step is below 1e-12 of beta.
            if abs(slope) <= 1e-12 * beta * curvature:
                break
            if slope > 0.0:
                hi = beta
            else:
                lo = beta
            if curvature > 0.0 and lo < beta - slope / curvature < hi:
                beta -= slope / curvature
            else:
                beta = 0.5 * (lo + hi)
        tau = 1.0 / beta
    # Keep whichever candidate actually wins; tau = 1 on a tie.
    if nll_objective(d, tau) < nll_objective(d, 1.0):
        return GlobalTemp(tau=tau)
    return GlobalTemp(tau=1.0)


def apply_global(d: Dataset, t: GlobalTemp) -> np.ndarray:
    """Per-record confidence from softmax(z / tau); argmax unchanged."""
    return top_confidence(d.logits, t.tau)
