"""Global temperature scaling and the uncalibrated pass-through.

The single temperature is fitted by minimizing mean cross-entropy of
softmax(z / tau) against the labels. Without the PROB_FLOOR clamp that
objective, logsumexp(beta z) - beta z_y, is convex in beta = 1 / tau, so
a Newton iteration in beta, safeguarded by bisection, finds its minimum
over tau in [0.05, 50]. The fit evaluates the slope at beta = 1 first:
convexity makes the slope rise with beta, so only the bracket end on
the downhill side of beta = 1 is probed, and the Newton iteration starts
from that first evaluation; the iterates are those of probing both ends.
tau = 1 is always a candidate, and the two are compared on the floored
objective, so the fit can never exceed the unscaled one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import LossKind, loss_values
from .records import Dataset
from .tensor_math import check_real, row_blocks, row_sums, shift_rows, top_confidence

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
    # Per-row weights are formed one row block at a time, into one block-sized buffer:
    # a fresh array per block, as map_row_blocks makes, adds about 19 MB of peak RSS at 300k rows.
    blocks = row_blocks(d.n)
    buf = np.empty((blocks[0].stop, d.n_classes))

    def derivatives(beta: float) -> tuple[float, float]:
        # Slope E_p[z] - z_y and curvature Var_p(z) of the unfloored CE, summed over rows.
        # beta * z only overflows to -inf (weight exactly 0); where the weight is > 0,
        # |z| < 750 / beta. The slope sum overflows to +inf only if some z_y is near -1e308.
        mean_z, var_z = np.empty(d.n), np.empty(d.n)
        with np.errstate(over="ignore"):
            for rows in blocks:
                S = shifted[rows]
                E = buf[:len(S)]
                np.exp(np.multiply(S, beta, out=E), out=E)
                total = row_sums(E)
                mean = np.divide(row_sums(E, S), total, out=mean_z[rows])
                np.multiply(E, S, out=E)
                np.subtract(row_sums(E, S) / total, mean * mean, out=var_z[rows])
            return float(np.sum(mean_z - label_z)), float(np.sum(var_z))

    lo, hi = 1.0 / TAU_GRID_HI, 1.0 / TAU_GRID_LO
    beta = 1.0
    slope, curvature = derivatives(beta)
    # The slope rises with beta, so only the bracket end downhill of beta = 1 can hold
    # the minimum; a zero slope probes both ends, lo first.
    if slope >= 0.0 and derivatives(lo)[0] >= 0.0:
        tau = TAU_GRID_HI
    elif slope <= 0.0 and derivatives(hi)[0] <= 0.0:
        tau = TAU_GRID_LO
    else:
        # 64 bisections alone would exhaust the float64 resolution of the bracket.
        for step in range(64):
            if step:
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
