"""Global temperature scaling and the uncalibrated pass-through.

The single temperature is fitted by minimizing mean cross-entropy of
softmax(z / tau) against the labels: a coarse log-spaced grid over
[0.05, 50] locates the basin, golden-section search narrows it below
1e-4. The plain grid point 1.0 is always a candidate, so the fitted
objective can never exceed the unscaled one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .losses import LossKind, loss_values
from .records import Dataset
from .tensor_math import top_confidence

TAU_GRID_LO = 0.05
TAU_GRID_HI = 50.0
TAU_GRID_POINTS = 60
REFINE_TOL = 1e-4

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class GlobalTemp:
    tau: float

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise DomainError(f"global temperature must be > 0, got {self.tau}")


def nll_objective(d: Dataset, tau: float) -> float:
    """Mean cross-entropy of softmax(z / tau) against the labels."""
    return float(np.mean(loss_values(d.logits, d.labels, tau, LossKind.CE)))


def _golden_section(f, lo: float, hi: float, tol: float) -> float:
    c = hi - _INV_PHI * (hi - lo)
    d_ = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d_)
    while hi - lo > tol:
        if fc < fd:
            hi, d_, fd = d_, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d_, fd
            d_ = lo + _INV_PHI * (hi - lo)
            fd = f(d_)
    return 0.5 * (lo + hi)


def fit_global_temperature(d: Dataset) -> GlobalTemp:
    """Best single temperature for a dataset under the CE objective."""
    grid = np.geomspace(TAU_GRID_LO, TAU_GRID_HI, TAU_GRID_POINTS)
    grid = np.unique(np.append(grid, 1.0))
    objective = [nll_objective(d, t) for t in grid]
    best = int(np.argmin(objective))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    refined = _golden_section(lambda t: nll_objective(d, t), lo, hi, REFINE_TOL)
    # Keep whichever candidate actually wins; grid point 1.0 included.
    if nll_objective(d, refined) <= objective[best]:
        return GlobalTemp(tau=float(refined))
    return GlobalTemp(tau=float(grid[best]))


def apply_global(d: Dataset, t: GlobalTemp) -> np.ndarray:
    """Per-record confidence from softmax(z / tau); argmax unchanged."""
    return top_confidence(d.logits, t.tau)
