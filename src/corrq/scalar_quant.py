"""Scalar quantizers for distributed mean estimation.

n clients each hold one value in a known range [l, r] and send a quantized
message; the server averages the decoded values to estimate the batch mean.
The correlated quantizers here share randomness across clients (a common
permutation plus per-client sub-cell offsets) so that the aggregate error
scales with how concentrated the batch is, not just with the range. The
independent stochastic quantizer is the classical baseline.

All quantizer cores are shape-generic: inputs may carry arbitrary leading
batch axes (the Monte Carlo harness prepends a trial axis), with clients on
the last axis. The schemes built on them (correlated-1bit,
correlated-klevel, independent) are records of harness.SCHEME_TABLE, and
one round of a scalar batch is harness.run_round(batch, scheme, k, key):
per_client and indices in the (n, 1) layout, the estimate a (1,) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScalarBatch:
    """One value per client plus the shared bounds.

    Values must lie in the closed interval [lower, upper]; the upper
    endpoint is admissible (clipping pipelines can produce it) and is
    quantized exactly. Degenerate bounds are rejected.
    """

    values: np.ndarray
    lower: float
    upper: float

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError("bounds must be finite")
        if not self.lower < self.upper:
            raise ValueError(
                f"need lower < upper, got [{self.lower}, {self.upper}]"
            )
        if values.min() < self.lower or values.max() > self.upper:
            raise ValueError("values outside declared bounds")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def mean(self) -> float:
        """Batch mean via a pivot-shifted compensated sum.

        Plain float summation of n equal values can land one ulp off the
        common value; anchoring at values[0] makes constant batches (the
        zero-error case) come out exact and is at least as accurate as a
        naive mean everywhere else.
        """
        pivot = float(self.values[0])
        return pivot + math.fsum(self.values - pivot) / self.n


@dataclass(frozen=True)
class ConcentrationStats:
    """Deviation summaries of a batch around its mean.

    sigma_md <= sigma <= sigma_max always (mean absolute deviation, root
    mean square deviation, max deviation).
    """

    sigma_md: float
    sigma: float
    sigma_max: float


def concentration_stats(batch: ScalarBatch) -> ConcentrationStats:
    dev = np.abs(batch.values - batch.mean())
    return ConcentrationStats(
        sigma_md=float(dev.mean()),
        sigma=float(np.sqrt(np.mean(dev**2))),
        sigma_max=float(dev.max()),
    )


def level_spacing(k: int) -> float:
    """Spacing of the randomized k-level grid, (k+1) / (k(k-1))."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    return (k + 1) / (k * (k - 1))


# ---------------------------------------------------------------------------
# Shape-generic kernels. Clients on the last axis; any leading batch axes.
# ---------------------------------------------------------------------------


def correlated_bits(
    frac: np.ndarray, permutations: np.ndarray, offset_units: np.ndarray
) -> np.ndarray:
    """Indicator 1{U_i < f_i} with U_i = (pi_i + unit_i) / n.

    Evaluated in the scaled form pi_i + unit_i < n * f_i so that fractions
    of the form s/n compare exactly (the exactness guarantee for batches
    sitting on the estimator's own grid does not hinge on float rounding
    of pi/n + gamma).
    """
    n = permutations.shape[-1]
    return (permutations + offset_units) < n * frac


def level_cells(y: np.ndarray, first_level, k: int):
    """Cell index of the largest level strictly below y, and the fraction.

    Returns (cell, frac): cell in {0..k-2} indexes the level c below y,
    frac = (y - c) / spacing in [0, 1]. A value exactly on a level gets
    frac 1.0, so the indicator fires deterministically and the level is
    reproduced exactly.
    """
    beta = level_spacing(k)
    t = (y - first_level) / beta
    cell = np.clip(np.ceil(t) - 1.0, 0, k - 2).astype(np.int64)
    frac = np.clip((t - cell), 0.0, 1.0)
    return cell, frac


def uniform_grid_cells(y: np.ndarray, k: int):
    """Cell and fraction on the uniform k-level grid over [0, 1].

    y is in grid-step units times (k-1), i.e. normalized values times
    (k-1). The top endpoint lands in the last cell with fraction 1.
    """
    cell = np.clip(np.floor(y), 0, k - 2).astype(np.int64)
    frac = y - cell
    return cell, frac
