"""Scalar quantizers for distributed mean estimation.

n clients each hold one value in a known range [l, r] and send a quantized
message; the server averages the decoded values to estimate the batch mean.
The correlated quantizers here share randomness across clients (a common
permutation plus per-client sub-cell offsets) so that the aggregate error
scales with how concentrated the batch is, not just with the range. The
independent stochastic quantizer is the classical baseline.

All quantizer cores are shape-generic: inputs may carry arbitrary leading
batch axes (the Monte Carlo harness prepends a trial axis), with clients on
the last axis. The single-round ops at the end are one trial of the
harness engine (harness.run_round), on one coordinate of a context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .randomness import ContextArrays, RandomnessContext


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

    def normalized(self) -> np.ndarray:
        """Values mapped to [0, 1]."""
        return (self.values - self.lower) / self.width

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


@dataclass(frozen=True)
class ScalarQuantOutput:
    """Per-client decoded values, their level indices, and the mean estimate."""

    per_client: np.ndarray
    level_indices: np.ndarray
    estimate: float


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


# ---------------------------------------------------------------------------
# Reference single-round ops.
# ---------------------------------------------------------------------------


def _engine_output(
    scheme: str, batch: ScalarBatch, k: int, key: int = 0, ctx=None,
    coordinate: int = 0,
) -> ScalarQuantOutput:
    """One round of `scheme` on the engine of harness.run_round, keyed by
    `key` or reading one coordinate of the caller's shared context."""
    from .harness import run_round  # harness imports this module

    if ctx is not None:
        if batch.n != ctx.n:
            raise ValueError(f"batch has {batch.n} clients, context has {ctx.n}")
        if not 0 <= coordinate < ctx.d:
            raise ValueError(f"coordinate {coordinate} outside context d={ctx.d}")
        j = slice(coordinate, coordinate + 1)
        ctx = ContextArrays(*(a[:, j] for a in ctx.arrays()))
    r = run_round(batch, scheme, k, key, ctx)
    per_client = r.per_client[:, 0]
    return ScalarQuantOutput(
        per_client=per_client,
        level_indices=r.indices[:, 0],
        estimate=float(per_client.mean()),
    )


def one_bit_cq(
    batch: ScalarBatch, ctx: RandomnessContext, coordinate: int = 0
) -> ScalarQuantOutput:
    """Correlated one-bit quantizer.

    Client i sends 1{U_i < y_i} for the shared correlated uniform U_i and
    its normalized value y_i; the decoded value is l + (r-l) * bit. The
    shared permutation turns the n indicator draws into sampling without
    replacement, so the aggregate error tracks the batch's mean absolute
    deviation.
    """
    return _engine_output("correlated-1bit", batch, 2, ctx=ctx, coordinate=coordinate)


def k_level_cq(
    batch: ScalarBatch, ctx: RandomnessContext, coordinate: int = 0
) -> ScalarQuantOutput:
    """Correlated k-level quantizer on the randomized grid, k = ctx.k.

    Client i locates the largest level c strictly below its normalized
    value, computes the cell fraction f, and sends the index of
    c + spacing * 1{U_i < f}. Unbiased for every k; the
    deviation-dependent error guarantee kicks in at k >= 3.

    k = 2 is the one-bit quantizer: the randomized two-level grid spans
    1.5x the range and is strictly dominated by the plain one-bit rule,
    which uses the same single bit.
    """
    return _engine_output(
        "correlated-klevel", batch, ctx.k, ctx=ctx, coordinate=coordinate
    )


def independent_sq(batch: ScalarBatch, k: int, key: int) -> ScalarQuantOutput:
    """Independent stochastic quantizer on the uniform k-level grid.

    Each client rounds to one of the two enclosing grid points with
    probability proportional to proximity, using private randomness: the
    counter stream of the round key, as in
    harness.run_round(batch, "independent", k, key). Unbiased; aggregate
    MSE is bounded by (r-l)^2 / (4 n (k-1)^2) regardless of how
    concentrated the batch is.
    """
    return _engine_output("independent", batch, k, key)
