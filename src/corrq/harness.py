"""Monte-Carlo simulator for distributed mean estimation.

Every scheme is one Scheme record in SCHEME_TABLE, run by one engine.
run_dme plays a full round per trial: every client quantizes its value
(or vector), the indices cross the wire, the server decodes and averages;
run_round is the same engine at one trial, the tasks' aggregation round.
The per-trial randomness comes from counter-based sub-seeds, so trials
are independent work units and the reported numbers do not depend on the
internal chunk size. bits_per_client is priced exactly from every
trial's level indices with a table of codeword lengths. For the first
bit_trials trials each client message is also serialized through the
wire format and decoded back; the run asserts the decoded indices match
the simulation exactly and that every payload is as long as priced
(serializing millions of messages would add nothing but time).

Also here: the synthetic dataset generators, including the two-point and
constant-grid families used by the lower-bound floor checks, the closed
forms of the error envelopes and floors, sweeps over sigma_md / k / n
with paired seeds across schemes, and CSV serialization of reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from . import bitcodec as bc
from .randomness import (
    MASK64,
    ContextArrays,
    child_keys,
    build_context_arrays,
    derive_key,
    fnv1a64,
    mix64,
    rotation_signs,
    stream_uniform,
)
from .scalar_quant import ScalarBatch, concentration_stats, uniform_grid_cells
from .vector_quant import (
    VectorBatch,
    client_payloads,
    cq_decode,
    cq_encode,
    next_pow2,
    rotate,
    rotation_scale,
    sign_scale_kernel,
    split_scale_tail,
    unrotate,
    vector_concentration,
)


class Scheme(NamedTuple):
    """What the engine, the wire audit, the tasks and the CLI know of a scheme.

    rule is the quantizer: "correlated" (shared permutations, offsets and
    level grid), "stochastic" (private rounding on the uniform k-level
    grid), "ternary" (private rounding to {-s_i, 0, +s_i}) or "sign"
    (sign bits and the l1 scale). A rotated scheme runs it inside the
    shared randomized Hadamard rotation, on the padded dimension.
    """

    name: str
    rule: str
    rotated: bool = False
    scalar_ok: bool = False     # defined for ScalarBatch inputs
    levels: int | None = None   # fixed wire alphabet; None sends the run's k
    gamma: bool = False         # zig-zag + Elias-gamma indices, else fixed width
    scale_tail: bool = False    # a float64 per-client scale follows the indices
    bounded: bool = False       # has a guaranteed error ceiling (bounds-check)

    def wire_levels(self, k: int) -> int:
        return k if self.levels is None else self.levels

    @property
    def randomness(self) -> str:
        """What one round reads: the whole shared "context" (permutations,
        offsets, level grid and rotation signs), the rotation "signs"
        only, or the counter-based "private" rounding stream (plus the
        signs when rotated)."""
        return {"correlated": "context", "sign": "signs"}.get(self.rule, "private")


SCHEME_TABLE = {
    s.name: s
    for s in (
        Scheme("correlated-1bit", "correlated", scalar_ok=True, levels=2, bounded=True),
        Scheme("correlated-klevel", "correlated", scalar_ok=True, bounded=True),
        Scheme("entropy-cq", "correlated", gamma=True),
        Scheme("hadamard-cq", "correlated", rotated=True),
        Scheme("independent", "stochastic", scalar_ok=True),
        Scheme("independent-rotation", "stochastic", rotated=True),
        Scheme("terngrad", "ternary", levels=3, scale_tail=True),
        Scheme("rotate-sign", "sign", rotated=True, levels=2, scale_tail=True),
    )
}
SCHEMES = tuple(SCHEME_TABLE)


# ---------------------------------------------------------------------------
# Closed-form envelopes and floors
# ---------------------------------------------------------------------------


def one_bit_envelope(sigma_md: float, width: float, n: int) -> float:
    """Guaranteed MSE ceiling for correlated one-bit quantization."""
    return 3.0 * sigma_md * width / n + 12.0 * width**2 / n**2


def k_level_envelope(sigma_md: float, width: float, n: int, k: int) -> float:
    """Guaranteed MSE ceiling for correlated k-level quantization, k >= 3."""
    if k < 3:
        raise ValueError("the k-level envelope needs k >= 3")
    lead = (12.0 / n) * min(sigma_md * width / k, width**2 / k**2)
    return lead + 48.0 * width**2 / (n**2 * k**2)


def one_bit_floor(sigma_md: float, width: float, n: int) -> float:
    """MSE floor every one-bit scheme obeys on the hard two-point family."""
    return sigma_md * width / (64.0 * n)


def k_level_floor(width: float, n: int, k: int) -> float:
    """MSE floor for k-level schemes, averaged over the constant grid."""
    return width**2 / (64.0 * n**2 * k**2)


def vector_envelope(
    sigma_d_md: float, radius: float, n: int, d: int, k: int
) -> float:
    """Coordinate-wise k-level ceiling summed over d coordinates.

    Each coordinate is quantized over [-R, R] (width 2R); the per
    coordinate mean deviations sum to at most sqrt(d) times the vector
    concentration, and min() passes through the sums.
    """
    if k < 3:
        raise ValueError("the vector envelope needs k >= 3")
    lead = (12.0 / n) * min(
        2.0 * math.sqrt(d) * sigma_d_md * radius / k, 4.0 * d * radius**2 / k**2
    )
    return lead + 192.0 * d * radius**2 / (n**2 * k**2)


def hadamard_bias_bound(radius: float, d: int, n: int) -> float:
    """Squared-bias ceiling for the rotated pipeline (clipping is the
    only bias source). d is padded to the transform size."""
    m = next_pow2(d)
    return 18.0 * radius**2 * math.log(m * n) / (m**3 * n**4)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

KINDS = (
    "uniform-mean",
    "sparse-mean",
    "lower-bound-1bit",
    "lower-bound-klevel",
    "constant-grid",
)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic batch family.

    grid_k and upper parameterize the scalar lower-bound families (grid
    resolution and range [0, upper]); sparsity and magnitude only matter
    for sparse-mean.
    """

    kind: str
    n: int
    d: int = 1
    sigma_md: float = 0.01
    sparsity: float = 0.01
    magnitude: float = 1.0
    grid_k: int = 2
    upper: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.n < 1 or self.d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        for name in ("sigma_md", "sparsity", "magnitude", "upper"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def generate(spec: SyntheticSpec, seed: int) -> ScalarBatch | VectorBatch:
    if spec.kind == "uniform-mean":
        return gen_uniform_mean(spec.n, spec.d, spec.sigma_md, seed)
    if spec.kind == "sparse-mean":
        return gen_sparse_mean(
            spec.n, spec.d, spec.sigma_md, spec.sparsity, seed, spec.magnitude
        )
    if spec.kind == "lower-bound-1bit":
        return gen_lower_bound_1bit(spec.n, spec.upper, spec.sigma_md, seed)
    if spec.kind == "lower-bound-klevel":
        return gen_lower_bound_klevel(
            spec.n, spec.upper, spec.grid_k, spec.sigma_md, "mixture", seed
        )
    return gen_lower_bound_klevel(
        spec.n, spec.upper, spec.grid_k, spec.sigma_md, "constant", seed
    )


def gen_uniform_mean(n: int, d: int, sigma_md: float, seed: int) -> VectorBatch:
    """Shared mean mu ~ U[0,1] per coordinate plus i.i.d. client noise
    uniform on [-4*sigma_md, 4*sigma_md].

    The realized per-coordinate mean absolute deviation concentrates near
    2*sigma_md (that is the MAD of the noise distribution); reports carry
    the realized concentration, never the nominal target.
    """
    if sigma_md < 0:
        raise ValueError("sigma_md must be nonnegative")
    rng = np.random.default_rng(derive_key(seed, "uniform-mean"))
    mu = rng.random(d)
    noise = rng.uniform(-4.0 * sigma_md, 4.0 * sigma_md, size=(n, d))
    return VectorBatch.from_vectors(mu + noise)


def gen_sparse_mean(
    n: int,
    d: int,
    sigma_md: float,
    sparsity: float = 0.01,
    seed: int = 0,
    magnitude: float = 1.0,
) -> VectorBatch:
    """Like gen_uniform_mean but mu is zero except on a random fraction
    of coordinates, which sit at a fixed magnitude."""
    if sigma_md < 0:
        raise ValueError("sigma_md must be nonnegative")
    if not 0 < sparsity <= 1:
        raise ValueError("sparsity must be in (0, 1]")
    rng = np.random.default_rng(derive_key(seed, "sparse-mean"))
    nnz = max(1, int(round(sparsity * d)))
    mu = np.zeros(d)
    mu[rng.choice(d, size=nnz, replace=False)] = magnitude
    noise = rng.uniform(-4.0 * sigma_md, 4.0 * sigma_md, size=(n, d))
    return VectorBatch.from_vectors(mu + noise)


def gen_lower_bound_1bit(
    n: int, r: float, sigma_md: float, seed: int
) -> ScalarBatch:
    """Hard instance for one-bit quantizers on [0, r].

    i.i.d. draws put mass sigma_md/(2r) at each endpoint and the rest at
    r/2; the batch is resampled until fewer than 4*n*sigma_md/r points
    sit at the endpoints, which caps the batch mean absolute deviation at
    4*sigma_md.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if not 0 <= sigma_md < r / 2:
        raise ValueError(f"need 0 <= sigma_md < r/2, got {sigma_md}")
    if sigma_md == 0:
        return ScalarBatch(np.full(n, r / 2), 0.0, r)
    rng = np.random.default_rng(derive_key(seed, "lower-bound-1bit"))
    edge = sigma_md / (2.0 * r)
    levels = np.array([0.0, r / 2.0, r])
    probs = np.array([edge, 1.0 - 2.0 * edge, edge])
    cap = 4.0 * n * sigma_md / r
    for _ in range(10_000):
        picks = rng.choice(3, size=n, p=probs)
        if np.count_nonzero(picks != 1) < cap:
            return ScalarBatch(levels[picks], 0.0, r)
    raise RuntimeError("rejection sampling failed to terminate")


def gen_lower_bound_klevel(
    n: int,
    r: float,
    k: int,
    sigma_md: float,
    variant: str = "mixture",
    seed: int = 0,
) -> ScalarBatch:
    """Hard instances for k-level quantizers on [0, r].

    mixture: pick one of 2k two-point distributions supported on adjacent
    multiples of r/(2k), with mass k*sigma_md/r on the lower point.
    constant: pick one of 2nk constant batches on the r/(2nk) grid.
    """
    if r <= 0 or k < 2:
        raise ValueError("need r > 0 and k >= 2")
    if not 0 <= sigma_md < r / (2 * k):
        raise ValueError(f"need 0 <= sigma_md < r/(2k), got {sigma_md}")
    if variant not in ("mixture", "constant"):
        raise ValueError(f"unknown variant {variant!r}")
    rng = np.random.default_rng(derive_key(seed, "lower-bound-klevel", variant))
    if variant == "constant":
        j = int(rng.integers(1, 2 * n * k + 1))
        return ScalarBatch(np.full(n, (j - 1) * r / (2 * n * k)), 0.0, r)
    j = int(rng.integers(1, 2 * k + 1))
    low = (j - 1) * r / (2 * k)
    high = j * r / (2 * k)
    q = k * sigma_md / r
    values = np.where(rng.random(n) < q, low, high)
    return ScalarBatch(values, 0.0, r)


def constant_grid_batches(n: int, r: float, k: int) -> list[ScalarBatch]:
    """All 2nk constant batches on the r/(2nk) grid (the floor averages
    over this whole family, not per batch)."""
    return [
        ScalarBatch(np.full(n, j * r / (2 * n * k)), 0.0, r)
        for j in range(2 * n * k)
    ]


def gen_scalar_uniform_mean(
    n: int, sigma_md: float, seed: int, lower: float = 0.0, upper: float = 1.0
) -> ScalarBatch:
    """Scalar analogue of gen_uniform_mean, kept inside [lower, upper].

    The shared mean stays 4*sigma_md away from both ends so the noise
    never needs clipping; requires 8*sigma_md <= upper - lower.
    """
    width = upper - lower
    if not 0 <= 8.0 * sigma_md <= width:
        raise ValueError("need 8*sigma_md <= upper - lower")
    rng = np.random.default_rng(derive_key(seed, "scalar-uniform-mean"))
    mu = rng.uniform(lower + 4.0 * sigma_md, upper - 4.0 * sigma_md)
    values = mu + rng.uniform(-4.0 * sigma_md, 4.0 * sigma_md, size=n)
    return ScalarBatch(values, lower, upper)


# ---------------------------------------------------------------------------
# Trial reports
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "scheme",
    "n",
    "d",
    "k",
    "sigma_md",
    "trials",
    "mse",
    "rmse",
    "bias_sq",
    "bits_per_client",
    "stderr",
)


@dataclass(frozen=True)
class TrialReport:
    """Monte-Carlo summary of one (batch, scheme) run.

    sigma_md is the realized concentration of the batch (scalar MAD or
    its vector analogue). mean_variance and clip_fraction are carried for
    diagnostics and invariants; the CSV serialization is exactly the
    CSV_COLUMNS fields in that order.
    """

    scheme: str
    n: int
    d: int
    k: int
    sigma_md: float
    trials: int
    mse: float
    rmse: float
    bias_sq: float
    bits_per_client: float
    stderr: float
    mean_variance: float
    clip_fraction: float

    def csv_row(self) -> str:
        cells = []
        for name in CSV_COLUMNS:
            value = getattr(self, name)
            cells.append(repr(value) if isinstance(value, float) else str(value))
        return ",".join(cells)


def reports_to_csv(reports: Sequence[TrialReport]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(report.csv_row() for report in reports)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The trial engine
# ---------------------------------------------------------------------------


class _Prepared(NamedTuple):
    """Per-run constants hoisted out of the trial loop."""

    scheme: Scheme
    n: int
    d: int          # data dimension (1 for scalar batches)
    dp: int         # payload dimension (padded for rotated schemes)
    k: int          # levels on the wire
    lower: float    # unrotated values decode to lower + width * value
    width: float
    y_dn: np.ndarray | None = None       # normalized data, (d, n)
    grid: tuple | None = None            # uniform-grid (cells, frac) of y_dn
    x_pad: np.ndarray | None = None      # zero-padded vectors, (n, dp)
    scale: float = 0.0                   # rotation scale factor
    tern_prob: np.ndarray | None = None  # (d, n)
    tern_sign: np.ndarray | None = None  # (d, n)
    tern_scales: np.ndarray | None = None  # (n,)

    def estimates(self, values: np.ndarray, signs=None) -> np.ndarray:
        """The server's mean (C, d) of each trial's decoded values; the
        rotated schemes un-rotate the clients' mean with the signs, not
        every client (the decoders are linear)."""
        if self.scheme.rotated:
            return unrotate(values.mean(axis=1), signs, self.d)
        return self.lower + self.width * values.mean(axis=-1)

    def per_client(self, values: np.ndarray, signs=None) -> np.ndarray:
        """The first trial's decoded client vectors, a C-contiguous (n, d)
        array (a mean over a transposed view would sum in another order)."""
        if self.scheme.rotated:
            return np.ascontiguousarray(unrotate(values[0], signs[0], self.d))
        return np.ascontiguousarray((self.lower + self.width * values[0]).T)


def _prepare(batch, scheme: str, k: int) -> _Prepared:
    spec = SCHEME_TABLE[scheme]
    if k < 2:
        raise ValueError("need k >= 2")
    k = spec.wire_levels(k)
    if isinstance(batch, ScalarBatch):
        n, d = batch.n, 1
        lower, width = batch.lower, batch.width
        values_nd = batch.values[:, None]
    else:
        n, d = batch.n, batch.d
        lower, width = -batch.radius, 2.0 * batch.radius
        values_nd = batch.vectors
    m = next_pow2(d) if spec.rotated else d
    for name, value in (("n", n), ("d", m), ("k", k)):  # checked before any trial
        if value >= bc.HEADER_LIMITS[name]:
            raise ValueError(f"{name}={value} does not fit the wire header")

    if spec.rotated:
        x_pad = np.zeros((n, m))
        x_pad[:, :d] = values_nd
        scale = rotation_scale(batch.radius, m, n) if spec.rule != "sign" else 0.0
        return _Prepared(spec, n, d, m, k, lower, width, x_pad=x_pad, scale=scale)
    if spec.rule == "ternary":
        # ternary values decode straight to data units: lower 0, width 1
        x_dn = values_nd.T
        scales = np.abs(x_dn).max(axis=0)
        safe = np.where(scales > 0, scales, 1.0)
        return _Prepared(
            spec, n, d, d, k, 0.0, 1.0,
            tern_prob=np.abs(x_dn) / safe, tern_sign=np.sign(x_dn),
            tern_scales=scales,
        )
    y_dn = ((values_nd - lower) / width).T
    grid = uniform_grid_cells(y_dn * (k - 1), k) if spec.rule == "stochastic" else None
    return _Prepared(spec, n, d, d, k, lower, width, y_dn=y_dn, grid=grid)


def _private_uniforms(seeds: np.ndarray, d: int, n: int) -> np.ndarray:
    """U[0,1) stream for per-client private rounding, shape (C, d, n)."""
    root = mix64(np.asarray(seeds, dtype=np.uint64))
    key = mix64(root ^ np.uint64(fnv1a64("private")))
    coord_keys = child_keys(key[..., None], np.arange(d, dtype=np.uint64))
    return stream_uniform(coord_keys[..., None], np.arange(n, dtype=np.uint64))


def _quantize(prep: _Prepared, seeds: np.ndarray, ctx, y, grid=None):
    """Wire indices and normalized decoded values for y in [0, 1] on the
    (..., dp, n) layout; grid is y's uniform-grid split when precomputed."""
    if prep.scheme.rule == "correlated":
        idx = cq_encode(
            y, ctx.permutations, ctx.offset_units, ctx.grid_offsets, prep.k
        )
        return idx, cq_decode(idx, ctx.grid_offsets, prep.k)
    cells, frac = grid if grid is not None else uniform_grid_cells(
        y * (prep.k - 1), prep.k
    )
    idx = cells + (_private_uniforms(seeds, prep.dp, prep.n) < frac)
    return idx, idx / (prep.k - 1)


def _evaluate_chunk(
    prep: _Prepared, seeds: np.ndarray, ctx: ContextArrays | None = None
):
    """One trial per seed, building only the randomness the scheme reads
    (ctx, when given, is the trials' shared randomness, read in place of
    the seeds' own); returns (values, indices, scales, clips, signs).

    values are the decoded client values: in data units on the (C, d, n)
    layout for the unrotated schemes; on the (C, n, dp) layout in the
    rotated domain for the rotated ones, which the signs (C, dp) un-rotate
    (see _Prepared.estimates; signs is None otherwise). indices (C, dp, n)
    are sent on the wire, scales (C, n) ride in the scale tail, and clips
    counts the coordinates clipped into [-1, 1].
    """
    spec = prep.scheme
    if ctx is None and spec.randomness == "context":
        ctx = build_context_arrays(seeds, prep.n, prep.dp, prep.k)
    if spec.rule == "ternary":
        priv = _private_uniforms(seeds, prep.d, prep.n)
        trits = np.where(priv < prep.tern_prob, prep.tern_sign, 0.0)
        scales = np.broadcast_to(prep.tern_scales, (len(seeds), prep.n))
        return trits * prep.tern_scales, trits.astype(np.int64) + 1, scales, 0, None
    if not spec.rotated:
        idx, vals = _quantize(prep, seeds, ctx, prep.y_dn, prep.grid)
        return vals, idx, None, 0, None

    # the rotated family: shared signs, rotate, quantize; the server
    # un-rotates (_Prepared.estimates)
    signs = ctx.rotation_signs if ctx is not None else rotation_signs(seeds, prep.dp)
    rotated = rotate(prep.x_pad, signs[:, None, :])
    if spec.rule == "sign":
        bits, scales = sign_scale_kernel(rotated)
        values = scales[..., None] * (2.0 * bits - 1.0)
        return values, bits.transpose(0, 2, 1), scales, 0, signs
    scaled = rotated * prep.scale
    clips = int(np.count_nonzero(np.abs(scaled) > 1.0))
    y = ((np.clip(scaled, -1.0, 1.0) + 1.0) / 2.0).transpose(0, 2, 1)
    idx, vals = _quantize(prep, seeds, ctx, y)
    z = (-1.0 + 2.0 * vals).transpose(0, 2, 1) / prep.scale
    return z, idx, None, clips, signs


def _decode_payloads(spec: Scheme, payloads: list[bc.BitStream], k: int):
    """Indices (n, dp) and scales (n,) or None of one trial's payloads."""
    if spec.gamma:
        rows = [
            bc.zigzag_decode(np.asarray(bc.elias_gamma_decode(p), dtype=np.int64), k)
            for p in payloads
        ]
        if len({len(row) for row in rows}) != 1:
            raise RuntimeError(f"wire decode disagrees with engine for {spec.name}")
        return np.stack(rows), None
    scales = None
    if spec.scale_tail:
        split = [split_scale_tail(p) for p in payloads]
        payloads = [body for body, _ in split]
        scales = np.array([scale for _, scale in split])
    return bc.unpack_fixed_rows(payloads, k), scales


def _code_lengths(prep: _Prepared) -> np.ndarray:
    """Payload bits of each level index: the fixed width, or for the
    gamma-coded schemes the 2 floor(log2 v) + 1 bits of its zig-zag
    value v."""
    if not prep.scheme.gamma:
        return np.full(prep.k, bc.fixed_width(prep.k), dtype=np.int64)
    _, bit_length = np.frexp(bc.zigzag_encode(np.arange(prep.k), prep.k))
    return 2 * bit_length.astype(np.int64) - 1


def _audit_wire(
    prep: _Prepared,
    audit: list[tuple[int, np.ndarray, np.ndarray | None]],
    lengths: np.ndarray,
) -> None:
    """Serialize the audited trials for real; assert the wire round trip
    reproduces the engine's indices (and scales) exactly, and that every
    payload is as long as run_dme prices it from the level indices."""
    scheme = prep.scheme.name
    tail = 64 if prep.scheme.scale_tail else 0
    for trial_seed, idx, scales in audit:
        received = []
        payloads = client_payloads(idx.T, prep.k, prep.scheme.gamma, scales)
        for payload, want in zip(payloads, lengths[idx].sum(axis=0) + tail):
            if payload.length != want:
                raise RuntimeError(f"a {scheme} payload differs from its price")
            msg = bc.WireMessage(
                scheme=scheme, n=prep.n, d=prep.dp, k=prep.k,
                seed=trial_seed, payload=payload,
            )
            back = bc.message_decode(bc.message_encode(msg))
            if back != msg:
                raise RuntimeError(f"wire round trip altered a {scheme} message")
            received.append(back.payload)
        got_idx, got_scales = _decode_payloads(prep.scheme, received, prep.k)
        if not np.array_equal(got_idx, idx.T):
            raise RuntimeError(f"wire decode disagrees with engine for {scheme}")
        if scales is not None and not np.array_equal(got_scales, scales):
            raise RuntimeError(f"wire scale round trip failed for {scheme}")


class Round(NamedTuple):
    """One trial of the engine, as the server receives it."""

    per_client: np.ndarray          # decoded client values (n, d)
    indices: np.ndarray             # transmitted level indices (n, dp)
    payloads: list[bc.BitStream]
    bits: np.ndarray                # wire header plus payload bits (n,)
    scales: np.ndarray | None       # the scale tail's values (n,)
    clips: int


def run_round(
    batch: ScalarBatch | VectorBatch, scheme: str, k: int, key: int,
    ctx: ContextArrays | None = None,
) -> Round:
    """The engine at one trial keyed `key` (reduced mod 2**64), with
    every client's payload as the wire audit serializes it. ctx, one
    trial of ContextArrays (leading axis 1), replaces the shared
    randomness the key would build; the reference ops pass a
    RandomnessContext this way."""
    prep = _prepare(batch, scheme, k)
    values, idx, scales, clips, signs = _evaluate_chunk(
        prep, np.array([int(key) & MASK64], dtype=np.uint64), ctx
    )
    scales = None if scales is None else scales[0]
    indices = idx[0].T
    payloads = client_payloads(indices, prep.k, prep.scheme.gamma, scales)
    bits = np.array([bc.HEADER_BITS + p.length for p in payloads], dtype=np.int64)
    return Round(prep.per_client(values, signs), indices, payloads, bits, scales, clips)


def run_dme(
    data,
    scheme: str,
    trials: int,
    seed: int,
    *,
    k: int = 2,
    bit_trials: int = 2,
    chunk_elements: int = 1 << 21,
) -> TrialReport:
    """Estimate the mean of one batch `trials` times and report the MSE.

    data is a ScalarBatch, a VectorBatch, or a SyntheticSpec (generated
    with a sub-seed of `seed`). Identical arguments give byte-identical
    reports; chunk_elements trades memory for speed without changing any
    reported value.
    """
    if scheme not in SCHEME_TABLE:
        raise ValueError(f"unknown scheme {scheme!r}")
    if trials < 1 or bit_trials < 1:
        raise ValueError("need trials >= 1 and bit_trials >= 1")
    if isinstance(data, SyntheticSpec):
        batch = generate(data, derive_key(seed, "data"))
    else:
        batch = data
    if isinstance(batch, ScalarBatch):
        if not SCHEME_TABLE[scheme].scalar_ok:
            raise ValueError(f"{scheme} does not apply to scalar batches")
        realized_sigma = concentration_stats(batch).sigma_md
        true_mean = np.array([batch.mean()])
    else:
        realized_sigma = vector_concentration(batch)
        true_mean = batch.mean()
    if scheme == "correlated-1bit" and k != 2:
        raise ValueError("correlated-1bit fixes k = 2")
    prep = _prepare(batch, scheme, k)

    audit_n = min(bit_trials, trials)
    lengths = _code_lengths(prep)
    code_bits = 0  # payload bits of every trial, scale tails aside
    per_trial = prep.n * prep.dp
    chunk_trials = max(1, chunk_elements // per_trial)
    base_key = np.uint64(derive_key(seed, "trial"))

    sq_parts: list[np.ndarray] = []
    est_parts: list[np.ndarray] = []
    audit: list[tuple[int, np.ndarray, np.ndarray | None]] = []
    clip_total = 0
    for lo in range(0, trials, chunk_trials):
        hi = min(lo + chunk_trials, trials)
        seeds = child_keys(base_key, np.arange(lo, hi, dtype=np.uint64))
        values, idx, scales, clips, signs = _evaluate_chunk(prep, seeds)
        est = prep.estimates(values, signs)
        clip_total += clips
        if prep.scheme.gamma:
            code_bits += int(np.bincount(idx.ravel(), minlength=prep.k) @ lengths)
        else:
            code_bits += idx.size * int(lengths[0])
        err = est - true_mean
        sq_parts.append((err * err).sum(axis=-1))
        est_parts.append(est)
        for j in range(min(audit_n - lo, hi - lo)):
            audit.append(
                (
                    int(seeds[j]),
                    np.array(idx[j]),
                    None if scales is None else np.array(scales[j], dtype=float),
                )
            )

    sq = np.concatenate(sq_parts)
    est_all = np.concatenate(est_parts, axis=0)
    mse = float(sq.mean())
    second = float((sq * sq).mean())
    stderr = math.sqrt(max(second - mse * mse, 0.0) / trials)
    mean_est = est_all.mean(axis=0)
    bias = mean_est - true_mean
    bias_sq = float((bias * bias).sum())
    dev = est_all - mean_est
    mean_variance = float((dev * dev).sum() / trials)
    _audit_wire(prep, audit, lengths)
    messages = trials * prep.n
    tail = 64 if prep.scheme.scale_tail else 0
    bits = (messages * (bc.HEADER_BITS + tail) + code_bits) / messages
    return TrialReport(
        scheme=scheme,
        n=prep.n,
        d=prep.d,
        k=prep.k,
        sigma_md=realized_sigma,
        trials=trials,
        mse=mse,
        rmse=math.sqrt(mse),
        bias_sq=bias_sq,
        bits_per_client=bits,
        stderr=stderr,
        mean_variance=mean_variance,
        clip_fraction=clip_total / (trials * prep.n * prep.dp),
    )


AXES = ("sigma_md", "k", "n")


def sweep(
    axis: str,
    grid: Sequence,
    base: SyntheticSpec,
    schemes: Sequence[str],
    trials: int,
    seed: int,
    *,
    k: int = 2,
    bit_trials: int = 2,
) -> list[TrialReport]:
    """run_dme at every grid point for every scheme, with paired seeds.

    All schemes at a grid point share the point's sub-seed, hence the
    same generated batch and the same per-trial randomness streams, which
    sharpens ordering comparisons. Reports come back grid-major.
    """
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    if len(grid) == 0:
        raise ValueError("empty grid")
    if len(schemes) == 0:
        raise ValueError("no schemes given")
    reports = []
    for gi, value in enumerate(grid):
        point_seed = derive_key(seed, "grid-point", gi)
        spec = base
        point_k = k
        if axis == "sigma_md":
            spec = replace(base, sigma_md=float(value))
        elif axis == "n":
            spec = replace(base, n=int(value))
        else:
            point_k = int(value)
        batch = generate(spec, derive_key(point_seed, "data"))
        for scheme in schemes:
            reports.append(
                run_dme(
                    batch, scheme, trials, point_seed,
                    k=2 if scheme == "correlated-1bit" else point_k,
                    bit_trials=bit_trials,
                )
            )
    return reports
