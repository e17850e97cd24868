"""Monte-Carlo simulator for distributed mean estimation.

Every scheme is one Scheme record in SCHEME_TABLE, run by one engine.
run_dme plays a full round per trial: every client quantizes its value
(or vector), the indices cross the wire, the server decodes and averages;
run_round is the same engine at one trial, the tasks' aggregation round.
The per-trial randomness comes from counter-based sub-seeds, so trials
are independent work units and the reported numbers do not depend on the
internal chunk size. Every message of every trial is priced exactly by
its Scheme's message_bits. For the first bit_trials trials the messages
are also built (Scheme.payloads), sent through the wire format as one
frame per trial and read back (Scheme.decode); the run asserts the
headers and decoded indices match the simulation exactly and that every
payload is as long as priced (serializing millions of messages would add
nothing but time).

Also here: the synthetic dataset generators, including the two-point and
constant-grid families used by the lower-bound floor checks, the closed
forms of the error envelopes and floors, sweeps over sigma_md / k / n
with paired seeds across schemes, and CSV serialization of reports.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from . import bitcodec as bc
from .randomness import (
    MASK64,
    build_context_arrays,
    derive_key,
    private_uniforms,
    rotation_signs,
    trial_seeds,
)
from .scalar_quant import ScalarBatch, concentration_stats, uniform_grid_cells
from .vector_quant import (
    VectorBatch,
    cq_decode,
    cq_encode,
    next_pow2,
    rotate,
    rotation_scale,
    scale_tail_bits,
    sign_scale_kernel,
    tail_scales,
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
    message_bits, payloads and decode define its client message.
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

    def message_bits(self, indices: np.ndarray, k: int) -> np.ndarray:
        """Each message's exact size (..., n), wire header and scale tail
        included, from level indices on the engine's (..., dp, n) layout;
        a gamma codeword of zig-zag value v has 2 floor(log2 v) + 1 bits.
        Fixed-width sizes are one constant, a read-only broadcast."""
        k = self.wire_levels(k)
        shape = indices.shape[:-2] + indices.shape[-1:]
        fixed = bc.HEADER_BITS + (64 if self.scale_tail else 0)
        if not self.gamma:
            per_message = fixed + indices.shape[-2] * bc.fixed_width(k)
            return np.broadcast_to(np.int64(per_message), shape)
        _, bit_length = np.frexp(bc.zigzag_encode(np.arange(k), k))
        lengths = (2 * bit_length - 1).astype(np.uint8)  # at most 33 bits
        return fixed + lengths[indices].sum(axis=-2, dtype=np.int64)

    def payloads(self, indices_nd, k: int, scales, bits) -> bc.BitRows:
        """One payload per row of indices_nd (n, dp): the indices at
        ceil(log2 k) bits each, then the float64 scale tail if the scheme
        has one, or the zig-zag plus Elias gamma codewords of the indices
        (no gamma scheme has a tail). Raises RuntimeError unless every
        message is as long as bits (n,), its price, says."""
        k = self.wire_levels(k)
        if self.gamma:
            n, dp = indices_nd.shape
            out = bc.elias_gamma_encode_rows(
                bc.zigzag_encode(indices_nd, k).ravel(), np.full(n, dp)
            )
        else:
            body = bc.fixed_width_bits(indices_nd, k)
            if self.scale_tail:
                body = np.concatenate([body, scale_tail_bits(scales)], axis=1)
            out = bc.BitRows.from_bits(body)
        if not np.array_equal(bc.HEADER_BITS + out.lengths, bits):
            raise RuntimeError(f"a {self.name} payload differs from its price")
        return out

    def decode(self, payloads: bc.BitRows, k: int, dp: int):
        """Indices (n, dp) and scales (n,) or None of one trial's payloads,
        which must hold dp indices each: a gamma row with another number
        of codewords raises MalformedStreamError, a fixed-width row of
        another length LengthMismatchError."""
        k, n = self.wire_levels(k), len(payloads)
        if self.gamma:
            values = bc.elias_gamma_decode_rows(payloads, np.full(n, dp))
            return bc.zigzag_decode(values, k).reshape(n, dp), None
        bits, scales = payloads.bit_matrix(), None
        if self.scale_tail:
            if bits.shape[1] < 64:
                raise bc.MalformedStreamError("payload too short for scale tail", 0)
            bits, scales = bits[:, :-64], tail_scales(bits[:, -64:])
        indices = bc.fixed_width_indices(bits, k)
        if indices.shape[1] != dp:
            raise bc.LengthMismatchError(
                f"{indices.shape[1]} indices per payload, expected {dp}"
            )
        return indices, scales


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
    spec = SCHEME_TABLE.get(scheme)
    if spec is None:
        raise ValueError(f"unknown scheme {scheme!r}")
    if isinstance(batch, ScalarBatch) and not spec.scalar_ok:
        raise ValueError(f"{scheme} does not apply to scalar batches")
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
        x_dn = np.ascontiguousarray(values_nd.T)
        scales = np.abs(x_dn).max(axis=0)
        safe = np.where(scales > 0, scales, 1.0)
        return _Prepared(
            spec, n, d, d, k, 0.0, 1.0,
            tern_prob=np.abs(x_dn) / safe, tern_sign=np.sign(x_dn),
            tern_scales=scales,
        )
    y_dn = np.subtract(values_nd.T, lower, out=np.empty((d, n)))  # C-contiguous
    y_dn /= width
    grid = uniform_grid_cells(y_dn * (k - 1), k) if spec.rule == "stochastic" else None
    return _Prepared(spec, n, d, d, k, lower, width, y_dn=y_dn, grid=grid)


_WORKSPACE = threading.local()  # the engine's per-thread buffers (_buffer)


def _buffer(i: int, shape: tuple, dtype=np.float64) -> np.ndarray:
    """This thread's buffer i as a C-contiguous array of shape and 8-byte
    dtype. Every chunk of every call reuses it, so no call faults memory in;
    it grows to the largest chunk, and one above CHUNK_ELEMENTS is fresh."""
    size = math.prod(shape)
    if size > CHUNK_ELEMENTS:
        return np.empty(shape, dtype)
    buffers = _WORKSPACE.__dict__.setdefault("buffers", [np.empty(0, np.uint64)] * 3)
    if buffers[i].size < size:
        buffers[i] = np.empty(size, np.uint64)
    return buffers[i][:size].view(dtype).reshape(shape)


def _evaluate_chunk(prep: _Prepared, seeds: np.ndarray):
    """One trial per seed, building only the randomness the scheme reads;
    returns (values, indices, scales, clips, signs).

    values are the decoded client values: in data units on the (C, d, n)
    layout for the unrotated schemes; on the (C, n, dp) layout in the
    rotated domain for the rotated ones, which the signs (C, dp) un-rotate
    (see _Prepared.estimates; signs is None otherwise). indices (C, dp, n)
    are sent on the wire, scales (C, n) ride in the scale tail, and clips
    counts the coordinates clipped into [-1, 1].

    Every chunk-sized array is one of the thread's three workspace
    buffers; each stage writes over dead contents (the permutations become
    the indices, the offsets the values), so results last until its next chunk.
    """
    spec, n, dp, k, buf = prep.scheme, prep.n, prep.dp, prep.k, _buffer
    shape = (len(seeds), dp, n)
    signs, clips, y = None, 0, prep.y_dn
    if spec.rule == "ternary":
        trits = private_uniforms(seeds, dp, n, out=buf(0, shape))
        np.multiply(np.less(trits, prep.tern_prob, out=trits), prep.tern_sign, out=trits)
        trits += 0.0  # np.where's +0.0 where a sign times 0.0 is -0.0
        idx = np.add(trits, 1, out=buf(1, shape, np.int64), casting="unsafe")
        trits *= prep.tern_scales
        return trits, idx, np.broadcast_to(prep.tern_scales, (len(seeds), n)), 0, None
    if spec.rotated:
        # the rotated family: shared signs, rotate, quantize; the server
        # un-rotates (_Prepared.estimates)
        signs = rotation_signs(seeds, dp)
        rot = (len(seeds), n, dp)
        y = rotate(prep.x_pad, signs[:, None, :], out=(buf(2, rot), buf(1, rot)))
        if spec.rule == "sign":
            bits, scales = sign_scale_kernel(y, out=(buf(0, rot, np.int64), buf(1, rot)))
            np.subtract(np.multiply(bits, 2.0, out=y), 1.0, out=y)
            y *= scales[..., None]
            return y, bits.transpose(0, 2, 1), scales, 0, signs
        y *= prep.scale
        clips = int(np.count_nonzero(np.abs(y, out=buf(1, rot)) > 1.0))
        y = np.add(np.clip(y, -1.0, 1.0, out=y), 1.0, out=y)
        y = np.divide(y, 2.0, out=y).transpose(0, 2, 1)
    if spec.rule == "correlated":
        ctx = build_context_arrays(seeds, n, dp, k, grid=k > 2, signs=False,
                                   out=(buf(0, shape, np.uint64), buf(1, shape, np.uint64)))
        work = y if spec.rotated else buf(2, y.shape if k == 2 else shape)
        idx = cq_encode(y, ctx.permutations, ctx.offset_units, ctx.grid_offsets, k,
                        out=(ctx.permutations, ctx.offset_units, work))
        vals = cq_decode(idx, ctx.grid_offsets, k, out=ctx.offset_units)
    else:
        cells, frac = prep.grid if not spec.rotated else uniform_grid_cells(
            np.multiply(y, k - 1, out=y), k, out=(buf(1, shape, np.int64), y)
        )
        priv = private_uniforms(seeds, dp, n, out=buf(0, shape))
        bits = np.less(priv, frac, out=priv)
        idx = np.add(cells, bits, out=buf(1, shape, np.int64), casting="unsafe")
        vals = np.divide(idx, k - 1, out=priv)
    if not spec.rotated:
        return vals, idx, None, 0, None
    np.subtract(np.multiply(vals, 2.0, out=vals), 1.0, out=vals)
    vals /= prep.scale
    return vals.transpose(0, 2, 1), idx, None, clips, signs


def _audit_wire(
    prep: _Prepared, seed: int, idx: np.ndarray, scales, bits: np.ndarray
) -> None:
    """Send one trial's messages (indices idx (dp, n), scales, prices bits)
    through the wire format as one frame and parse them back; assert every
    header and the decoded indices (and scales) arrive exactly as sent."""
    spec, indices = prep.scheme, idx.T
    sent = spec.payloads(indices, prep.k, scales, bits)
    head, received = bc.frame_decode(
        bc.frame_encode(spec.name, prep.n, prep.dp, prep.k, seed, sent), prep.n
    )
    fields = {"scheme": bc.SCHEME_BYTES[spec.name], "n": prep.n, "d": prep.dp,
              "k": prep.k, "seed": seed}
    if not np.array_equal(received.lengths, sent.lengths) or any(
        (head[name] != value).any() for name, value in fields.items()
    ):
        raise RuntimeError(f"wire round trip altered a {spec.name} message")
    got_idx, got_scales = spec.decode(received, prep.k, prep.dp)
    if not np.array_equal(got_idx, indices):
        raise RuntimeError(f"wire decode disagrees with engine for {spec.name}")
    if scales is not None and not np.array_equal(got_scales, scales):
        raise RuntimeError(f"wire scale round trip failed for {spec.name}")


class Round(NamedTuple):
    """One trial of the engine, as the server receives it."""

    per_client: np.ndarray          # decoded client values (n, d)
    indices: np.ndarray             # transmitted level indices (n, dp)
    bits: np.ndarray                # wire header plus payload bits (n,)
    scales: np.ndarray | None       # the scale tail's values (n,)
    clips: int
    estimate: np.ndarray            # the server's mean (d,), as run_dme's


def run_round(
    batch: ScalarBatch | VectorBatch, scheme: str, k: int, key: int
) -> Round:
    """One quantized round, the engine at one trial keyed `key` (reduced
    mod 2**64): the shared randomness is build_context(key, n, padded d,
    k) and private rounding comes from the same key. The estimate is the
    server mean of run_dme at one trial of that key, bit for bit, and each
    client's bits are its message's price, Scheme.message_bits."""
    prep = _prepare(batch, scheme, k)
    values, idx, scales, clips, signs = _evaluate_chunk(
        prep, np.array([int(key) & MASK64], dtype=np.uint64)
    )
    bits = np.array(prep.scheme.message_bits(idx, prep.k)[0])
    scales = None if scales is None else scales[0]
    return Round(prep.per_client(values, signs), idx[0].T.copy(), bits, scales, clips,
                 prep.estimates(values, signs)[0])


# Trial elements (trials x clients x coordinates) one engine call holds,
# at least one trial: 1 MB per float64 or uint64 working array, so a chunk
# stays near a core's L2 cache. The engine is bound by memory traffic, and
# no reported value depends on the chunking (counter-based streams).
CHUNK_ELEMENTS = 1 << 17


def run_dme(
    data,
    scheme: str,
    trials: int,
    seed: int,
    *,
    k: int = 2,
    bit_trials: int = 2,
) -> TrialReport:
    """Estimate the mean of one batch `trials` times and report the MSE.

    data is a ScalarBatch, a VectorBatch, or a SyntheticSpec (generated
    with a sub-seed of `seed`). Identical arguments give byte-identical
    reports.
    """
    if trials < 1 or bit_trials < 1:
        raise ValueError("need trials >= 1 and bit_trials >= 1")
    if isinstance(data, SyntheticSpec):
        batch = generate(data, derive_key(seed, "data"))
    else:
        batch = data
    if scheme == "correlated-1bit" and k != 2:
        raise ValueError("correlated-1bit fixes k = 2")
    prep = _prepare(batch, scheme, k)
    if isinstance(batch, ScalarBatch):
        realized_sigma = concentration_stats(batch).sigma_md
        true_mean = np.array([batch.mean()])
    else:
        realized_sigma = vector_concentration(batch)
        true_mean = batch.mean()

    seeds = trial_seeds(seed, trials)
    chunk_trials = max(1, CHUNK_ELEMENTS // (prep.n * prep.dp))
    total_bits = 0
    sq_parts: list[np.ndarray] = []
    est_parts: list[np.ndarray] = []
    clip_total = 0
    for lo in range(0, trials, chunk_trials):
        chunk = seeds[lo : lo + chunk_trials]
        values, idx, scales, clips, signs = _evaluate_chunk(prep, chunk)
        est = prep.estimates(values, signs)
        clip_total += clips
        bits = prep.scheme.message_bits(idx, prep.k)
        total_bits += int(bits.sum())
        for j in range(min(bit_trials - lo, len(chunk))):
            trial_scales = None if scales is None else scales[j]
            _audit_wire(prep, int(chunk[j]), idx[j], trial_scales, bits[j])
        err = est - true_mean
        sq_parts.append((err * err).sum(axis=-1))
        est_parts.append(est)

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
        bits_per_client=total_bits / (trials * prep.n),
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
