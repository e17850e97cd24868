"""Vector quantizers for distributed mean estimation.

n clients each hold a vector of norm at most R and send one quantized
message; the server averages decoded vectors. Three families live here:

* coordinate-wise correlated quantization over [-R, R], with fixed-width
  or variable-length (gamma) index coding;
* the rotated pipeline: a shared randomized Walsh-Hadamard rotation
  spreads energy across coordinates, coordinates are scaled into [-1, 1]
  (clipping the far tail), quantized with the correlated k-level rule,
  and un-rotated server-side;
* baselines: independent stochastic quantization (with or without the
  rotation), ternary quantization with a per-client max scale, and a
  deliberately simplified rotate-then-sign baseline (biased; a stand-in
  for sign-based methods, not a faithful reproduction of any of them).

Quantizer cores are shape-generic over leading batch axes, matching
scalar_quant; the coordinate axis comes before the client axis in kernel
layouts (d, n). The single-round ops at the end are one trial of the
harness engine (harness.run_round), the code run_dme and the tasks run.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import bitcodec as bc
from .randomness import RandomnessContext
from .scalar_quant import correlated_bits, level_cells, level_spacing


@dataclass(frozen=True)
class VectorBatch:
    """One vector per client plus the declared norm bound R."""

    vectors: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        vectors = np.asarray(self.vectors, dtype=np.float64)
        object.__setattr__(self, "vectors", vectors)
        if vectors.ndim != 2 or vectors.size == 0:
            raise ValueError("vectors must be a non-empty (n, d) array")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("vectors must be finite")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive, got {self.radius}")
        norms = np.linalg.norm(vectors, axis=1)
        if norms.max() > self.radius * (1 + 1e-9):
            raise ValueError(
                f"client norm {norms.max():.6g} exceeds radius {self.radius:.6g}"
            )

    @classmethod
    def from_vectors(cls, vectors: np.ndarray) -> "VectorBatch":
        """Batch with the tight radius max_i ||x_i||."""
        vectors = np.asarray(vectors, dtype=np.float64)
        radius = float(np.linalg.norm(vectors, axis=1).max())
        return cls(vectors, radius if radius > 0 else 1.0)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    def mean(self) -> np.ndarray:
        """Coordinate-wise mean, pivot-shifted so identical clients give
        back their common vector exactly (see ScalarBatch.mean)."""
        pivot = self.vectors[0]
        devs = self.vectors - pivot
        return pivot + np.array([math.fsum(col) for col in devs.T]) / self.n


def vector_concentration(batch: VectorBatch) -> float:
    """Mean distance to the batch mean, (1/n) sum ||x_i - xbar||_2."""
    dev = batch.vectors - batch.vectors.mean(axis=0)
    return float(np.linalg.norm(dev, axis=1).mean())


@dataclass(frozen=True)
class VectorQuantReport:
    """Everything one quantized round produces.

    per_client holds the server-side decoding of each client's message
    (estimate is their mean); level_indices are the raw per-coordinate
    indices actually transmitted (padded dimension for rotated schemes);
    payloads are the bit-exact serialized payloads, and bits_per_client is
    the wire header plus each payload's true bit length. scales carries
    per-client side values for the schemes that have them.
    """

    scheme: str
    estimate: np.ndarray
    per_client: np.ndarray
    level_indices: np.ndarray
    payloads: tuple[bc.BitStream, ...]
    bits_per_client: np.ndarray
    clip_events: int
    sigma_d_md: float
    scales: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Randomized Hadamard rotation
# ---------------------------------------------------------------------------


def next_pow2(x: int) -> int:
    if x < 1:
        raise ValueError(f"need a positive dimension, got {x}")
    return 1 << (x - 1).bit_length()


@functools.lru_cache(maxsize=None)
def _hadamard(f: int) -> np.ndarray:
    """The f x f Sylvester-Hadamard matrix (read-only, shared by callers)."""
    h = np.ones((1, 1))
    while h.shape[0] < f:
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


def fwht(x: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis.

    Sylvester (natural) ordering; the last axis length must be a power of
    two. H_m is the Kronecker product of H_f factors of at most 32 rows,
    H_1024 = H_32 (x) H_32, so the transform is one small matmul per
    factor on a reshaped view, O(m log m) work in all.
    """
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[-1]
    if m < 1 or m & (m - 1):
        raise ValueError(f"last axis must be a power of two, got {m}")
    if m == 1:
        return x.copy()
    bits = m.bit_length() - 1
    y = x
    right = m  # length of the axes after the current factor
    for b in [5] * (bits // 5) + ([bits % 5] if bits % 5 else []):
        f = 1 << b
        right //= f
        if right == 1:  # H_f is symmetric, so rows times H_f
            y = y.reshape(-1, f) @ _hadamard(f)
        else:
            y = _hadamard(f) @ y.reshape(-1, f, right)
    return y.reshape(x.shape)


@dataclass(frozen=True)
class RotationSpec:
    """A shared rotation W = (1/sqrt(m)) H D on the padded dimension.

    D is the Rademacher diagonal, H the Sylvester-Hadamard matrix. W is
    orthonormal, so the inverse is W^T: rotate then sign-multiply.
    """

    dim: int
    padded_dim: int
    signs: np.ndarray

    def __post_init__(self) -> None:
        if self.padded_dim != next_pow2(self.dim):
            raise ValueError(
                f"padded_dim {self.padded_dim} != next power of two of {self.dim}"
            )
        if self.signs.shape != (self.padded_dim,):
            raise ValueError("signs must have shape (padded_dim,)")
        if not np.all(np.abs(self.signs) == 1):
            raise ValueError("signs must be +-1")


def rotation_for(ctx: RandomnessContext, dim: int) -> RotationSpec:
    """Rotation drawn by a context built at the padded dimension."""
    m = next_pow2(dim)
    if ctx.d != m:
        raise ValueError(
            f"context carries d={ctx.d}, rotated pipeline for dim {dim} needs {m}"
        )
    return RotationSpec(dim=dim, padded_dim=m, signs=np.asarray(ctx.rotation_signs))


def rotate(x: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """W x = H D x / sqrt(m) along the last axis, x already padded to m."""
    return fwht(signs * x) / math.sqrt(x.shape[-1])


def unrotate(z: np.ndarray, signs: np.ndarray, dim: int) -> np.ndarray:
    """W^T z = D H z / sqrt(m) along the last axis, truncated to dim."""
    return (fwht(z) / math.sqrt(z.shape[-1]) * signs)[..., :dim]


def hadamard_rotate(
    vectors: np.ndarray, spec: RotationSpec, inverse: bool = False
) -> np.ndarray:
    """Apply W (or W^T) along the last axis.

    Forward pads dim -> padded_dim with zeros; inverse truncates back.
    forward(inverse(z)) and inverse(forward(x)) are identities to float
    precision.
    """
    v = np.asarray(vectors, dtype=np.float64)
    m = spec.padded_dim
    if inverse:
        if v.shape[-1] != m:
            raise ValueError(f"inverse rotation expects last axis {m}")
        return unrotate(v, spec.signs, spec.dim)
    if v.shape[-1] != spec.dim:
        raise ValueError(f"forward rotation expects last axis {spec.dim}")
    if spec.dim < m:
        pad = np.zeros(v.shape[:-1] + (m - spec.dim,), dtype=np.float64)
        v = np.concatenate([v, pad], axis=-1)
    return rotate(v, spec.signs)


def rotation_scale(radius: float, padded_dim: int, n: int) -> float:
    """Scale mapping rotated coordinates into [-1, 1] up to a rare tail.

    sqrt(m) / (R sqrt(8 ln(m n))): rotated coordinates of a norm-R vector
    are sub-gaussian with deviation R/sqrt(m), so the scaled coordinate
    exceeds 1 with probability at most 2 (m n)^-4.
    """
    mn = padded_dim * n
    if mn < 2:
        raise ValueError("rotated pipeline needs padded_dim * n >= 2")
    return math.sqrt(padded_dim) / (radius * math.sqrt(8.0 * math.log(mn)))


# ---------------------------------------------------------------------------
# Shape-generic correlated core on the (..., d, n) layout
# ---------------------------------------------------------------------------


def cq_encode(y, permutations, offset_units_dn, grid_offsets, k: int):
    """Level indices for normalized values y in [0, 1], layout (..., d, n).

    k = 2 is the one-bit rule (indices are the bits); k >= 3 uses the
    randomized grid given by grid_offsets (..., d).
    """
    if k == 2:
        return correlated_bits(y, permutations, offset_units_dn).astype(np.int64)
    first = np.asarray(grid_offsets)[..., None]
    cell, frac = level_cells(y, first, k)
    bits = correlated_bits(frac, permutations, offset_units_dn)
    return cell + bits


def cq_decode(indices, grid_offsets, k: int):
    """Normalized values for transmitted indices, layout (..., d, n)."""
    if k == 2:
        return indices.astype(np.float64)
    first = np.asarray(grid_offsets)[..., None]
    return first + indices * level_spacing(k)


# ---------------------------------------------------------------------------
# Payload builders
# ---------------------------------------------------------------------------


def client_payloads(
    indices_nd: np.ndarray, k: int, gamma: bool = False, scales=None
) -> list[bc.BitStream]:
    """Each client's payload, one per row of indices_nd: its indices at
    ceil(log2 k) bits each (or zig-zag plus Elias gamma), then its float64
    scale tail when scales (one per row) are given."""
    if gamma:
        bodies = [
            bc.elias_gamma_encode_many(bc.zigzag_encode(row, k)) for row in indices_nd
        ]
    else:
        bodies = bc.pack_fixed_rows(indices_nd, k)
    if scales is None:
        return bodies
    return [append_scale_tail(body, float(s)) for body, s in zip(bodies, scales)]


def append_scale_tail(stream: bc.BitStream, scale: float) -> bc.BitStream:
    """Append a float64 scale (IEEE-754 bits, most significant byte first)."""
    tail = np.unpackbits(np.frombuffer(struct.pack(">d", scale), dtype=np.uint8))
    bits = np.concatenate([stream.bits(), tail])
    return bc.BitStream(np.packbits(bits).tobytes(), bits.size)


def split_scale_tail(stream: bc.BitStream) -> tuple[bc.BitStream, float]:
    """Inverse of the scale tail: payload minus 64 bits, and the scale."""
    if stream.length < 64:
        raise bc.MalformedStreamError("payload too short for scale tail", 0)
    bits = stream.bits()
    head, tail = bits[:-64], bits[-64:]
    scale = struct.unpack(">d", np.packbits(tail).tobytes())[0]
    return bc.BitStream(np.packbits(head).tobytes(), head.size), scale


# ---------------------------------------------------------------------------
# Reference single-round ops: one trial of the harness engine
# ---------------------------------------------------------------------------


def _check_vector_ctx(
    batch: VectorBatch, ctx: RandomnessContext, d: int, k: int | None = None
) -> None:
    if batch.n != ctx.n:
        raise ValueError(f"batch has {batch.n} clients, context has {ctx.n}")
    if ctx.d != d:
        raise ValueError(f"context carries d={ctx.d}, need {d}")
    if k is not None and k != ctx.k:
        raise ValueError(f"k={k} disagrees with context k={ctx.k}")


def _engine_report(
    scheme: str, batch: VectorBatch, k: int, key: int = 0, ctx=None
) -> VectorQuantReport:
    """One round of `scheme` on the engine of harness.run_round, keyed by
    `key` or reading the caller's shared context."""
    from .harness import run_round  # harness imports this module

    r = run_round(batch, scheme, k, key, None if ctx is None else ctx.arrays())
    return VectorQuantReport(
        scheme=scheme,
        estimate=r.per_client.mean(axis=0),
        per_client=r.per_client,
        level_indices=r.indices,
        payloads=tuple(r.payloads),
        bits_per_client=r.bits,
        clip_events=r.clips,
        sigma_d_md=vector_concentration(batch),
        scales=r.scales,
    )


def correlated_vector_cq(
    batch: VectorBatch, ctx: RandomnessContext, k: int = 2
) -> VectorQuantReport:
    """Coordinate-wise correlated quantization, fixed-width index coding."""
    _check_vector_ctx(batch, ctx, batch.d, k)
    scheme = "correlated-1bit" if k == 2 else "correlated-klevel"
    return _engine_report(scheme, batch, k, ctx=ctx)


def entropy_cq(
    batch: VectorBatch, ctx: RandomnessContext, k: int
) -> VectorQuantReport:
    """Coordinate-wise correlated quantization with gamma-coded indices.

    Identical estimates to correlated_vector_cq under the same context;
    only the payload coding differs. On ball-bounded data most
    coordinates sit near the middle of [-R, R], so the zig-zag plus gamma
    coding spends close to one bit per coordinate plus a logarithmic
    penalty for the outliers.
    """
    _check_vector_ctx(batch, ctx, batch.d, k)
    return _engine_report("entropy-cq", batch, k, ctx=ctx)


def walsh_hadamard_cq(
    batch: VectorBatch, ctx: RandomnessContext, k: int = 2
) -> VectorQuantReport:
    """Rotate, scale into [-1, 1], correlated-quantize, un-rotate.

    The shared rotation flattens every client vector so coordinates are
    uniformly small; the scale picks up a sqrt(log(mn)) safety factor and
    the far tail is clipped (the only bias source, vanishing at rate
    (mn)^-4). Fixed-width payloads over the padded dimension.
    """
    _check_vector_ctx(batch, ctx, next_pow2(batch.d), k)
    return _engine_report("hadamard-cq", batch, k, ctx=ctx)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def independent_vector_sq(
    batch: VectorBatch, k: int, rotate: bool = False, key: int = 0
) -> VectorQuantReport:
    """Independent stochastic quantization, optionally inside the rotation.

    Unrotated: each coordinate rounds on the uniform k-level grid over
    [-R, R] with private randomness. Rotated: the rotation signs are
    shared, the rounding stays private, and the tail clips exactly as in
    the correlated pipeline. Both come from the round key, as in
    harness.run_round(batch, scheme, k, key).
    """
    scheme = "independent-rotation" if rotate else "independent"
    return _engine_report(scheme, batch, k, key)


def ternary_quantize(batch: VectorBatch, key: int) -> VectorQuantReport:
    """Ternary baseline: coordinates snap to {-s_i, 0, +s_i}.

    s_i = max_j |x_i(j)|; a coordinate fires with probability |x|/s_i and
    carries its sign, drawn from the private stream of the round key.
    Unbiased. An all-zero client sends exact zeros. The per-client scale
    rides along as a float64 payload tail.
    """
    return _engine_report("terngrad", batch, 3, key)


def sign_scale_kernel(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign bits and the l2-optimal per-client scale ||y||_1 / m.

    sign(0) counts as +1. The scale minimizes ||y - s * sign(y)||_2, so
    the round-trip error never exceeds ||y||_2.
    """
    y = np.asarray(y, dtype=np.float64)
    bits = (y >= 0).astype(np.int64)
    scales = np.abs(y).mean(axis=-1)
    return bits, scales


def rotate_sign_baseline(
    batch: VectorBatch, ctx: RandomnessContext
) -> VectorQuantReport:
    """Simplified rotate-then-sign baseline (biased, deterministic).

    Rotate with the shared W, keep one sign bit per coordinate plus the
    l1 scale, un-rotate. A stand-in for sign-based one-bit schemes; it is
    intentionally not a faithful reproduction of any published method.
    """
    _check_vector_ctx(batch, ctx, next_pow2(batch.d))
    return _engine_report("rotate-sign", batch, 2, ctx=ctx)
