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
layouts (d, n). The rotation W = H D / sqrt(m) is rotate and unrotate,
with D the context's rotation signs over the padded dimension m. Each
single-round op at the end takes the round key and is one call of the
single-round entry point, harness.run_round(batch, scheme, k, key) (the
engine run_dme and the tasks run), and returns its Round.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import bitcodec as bc
from .scalar_quant import correlated_bits, level_cells, level_spacing

if TYPE_CHECKING:
    from .harness import Round


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
        return pivot + _column_fsums(self.vectors - pivot) / self.n


def _column_fsums(x: np.ndarray) -> np.ndarray:
    """[math.fsum(col) for col in x.T] bit for bit, by array passes.

    A pairwise TwoSum reduction over the rows (Ogita, Rump and Oishi,
    "Accurate sum and dot product", SIAM J. Sci. Comput. 2005) splits
    each column's exact sum into a high part and the sum of every
    rounding error. Inputs and errors are all multiples of u, the
    column's finest ulp, and the errors total at most n eps sum|x|; while
    that is at most 2^53 u every partial sum of the errors is exact, so
    high + low is the correctly rounded sum, as fsum returns. Columns
    without that certificate (n sum|x| overflowing included) go through
    math.fsum, so fsum's OverflowError comes out unchanged.
    """
    n = x.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        mag = np.abs(x)
        bound = n * mag.sum(axis=0)
        finest = mag.min(axis=0, where=mag > 0, initial=np.inf)
        exponent = np.frexp(np.where(np.isfinite(finest), finest, 1.0))[1]
        # u = 2**max(exponent - 53, -1074); certified when n eps sum|x| <= 2**53 u
        certified = np.isfinite(bound) & (
            bound <= np.ldexp(1.0, np.maximum(exponent + 52, -969))
        )
        high = mag  # the reduction runs on a copy of x, in mag's memory
        np.copyto(high, x)
        low = np.zeros(x.shape[1])
        rows = n
        while rows > 1:  # Knuth's TwoSum: a + b = s + err exactly
            half = rows // 2
            a, b = high[:half], high[half : 2 * half]
            s = a + b
            err = s - a  # b's share of s
            b -= err  # b's rounding error
            np.subtract(s, err, out=err)  # a's share of s
            np.subtract(a, err, out=err)  # a's rounding error
            err += b
            low += err.sum(axis=0)
            a[...] = s
            if rows % 2:
                high[half] = high[rows - 1]
            rows -= half
        sums = (high[0] + low) + 0.0  # fsum gives +0.0 for an exact zero
    for j in np.flatnonzero(~certified):
        sums[j] = math.fsum(x[:, j])
    return sums


def vector_concentration(batch: VectorBatch) -> float:
    """Mean distance to the batch mean, (1/n) sum ||x_i - xbar||_2."""
    dev = batch.vectors - batch.vectors.mean(axis=0)
    return float(np.linalg.norm(dev, axis=1).mean())


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


def rotate(x: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """W x = H D x / sqrt(m) along the last axis, x already zero-padded to
    m; W is orthonormal, so unrotate(rotate(x, s), s, dim) gives x back."""
    return fwht(signs * x) / math.sqrt(x.shape[-1])


def unrotate(z: np.ndarray, signs: np.ndarray, dim: int) -> np.ndarray:
    """W^T z = D H z / sqrt(m) along the last axis, truncated to dim."""
    return (fwht(z) / math.sqrt(z.shape[-1]) * signs)[..., :dim]


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
# The float64 scale tail of the terngrad and rotate-sign payloads
# ---------------------------------------------------------------------------


def scale_tail_bits(scales) -> np.ndarray:
    """Each float64 scale's IEEE-754 bits, most significant byte first, as
    a (rows, 64) 0/1 array: the tail that follows a payload's indices."""
    raw = np.asarray(scales, dtype=">f8").reshape(-1, 1).view(np.uint8)
    return np.unpackbits(raw, axis=-1)


def tail_scales(bits: np.ndarray) -> np.ndarray:
    """Inverse of scale_tail_bits: the float64 scales of (rows, 64) bits."""
    return np.packbits(bits, axis=-1).view(">f8")[:, 0].astype(np.float64)


def append_scale_tail(stream: bc.BitStream, scale: float) -> bc.BitStream:
    """Append a float64 scale (IEEE-754 bits, most significant byte first)."""
    bits = np.concatenate([stream.bits(), scale_tail_bits([scale])[0]])
    return bc.BitStream(np.packbits(bits).tobytes(), bits.size)


def split_scale_tail(stream: bc.BitStream) -> tuple[bc.BitStream, float]:
    """Inverse of the scale tail: payload minus 64 bits, and the scale."""
    if stream.length < 64:
        raise bc.MalformedStreamError("payload too short for scale tail", 0)
    bits = stream.bits()
    head, tail = bits[:-64], bits[-64:]
    scale = float(tail_scales(tail[None])[0])
    return bc.BitStream(np.packbits(head).tobytes(), head.size), scale


# ---------------------------------------------------------------------------
# Reference single-round ops, kept by name for perfbench/tracer.py
# ---------------------------------------------------------------------------


def _round(batch: VectorBatch, scheme: str, k: int, key: int) -> Round:
    from .harness import run_round  # harness imports this module

    return run_round(batch, scheme, k, key)


def correlated_vector_cq(batch: VectorBatch, k: int, key: int) -> Round:
    """Coordinate-wise correlated quantization, fixed-width index coding."""
    scheme = "correlated-1bit" if k == 2 else "correlated-klevel"
    return _round(batch, scheme, k, key)


def entropy_cq(batch: VectorBatch, k: int, key: int) -> Round:
    """Coordinate-wise correlated quantization with gamma-coded indices.

    Identical estimates to correlated_vector_cq under the same key;
    only the payload coding differs. On ball-bounded data most
    coordinates sit near the middle of [-R, R], so the zig-zag plus gamma
    coding spends close to one bit per coordinate plus a logarithmic
    penalty for the outliers.
    """
    return _round(batch, "entropy-cq", k, key)


def walsh_hadamard_cq(batch: VectorBatch, k: int, key: int) -> Round:
    """Rotate, scale into [-1, 1], correlated-quantize, un-rotate.

    The shared rotation flattens every client vector so coordinates are
    uniformly small; the scale picks up a sqrt(log(mn)) safety factor and
    the far tail is clipped (the only bias source, vanishing at rate
    (mn)^-4). Fixed-width payloads over the padded dimension.
    """
    return _round(batch, "hadamard-cq", k, key)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def independent_vector_sq(
    batch: VectorBatch, k: int, rotate: bool = False, *, key: int
) -> Round:
    """Independent stochastic quantization, optionally inside the rotation.

    Unrotated: each coordinate rounds on the uniform k-level grid over
    [-R, R] with private randomness. Rotated: the rotation signs are
    shared, the rounding stays private, and the tail clips exactly as in
    the correlated pipeline. Both come from the round key, as in
    harness.run_round(batch, scheme, k, key).
    """
    scheme = "independent-rotation" if rotate else "independent"
    return _round(batch, scheme, k, key)


def ternary_quantize(batch: VectorBatch, key: int) -> Round:
    """Ternary baseline: coordinates snap to {-s_i, 0, +s_i}.

    s_i = max_j |x_i(j)|; a coordinate fires with probability |x|/s_i and
    carries its sign, drawn from the private stream of the round key.
    Unbiased. An all-zero client sends exact zeros. The per-client scale
    rides along as a float64 payload tail.
    """
    return _round(batch, "terngrad", 3, key)


def sign_scale_kernel(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign bits and the l2-optimal per-client scale ||y||_1 / m.

    sign(0) counts as +1. The scale minimizes ||y - s * sign(y)||_2, so
    the round-trip error never exceeds ||y||_2.
    """
    y = np.asarray(y, dtype=np.float64)
    bits = (y >= 0).astype(np.int64)
    scales = np.abs(y).mean(axis=-1)
    return bits, scales


def rotate_sign_baseline(batch: VectorBatch, key: int) -> Round:
    """Simplified rotate-then-sign baseline (biased, deterministic).

    Rotate with the shared W, keep one sign bit per coordinate plus the
    l1 scale, un-rotate. A stand-in for sign-based one-bit schemes; it is
    intentionally not a faithful reproduction of any published method.
    """
    return _round(batch, "rotate-sign", 2, key)
