"""Deterministic shared randomness for correlated quantization.

Every random quantity in this package flows from a 64-bit master seed
through one documented, platform-independent derivation scheme. We do not
use numpy's Generator objects for shared state, so identical seeds give
bit-identical results on every platform and numpy version.

Derivation scheme
-----------------
The primitive is ``mix64``, the splitmix64 finalizer (the mixing function
of Steele, Lea and Flood's SplittableRandom). A *key* is a 64-bit integer.

* ``derive_key(seed, *parts)`` folds parts into a child key::

      state = mix64(seed)
      for part in parts:
          state = mix64(state ^ encode(part))

  where strings encode as their FNV-1a 64 hash and integers as themselves
  (reduced mod 2**64).
* A key opens a random-access *stream*::

      stream_u64(key, i) = mix64((key + (i + 1) * GOLDEN) mod 2**64)

  i.e. the splitmix64 output sequence started at ``key``. Because entries
  are pure functions of (key, counter), blocks can be generated in any
  order or shape without changing values.
* Uniforms take the top 53 bits: ``u = (stream_u64 >> 11) * 2**-53``,
  giving floats in [0, 1).

Streams used by :func:`build_context` (all children of the master seed):

* ``("permutation", j)``    shared client permutation for coordinate j,
  obtained by argsorting n stream values (an unbiased shuffle). The n
  values of one stream never tie: the states key + (i + 1) * GOLDEN are
  distinct for i < 2**64 because GOLDEN is odd, and mix64 is a bijection,
  so every sort order gives the same permutation.
* ``("client-offset", j)``  per-client sub-cell offsets for coordinate j,
  counter = client index. Growing n extends the stream without touching
  existing clients, and no other stream depends on n.
* ``("grid-offset",)``      one uniform per coordinate (counter = j) for
  the randomized level grid.
* ``("rotation-sign",)``    one Rademacher sign per coordinate.

Monte Carlo trial t of a run seeded with s uses ``derive_key(s, "trial", t)``
as its own master key, so trials are disjoint streams and can be generated
independently or in vectorized blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_U64 = np.uint64


def mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on uint64 arrays (wrapping arithmetic)."""
    return _mix64_inplace(np.array(x, dtype=np.uint64))


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """mix64 computed in z's own buffer; z must be a uint64 array."""
    with np.errstate(over="ignore"):
        z ^= z >> 30
        z *= _U64(_MUL1)
        z ^= z >> 27
        z *= _U64(_MUL2)
        z ^= z >> 31
    return z[()]


def mix64_int(x: int) -> int:
    """splitmix64 finalizer on a plain Python int."""
    z = x & MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & MASK64
    return z ^ (z >> 31)


def fnv1a64(label: str) -> int:
    """FNV-1a 64-bit hash of a label's UTF-8 bytes."""
    h = _FNV_OFFSET
    for byte in label.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & MASK64
    return h


def _encode_part(part: str | int) -> int:
    if isinstance(part, str):
        return fnv1a64(part)
    return int(part) & MASK64


def derive_key(seed: int, *parts: str | int) -> int:
    """Derive a 64-bit child key from a seed and a path of labels/indices."""
    state = mix64_int(seed)
    for part in parts:
        state = mix64_int(state ^ _encode_part(part))
    return state


def child_keys(key: int | np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Vectorized final derivation step: mix64(key ^ index) per index."""
    key_arr = np.asarray(key, dtype=np.uint64)
    idx = np.asarray(indices, dtype=np.uint64)
    return mix64(key_arr ^ idx)


def stream_u64(key: int | np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Random-access stream values mix64(key + (counter+1)*GOLDEN)."""
    key_arr = np.asarray(key, dtype=np.uint64)
    ctr = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state = key_arr + (ctr + _U64(1)) * _U64(GOLDEN)
    return _mix64_inplace(np.asarray(state))


def stream_uniform(key: int | np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Stream uniforms in [0, 1) with 53-bit resolution."""
    bits = stream_u64(key, counters)
    bits >>= 11
    out = bits.astype(np.float64)
    out *= 2.0**-53
    return out[()]


class ContextArrays(NamedTuple):
    """Raw context arrays with an arbitrary leading batch shape.

    Layouts are kernel-friendly: permutations and offset units are
    (..., d, n); grid offsets and rotation signs are (..., d).
    """

    permutations: np.ndarray
    offset_units: np.ndarray
    grid_offsets: np.ndarray
    rotation_signs: np.ndarray


def build_context_arrays(seeds: np.ndarray, n: int, d: int, k: int) -> ContextArrays:
    """Build context arrays for each seed in ``seeds`` (any shape).

    This is the single source of the randomness layout: build_context is
    the shape-() specialization, and the Monte Carlo engine passes a
    vector of per-trial keys. The arrays for seeds[t] are identical to the
    ones build_context(int(seeds[t]), n, d, k) produces.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    root = mix64(seeds)
    coords = np.arange(d, dtype=np.uint64)
    clients = np.arange(n, dtype=np.uint64)

    perm_keys = child_keys(
        mix64(root ^ _U64(fnv1a64("permutation")))[..., None], coords
    )
    perm_raw = stream_u64(perm_keys[..., None], clients)
    # no ties within a row (see the module docstring), so the fast
    # unstable sort gives the stable sort's permutation
    permutations = np.argsort(perm_raw, axis=-1)

    offset_keys = child_keys(
        mix64(root ^ _U64(fnv1a64("client-offset")))[..., None], coords
    )
    offset_units = stream_uniform(offset_keys[..., None], clients)

    grid_key = mix64(root ^ _U64(fnv1a64("grid-offset")))
    grid_offsets = (stream_uniform(grid_key[..., None], coords) - 1.0) / k

    return ContextArrays(
        permutations, offset_units, grid_offsets, rotation_signs(seeds, d)
    )


def rotation_signs(seeds: np.ndarray, d: int) -> np.ndarray:
    """The ``("rotation-sign",)`` stream alone: each seed's Rademacher
    signs (..., d), for the schemes that read nothing else of a context."""
    root = mix64(np.asarray(seeds, dtype=np.uint64))
    sign_key = mix64(root ^ _U64(fnv1a64("rotation-sign")))
    sign_bits = stream_u64(sign_key[..., None], np.arange(d, dtype=np.uint64)) >> 63
    return 1 - 2 * sign_bits.astype(np.int64)


@dataclass
class RandomnessContext:
    """Shared randomness for one quantization round over d coordinates.

    Fields
    ------
    permutations : (d, n) int64
        permutations[j] is a uniformly random permutation of {0..n-1}.
    offset_units : (d, n) float64 in [0, 1)
        Client i's sub-cell offset for coordinate j in units of 1/n.
        The offset itself (gamma) is offset_units / n in [0, 1/n).
    grid_offsets : (d,) float64 in [-1/k, 0)
        First-level position of the randomized grid per coordinate.
    rotation_signs : (d,) int64 in {-1, +1}
        Rademacher diagonal for the randomized Hadamard rotation.

    The layouts are those of ContextArrays without the batch axes.
    Instances are value objects: arrays are read-only and equality
    compares parameters and array contents.
    """

    seed: int
    n: int
    d: int
    k: int
    permutations: np.ndarray
    offset_units: np.ndarray
    grid_offsets: np.ndarray
    rotation_signs: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RandomnessContext):
            return NotImplemented
        return (self.seed, self.n, self.d, self.k) == (
            other.seed, other.n, other.d, other.k
        ) and all(map(np.array_equal, self.arrays(), other.arrays()))

    @property
    def offsets(self) -> np.ndarray:
        """Per-client offsets gamma in [0, 1/n), shape (d, n)."""
        return self.offset_units / self.n

    def client_uniform(self, i: int, j: int = 0) -> float:
        """U_i(j) = (pi_j(i) + unit_i(j)) / n, uniform on [0, 1)."""
        return float(
            (self.permutations[j, i] + self.offset_units[j, i]) / self.n
        )

    def client_uniforms(self, j: int = 0) -> np.ndarray:
        """All n client uniforms for coordinate j."""
        return (self.permutations[j] + self.offset_units[j]) / self.n

    def arrays(self) -> ContextArrays:
        """The context as one trial of the batched layout (leading axis 1)."""
        return ContextArrays(
            self.permutations[None], self.offset_units[None],
            self.grid_offsets[None], self.rotation_signs[None],
        )


def build_context(seed: int, n: int, d: int = 1, k: int = 2) -> RandomnessContext:
    """Materialize the shared randomness for one round.

    Parameters are validated; the seed is reduced mod 2**64. The context is
    a pure function of (seed, n, d, k).
    """
    if n < 1:
        raise ValueError(f"need at least one client, got n={n}")
    if d < 1:
        raise ValueError(f"need at least one coordinate, got d={d}")
    if k < 2:
        raise ValueError(f"need at least two levels, got k={k}")
    seed = int(seed) & MASK64
    arrays = build_context_arrays(np.uint64(seed), n, d, k)
    for arr in arrays:
        arr.flags.writeable = False
    return RandomnessContext(seed, n, d, k, *arrays)


def trial_seeds(seed: int, trials: int) -> np.ndarray:
    """Per-trial master keys derive_key(seed, "trial", t) for t < trials."""
    base = derive_key(seed, "trial")
    return child_keys(base, np.arange(trials, dtype=np.uint64))
