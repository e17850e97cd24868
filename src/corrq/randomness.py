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
  so every sort order gives the same permutation. For 32 <= n <= 1024
  the argsort is one 32-bit sort of packed keys: a value's top 32 bits
  with the low b = ceil(log2 n) replaced by the client index, whose
  sorted low bits are the permutation. That is the argsort wherever no
  two values of a row share their top 32 - b bits; a row where two do
  (about 1.5e-4 of rows at n = 100) is argsorted on its full 64-bit
  values instead, so every permutation is exact.
* ``("client-offset", j)``  per-client sub-cell offsets for coordinate j,
  counter = client index. Growing n extends the stream without touching
  existing clients, and no other stream depends on n.
* ``("grid-offset",)``      one uniform per coordinate (counter = j) for
  the randomized level grid.
* ``("rotation-sign",)``    one Rademacher sign per coordinate.

One stream is not part of the context: ``("private", j)`` holds the
per-client uniforms of coordinate j (counter = client index) for the
schemes that round with private randomness (:func:`private_uniforms`).

:func:`build_context_arrays` computes these keys together, not one by
one: the four label keys in one ``mix64`` over a (..., 4) array, and the
permutation and offset keys of every coordinate in one more. The values
are the ones the derivation above defines. It can skip the grid offsets
and the rotation signs, which no other stream depends on.

Monte Carlo trial t of a run seeded with s uses ``derive_key(s, "trial", t)``
as its own master key, so trials are disjoint streams and can be generated
independently or in vectorized blocks.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_U64 = np.uint64
_SHIFTS = (_U64(30), _U64(27), _U64(31))
_MULS = (_U64(_MUL1), _U64(_MUL2))


def mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on uint64 arrays (wrapping arithmetic)."""
    return _mix64_inplace(np.array(x, dtype=np.uint64))[()]


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """mix64 computed in z's own buffer; z must be a uint64 ndarray.

    In-place ufuncs wrap silently on any ndarray, 0-d included: only
    arithmetic between numpy scalars warns on overflow, and this module
    does none, so no np.errstate is needed.
    """
    tmp = np.empty_like(z)  # one scratch buffer for the three shifts
    np.right_shift(z, _SHIFTS[0], out=tmp)
    z ^= tmp
    z *= _MULS[0]
    np.right_shift(z, _SHIFTS[1], out=tmp)
    z ^= tmp
    z *= _MULS[1]
    np.right_shift(z, _SHIFTS[2], out=tmp)
    z ^= tmp
    return z


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


# FNV-1a hashes of the context's stream labels, in ContextArrays order
_CONTEXT_LABELS = np.array(
    [fnv1a64(label) for label in
     ("permutation", "client-offset", "grid-offset", "rotation-sign")],
    dtype=np.uint64,
)
_SIGN_LABEL = _CONTEXT_LABELS[3:]
_PRIVATE_LABEL = np.array([fnv1a64("private")], dtype=np.uint64)


def _stream_keys(seeds: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """derive_key(seed, label) for every seed and label, (..., len(labels)):
    one mix64 over the root keys and one over all the labels."""
    return child_keys(mix64(seeds)[..., None], labels)


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


def _stream(key: int | np.ndarray, counters: np.ndarray) -> np.ndarray:
    """stream_u64 as an ndarray in one fresh buffer: the states
    key + (counter + 1) * GOLDEN, mixed in place."""
    steps = np.array(counters, dtype=np.uint64)
    steps += _U64(1)
    steps *= _U64(GOLDEN)
    return _mix64_inplace(np.asarray(steps + np.asarray(key, dtype=np.uint64)))


def stream_u64(key: int | np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Random-access stream values mix64(key + (counter+1)*GOLDEN)."""
    return _stream(key, counters)[()]


def stream_uniform(key: int | np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Stream uniforms in [0, 1) with 53-bit resolution."""
    bits = _stream(key, counters)
    bits >>= _U64(11)
    out = bits.view(np.float64)
    # converted in the stream's own buffer. copyto gives the values of a
    # copy whether or not it buffers an overlapping source; a 1-d copy
    # between same-direction strides is not buffered, so nothing is
    # allocated (a casting ufunc here takes half as long again)
    np.copyto(out.reshape(-1), bits.reshape(-1), casting="unsafe")
    out *= 2.0**-53
    return out[()]


# Client counts whose permutations come from the packed 32-bit sort. Fewer
# clients make rows too short to repay the key's extra passes, and more
# leave too few high bits, so that ties send many rows to the fallback
# (both timed against np.argsort on synthetic (rows, n) stream arrays,
# n = 2 to 8192, on a 2-vCPU AVX-512 Xeon).
_PACKED_CLIENTS = range(32, 1025)


def _argsort_in_place(values: np.ndarray) -> np.ndarray:
    """Overwrite uint64 values (..., n), distinct within each row, with
    np.argsort(values, axis=-1) as int64 in the same buffer, and return
    that int64 view; see the module docstring for the packed 32-bit sort."""
    n = values.shape[-1]
    perms = values.view(np.int64)
    if n not in _PACKED_CLIENTS:
        perms[...] = np.argsort(values, axis=-1)
        return perms
    keys = np.empty(values.shape, dtype=np.uint32)
    bits = (n - 1).bit_length()
    low = np.uint32((1 << bits) - 1)
    high_words = values.view(np.uint32)[..., 1 if sys.byteorder == "little" else 0 :: 2]
    np.bitwise_and(high_words, ~low, out=keys)
    keys |= np.arange(n, dtype=np.uint32)
    keys.sort(axis=-1)
    tied = ((keys[..., 1:] ^ keys[..., :-1]) <= low).any(axis=-1)
    tied_values = values[tied]
    np.bitwise_and(keys, low, out=perms)
    if tied_values.size:  # those rows argsorted on their full 64 bits
        perms[tied] = np.argsort(tied_values, axis=-1)
    return perms


class ContextArrays(NamedTuple):
    """Raw context arrays with an arbitrary leading batch shape.

    Layouts are kernel-friendly: permutations and offset units (sub-cell
    offsets in units of 1/n, in [0, 1)) are (..., d, n); grid offsets (in
    [-1/k, 0)) and rotation signs are (..., d). A stream
    build_context_arrays was told not to build is None.
    """

    permutations: np.ndarray
    offset_units: np.ndarray
    grid_offsets: np.ndarray | None
    rotation_signs: np.ndarray | None


def build_context_arrays(
    seeds: np.ndarray, n: int, d: int, k: int, *, grid: bool = True,
    signs: bool = True,
) -> ContextArrays:
    """Build context arrays for each seed in ``seeds`` (any shape).

    This is the single source of the randomness layout: build_context is
    the shape-() specialization, and the Monte Carlo engine passes a
    vector of per-trial keys. The arrays for seeds[t] are identical to the
    ones build_context(int(seeds[t]), n, d, k) produces. grid=False and
    signs=False skip the grid offsets and the rotation signs, for the
    schemes that read neither; no other stream depends on them.
    """
    keys = _stream_keys(seeds, _CONTEXT_LABELS)
    coords = np.arange(d, dtype=np.uint64)
    # the permutation and client-offset keys of every coordinate at once
    coord_keys = child_keys(keys[..., :2, None], coords)
    clients = np.arange(n, dtype=np.uint64)
    offset_units = stream_uniform(coord_keys[..., 1, :, None], clients)
    # sorted in the stream's own buffer, which becomes the permutations
    permutations = _argsort_in_place(stream_u64(coord_keys[..., 0, :, None], clients))
    grid_offsets = None
    if grid:
        grid_offsets = (stream_uniform(keys[..., 2, None], coords) - 1.0) / k
    return ContextArrays(
        permutations, offset_units, grid_offsets,
        _signs(keys[..., 3], d) if signs else None,
    )


def _signs(sign_keys: np.ndarray, d: int) -> np.ndarray:
    sign_bits = stream_u64(sign_keys[..., None], np.arange(d, dtype=np.uint64)) >> 63
    return 1 - 2 * sign_bits.astype(np.int64)


def rotation_signs(seeds: np.ndarray, d: int) -> np.ndarray:
    """The ``("rotation-sign",)`` stream alone: each seed's Rademacher
    signs (..., d), for the schemes that read nothing else of a context."""
    return _signs(_stream_keys(seeds, _SIGN_LABEL)[..., 0], d)


def private_uniforms(seeds: np.ndarray, d: int, n: int) -> np.ndarray:
    """The ``("private", j)`` streams: each seed's U[0,1) per-client
    rounding uniforms, shape (..., d, n)."""
    key = _stream_keys(seeds, _PRIVATE_LABEL)
    coord_keys = child_keys(key, np.arange(d, dtype=np.uint64))
    return stream_uniform(coord_keys[..., None], np.arange(n, dtype=np.uint64))


def build_context(seed: int, n: int, d: int = 1, k: int = 2) -> ContextArrays:
    """The read-only ContextArrays harness.run_round(batch, scheme, k, seed)
    reads for n clients over d (padded, for the rotated schemes)
    coordinates. Parameters are validated; the seed is reduced mod 2**64.
    Client i's uniform for coordinate j is (permutations[j, i] +
    offset_units[j, i]) / n."""
    if n < 1:
        raise ValueError(f"need at least one client, got n={n}")
    if d < 1:
        raise ValueError(f"need at least one coordinate, got d={d}")
    if k < 2:
        raise ValueError(f"need at least two levels, got k={k}")
    arrays = build_context_arrays(np.uint64(int(seed) & MASK64), n, d, k)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def trial_seeds(seed: int, trials: int) -> np.ndarray:
    """Per-trial master keys derive_key(seed, "trial", t) for t < trials."""
    base = derive_key(seed, "trial")
    return child_keys(base, np.arange(trials, dtype=np.uint64))
