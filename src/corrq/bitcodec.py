"""Bit-exact codecs and the wire format for quantized client messages.

Bit order is MSB-first within each byte everywhere: bit i of a stream is
(data[i // 8] >> (7 - i % 8)) & 1. Fixed-width fields are big-endian
within the field; multi-byte header integers are little-endian.

Wire layout (byte-for-byte):

    offset  size  field
    0       4     magic "CQ01"
    4       1     scheme byte (see SCHEME_BYTES)
    5       4     n, uint32 little-endian
    9       4     d, uint32 little-endian
    13      2     k, uint16 little-endian
    15      8     seed, uint64 little-endian
    23      4     payload bit length, uint32 little-endian
    27      ...   payload, padded to a byte boundary with zero bits

The header is exactly 27 bytes (HEADER_BITS = 216). Bit-cost accounting
throughout the package is HEADER_BITS plus the true payload bit length.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

HEADER_BYTES = 27
HEADER_BITS = HEADER_BYTES * 8
MAGIC = b"CQ01"

SCHEME_BYTES = {
    "none": 0,
    "correlated-1bit": 1,
    "correlated-klevel": 2,
    "entropy-cq": 3,
    "hadamard-cq": 4,
    "independent": 5,
    "independent-rotation": 6,
    "terngrad": 7,
    "rotate-sign": 8,
}
SCHEME_NAMES = {v: k for k, v in SCHEME_BYTES.items()}

_HEADER_STRUCT = struct.Struct("<4sBIIHQI")
# header fields and their exclusive upper limits (u32, u32, u16, u64)
HEADER_LIMITS = {"n": 1 << 32, "d": 1 << 32, "k": 1 << 16, "seed": 1 << 64}


class CodecError(ValueError):
    """Base class for codec failures."""


class InvalidParameterError(CodecError):
    """An encode-side argument is out of range."""


class MalformedStreamError(CodecError):
    """A bitstream cannot be decoded; carries the offending bit offset."""

    def __init__(self, message: str, bit_offset: int):
        super().__init__(f"{message} (bit offset {bit_offset})")
        self.bit_offset = bit_offset


class BadMagicError(CodecError):
    """A message buffer does not start with the wire magic."""


class UnknownSchemeError(CodecError):
    """A message carries a scheme byte outside the registry."""


class LengthMismatchError(CodecError):
    """Declared and actual lengths disagree."""


@dataclass(frozen=True)
class BitStream:
    """An immutable sequence of bits, padded to bytes with zeros."""

    data: bytes
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise InvalidParameterError(f"negative bit length {self.length}")
        if len(self.data) != (self.length + 7) // 8:
            raise InvalidParameterError(
                f"{len(self.data)} bytes cannot hold exactly {self.length} bits"
            )
        pad = len(self.data) * 8 - self.length
        if pad and (self.data[-1] & ((1 << pad) - 1)):
            raise InvalidParameterError("padding bits must be zero")

    def __len__(self) -> int:
        return self.length

    def bits(self) -> np.ndarray:
        """The bits as a uint8 array of 0/1."""
        if not self.data:
            return np.zeros(0, dtype=np.uint8)
        return np.unpackbits(
            np.frombuffer(self.data, dtype=np.uint8), count=self.length
        )

    def to_bitstring(self) -> str:
        return "".join("1" if b else "0" for b in self.bits())

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitStream":
        arr = np.asarray(list(bits), dtype=np.uint8)
        if arr.size and arr.max() > 1:
            raise InvalidParameterError("bits must be 0 or 1")
        return cls(data=np.packbits(arr).tobytes(), length=int(arr.size))

    @classmethod
    def from_bitstring(cls, text: str) -> "BitStream":
        return cls.from_bits(int(c) for c in text)


def _pack_bit_array(bits: np.ndarray) -> BitStream:
    return BitStream(data=np.packbits(bits).tobytes(), length=int(bits.size))


class BitWriter:
    """Sequential MSB-first writer producing a BitStream."""

    def __init__(self) -> None:
        self._chunks: list[np.ndarray] = []

    def write_bit(self, bit: int) -> None:
        self.write_uint(bit, 1)

    def write_uint(self, value: int, width: int) -> None:
        if width < 0:
            raise InvalidParameterError(f"negative width {width}")
        if value < 0 or value >> width:
            raise InvalidParameterError(
                f"value {value} does not fit in {width} bits"
            )
        bits = np.zeros(width, dtype=np.uint8)
        for i in range(width - 1, -1, -1):
            bits[i] = value & 1
            value >>= 1
        self._chunks.append(bits)

    def getvalue(self) -> BitStream:
        if not self._chunks:
            return BitStream(b"", 0)
        allbits = np.concatenate(self._chunks)
        return _pack_bit_array(allbits)


# ---------------------------------------------------------------------------
# Elias gamma
# ---------------------------------------------------------------------------


def elias_gamma_encode(value: int) -> BitStream:
    """Gamma code of one positive integer.

    A value v with b significant bits encodes as b-1 zeros followed by the
    b bits of v, equivalently v written MSB-first in width 2b-1. Examples:
    1 -> "1", 2 -> "010", 5 -> "00101".
    """
    if value < 1:
        raise InvalidParameterError(f"gamma code needs value >= 1, got {value}")
    b = int(value).bit_length()
    w = BitWriter()
    w.write_uint(value, 2 * b - 1)
    return w.getvalue()


def elias_gamma_encode_many(values: Sequence[int] | np.ndarray) -> BitStream:
    """Concatenated gamma codes (vectorized)."""
    v = np.asarray(values, dtype=np.int64)
    if v.size == 0:
        return BitStream(b"", 0)
    if v.min() < 1:
        raise InvalidParameterError("gamma code needs values >= 1")
    b = np.floor(np.log2(v)).astype(np.int64) + 1
    # guard against float log rounding at powers of two
    b = np.where((np.int64(1) << (b - 1)) > v, b - 1, b)
    b = np.where((np.int64(1) << b) <= v, b + 1, b)
    widths = 2 * b - 1
    ends = np.cumsum(widths)
    starts = ends - widths
    total = int(ends[-1])
    owner = np.repeat(np.arange(v.size), widths)
    shift = (ends[owner] - 1) - np.arange(total)
    bits = ((v[owner] >> shift) & 1).astype(np.uint8)
    return _pack_bit_array(bits)


def elias_gamma_decode(stream: BitStream) -> list[int]:
    """Decode a whole stream of gamma codes back to positive integers.

    Consumes every bit; truncated or dangling input raises
    MalformedStreamError with the offending bit offset. A codeword that
    starts at bit s has its leading one at lead(s), the first one at or
    after s, and the next codeword starts at 2 lead(s) - s + 1. That jump
    is computed for every bit at once; the chain of starts is walked
    eight codewords per Python step and filled in by array gathers.
    """
    bits = stream.bits()
    total = bits.size
    if total == 0:
        return []
    pos = np.arange(total, dtype=np.int32 if total < 1 << 30 else np.int64)
    lead = np.minimum.accumulate(np.where(bits == 1, pos, total)[::-1])[::-1]
    # codeword ends; total (clean end) and total + 1 (malformed) are fixed points
    ends = np.minimum(2 * lead - pos + 1, total + 1)
    jump = np.concatenate([ends, np.array([total, total + 1], dtype=pos.dtype)])
    far = jump
    for _ in range(3):  # eight codewords ahead
        far = far[far]
    coarse = [0]
    while coarse[-1] < total:
        coarse.append(int(far[coarse[-1]]))
    chain = [np.array(coarse[:-1])]
    for _ in range(7):
        chain.append(jump[chain[-1]])
    starts = np.stack(chain, axis=1).ravel()
    starts = starts[starts < total]
    last = int(starts[-1])
    if jump[last] > total:
        if lead[last] == total:
            raise MalformedStreamError("zero run reaches end of stream", last)
        raise MalformedStreamError("truncated gamma codeword", last)
    # read each codeword as a 64-bit window of the bytes at its leading one
    leads = lead[starts]
    widths = np.minimum(leads - starts + 1, 57)
    data = np.frombuffer(stream.data + bytes(8), dtype=np.uint8)
    words = data[(leads >> 3)[:, None] + np.arange(8)].view(">u8")[:, 0]
    words = words.astype(np.uint64) << (leads & 7).astype(np.uint64)
    out = (words >> (64 - widths).astype(np.uint64)).tolist()
    for i in np.flatnonzero(leads - starts >= 57):  # values of 2**57 and up
        first, end = int(leads[i]), int(2 * leads[i] - starts[i] + 1)
        out[i] = int("".join(map(str, bits[first:end])), 2)
    return out


# ---------------------------------------------------------------------------
# Fixed-width packing
# ---------------------------------------------------------------------------


def fixed_width(k: int) -> int:
    """Bits per index for a k-level alphabet, ceil(log2 k)."""
    if k < 2:
        raise InvalidParameterError(f"need k >= 2, got {k}")
    return int(k - 1).bit_length()


def pack_fixed(indices: Sequence[int] | np.ndarray, k: int) -> BitStream:
    """Pack indices in [0, k) at ceil(log2 k) bits each, big-endian."""
    return pack_fixed_rows(np.asarray(indices, dtype=np.int64).reshape(1, -1), k)[0]


def pack_fixed_rows(indices: np.ndarray, k: int) -> list[BitStream]:
    """pack_fixed of every row of a (rows, m) index array, in one pass."""
    width = fixed_width(k)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= k):
        raise InvalidParameterError(f"indices outside [0, {k})")
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    bits = ((idx[..., None] >> shifts) & 1).astype(np.uint8).reshape(len(idx), -1)
    length = bits.shape[1]
    return [BitStream(row.tobytes(), length) for row in np.packbits(bits, axis=-1)]


def unpack_fixed(stream: BitStream, k: int) -> np.ndarray:
    """Inverse of pack_fixed; the count is implied by the stream length."""
    return unpack_fixed_rows([stream], k)[0]


def unpack_fixed_rows(streams: Sequence[BitStream], k: int) -> np.ndarray:
    """unpack_fixed of equal-length streams, as a (rows, m) array."""
    width = fixed_width(k)
    length = streams[0].length
    if any(s.length != length for s in streams):
        raise LengthMismatchError("streams differ in length")
    if length % width != 0:
        raise LengthMismatchError(
            f"{length} bits is not a multiple of width {width}"
        )
    data = np.frombuffer(b"".join(s.data for s in streams), dtype=np.uint8)
    bits = np.unpackbits(data.reshape(len(streams), -1), axis=-1, count=length)
    weights = np.int64(1) << np.arange(width - 1, -1, -1, dtype=np.int64)
    idx = bits.reshape(len(streams), -1, width).astype(np.int64) @ weights
    if idx.size and idx.max() >= k:
        row, col = np.argwhere(idx >= k)[0]
        raise MalformedStreamError(
            f"index {int(idx[row, col])} >= k={k}", int(col) * width
        )
    return idx


# ---------------------------------------------------------------------------
# Zig-zag mapping for variable-length level coding
# ---------------------------------------------------------------------------


def zigzag_encode(indices: np.ndarray, k: int) -> np.ndarray:
    """Map level indices to gamma-codable values, center-first.

    Deltas from the grid midpoint k//2 interleave as 0, -1, +1, -2, ...
    -> 1, 2, 3, 4, ..., so the central levels (where ball-bounded
    coordinates concentrate) get the shortest codewords.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= k):
        raise InvalidParameterError(f"indices outside [0, {k})")
    delta = idx - k // 2
    folded = np.where(delta >= 0, 2 * delta, -2 * delta - 1)
    return folded + 1


def zigzag_decode(values: np.ndarray, k: int) -> np.ndarray:
    """Inverse of zigzag_encode; rejects values outside the alphabet."""
    v = np.asarray(values, dtype=np.int64)
    if v.size and v.min() < 1:
        raise MalformedStreamError("zig-zag values must be >= 1", 0)
    folded = v - 1
    delta = np.where(folded % 2 == 0, folded // 2, -(folded + 1) // 2)
    idx = delta + k // 2
    if idx.size and (idx.min() < 0 or idx.max() >= k):
        bad = int(np.argmax((idx < 0) | (idx >= k)))
        raise MalformedStreamError(
            f"decoded index {int(idx[bad])} outside [0, {k})", bad
        )
    return idx


# ---------------------------------------------------------------------------
# Wire messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WireMessage:
    """One client's message: routing header plus an opaque payload."""

    scheme: str
    n: int
    d: int
    k: int
    seed: int
    payload: BitStream

    def __post_init__(self) -> None:
        if self.scheme not in SCHEME_BYTES:
            raise UnknownSchemeError(f"unknown scheme {self.scheme!r}")
        for name, value in (
            ("n", self.n), ("d", self.d), ("k", self.k), ("seed", self.seed)
        ):
            if not 0 <= value < HEADER_LIMITS[name]:
                raise InvalidParameterError(f"{name}={value} out of range")

    @property
    def total_bits(self) -> int:
        return HEADER_BITS + self.payload.length


def message_encode(msg: WireMessage) -> bytes:
    header = _HEADER_STRUCT.pack(
        MAGIC,
        SCHEME_BYTES[msg.scheme],
        msg.n,
        msg.d,
        msg.k,
        msg.seed,
        msg.payload.length,
    )
    return header + msg.payload.data


def message_decode(buf: bytes) -> WireMessage:
    if len(buf) < HEADER_BYTES:
        raise LengthMismatchError(
            f"buffer of {len(buf)} bytes is shorter than the {HEADER_BYTES}-byte header"
        )
    magic, scheme_byte, n, d, k, seed, bitlen = _HEADER_STRUCT.unpack_from(buf)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if scheme_byte not in SCHEME_NAMES:
        raise UnknownSchemeError(f"unknown scheme byte {scheme_byte}")
    payload_bytes = (bitlen + 7) // 8
    if len(buf) != HEADER_BYTES + payload_bytes:
        raise LengthMismatchError(
            f"declared {bitlen} payload bits ({payload_bytes} bytes), "
            f"buffer carries {len(buf) - HEADER_BYTES}"
        )
    data = buf[HEADER_BYTES:]
    pad = payload_bytes * 8 - bitlen
    if pad and (data[-1] & ((1 << pad) - 1)):
        raise MalformedStreamError("nonzero padding bits", bitlen)
    return WireMessage(
        scheme=SCHEME_NAMES[scheme_byte],
        n=n,
        d=d,
        k=k,
        seed=seed,
        payload=BitStream(data, bitlen),
    )
