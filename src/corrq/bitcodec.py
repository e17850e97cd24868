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

Many messages sharing one routing header (a trial's n client messages)
travel as one frame: their headers back to back, then their payloads
back to back (BitRows), so that both sides work on arrays.
frame_encode/frame_decode are the one serializer; message_encode and
message_decode are their one-message case, where a frame is exactly the
message above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

# the header layout above, packed and little-endian (struct "<4sBIIHQI")
HEADER_DTYPE = np.dtype([
    ("magic", "S4"), ("scheme", "u1"), ("n", "<u4"), ("d", "<u4"),
    ("k", "<u2"), ("seed", "<u8"), ("bits", "<u4"),
])
_KNOWN_SCHEME_BYTES = np.isin(np.arange(256), list(SCHEME_NAMES))
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
        self.reason = message
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

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitStream":
        arr = np.asarray(list(bits), dtype=np.uint8)
        if arr.size and arr.max() > 1:
            raise InvalidParameterError("bits must be 0 or 1")
        return cls(data=np.packbits(arr).tobytes(), length=int(arr.size))


@dataclass(frozen=True, eq=False)
class BitRows:
    """Bit strings stored back to back, each padded to whole bytes with
    zero bits: row i holds lengths[i] bits. Indexing and iteration give
    the rows as BitStreams."""

    data: np.ndarray     # uint8, every row's bytes
    lengths: np.ndarray  # int64 bit length of each row
    ends: np.ndarray = field(init=False, repr=False)  # byte end of each row

    def __post_init__(self) -> None:
        ends = np.cumsum((self.lengths + 7) >> 3)
        if self.data.size != (ends[-1] if ends.size else 0):
            raise LengthMismatchError(
                f"{len(ends)} rows of {int(self.lengths.sum())} bits do not fill "
                f"{self.data.size} bytes"
            )
        object.__setattr__(self, "ends", ends)

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "BitRows":
        """Equal-length rows from a (rows, m) 0/1 array."""
        return cls(
            np.packbits(bits, axis=-1).ravel(),
            np.full(len(bits), bits.shape[1], dtype=np.int64),
        )

    @classmethod
    def from_streams(cls, streams: Sequence[BitStream]) -> "BitRows":
        return cls(
            np.frombuffer(b"".join(s.data for s in streams), dtype=np.uint8),
            np.array([s.length for s in streams], dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i: int) -> BitStream:
        i = range(len(self))[i]
        start = int(self.ends[i - 1]) if i > 0 else 0
        return BitStream(self.data[start : self.ends[i]].tobytes(), int(self.lengths[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def bit_matrix(self) -> np.ndarray:
        """The rows' bits as a (rows, m) 0/1 array, for equal-length rows."""
        m = int(self.lengths[0]) if len(self) else 0
        if (self.lengths != m).any():
            raise LengthMismatchError("rows differ in length")
        return np.unpackbits(self.data.reshape(len(self), -1), axis=-1, count=m)


# ---------------------------------------------------------------------------
# Elias gamma
# ---------------------------------------------------------------------------


def elias_gamma_encode(value: int) -> BitStream:
    """Gamma code of one positive integer.

    A value v with b significant bits encodes as b-1 zeros followed by the
    b bits of v, equivalently v written MSB-first in width 2b-1. Examples:
    1 -> "1", 2 -> "010", 5 -> "00101". Exact for values of any size.
    """
    if value < 1:
        raise InvalidParameterError(f"gamma code needs value >= 1, got {value}")
    width = 2 * int(value).bit_length() - 1
    size = (width + 7) // 8
    return BitStream((int(value) << (8 * size - width)).to_bytes(size, "big"), width)


def _int64_values(values) -> np.ndarray:
    """values as an int64 array. Integer dtypes and exactly integral
    floats are accepted when every value fits in int64; anything else
    raises InvalidParameterError rather than being rounded or wrapped."""
    v = np.asarray(values)
    if v.dtype.kind == "f":
        if not (v == np.floor(v)).all():
            raise InvalidParameterError("values must be integers")
        if not ((v >= -(2.0**63)) & (v < 2.0**63)).all():
            raise InvalidParameterError("a value does not fit in int64")
    elif v.dtype.kind == "u":
        if v.size and v.max() >= 1 << 63:
            raise InvalidParameterError("a value does not fit in int64")
    elif v.dtype.kind != "i":
        raise InvalidParameterError(
            f"values must be integers that fit in int64, got dtype {v.dtype}"
        )
    return v.astype(np.int64, copy=False)


def elias_gamma_encode_many(values: Sequence[int] | np.ndarray) -> BitStream:
    """Concatenated gamma codes of positive int64 values."""
    v = _int64_values(values).ravel()
    return elias_gamma_encode_rows(v, [v.size])[0]


def elias_gamma_encode_rows(values, counts) -> BitRows:
    """Rows of concatenated gamma codes: row i holds the codes of the
    next counts[i] of the positive int64 values, padded to a byte.

    The code of v is v written MSB-first in 2 bitlen(v) - 1 bits, so its
    leading zeros add no bits: v only has to end where its codeword ends,
    at the cumulative codeword widths plus the padding of the rows
    before. The values go into big-endian 64-bit words. Codewords never
    overlap, so one sum per word is their OR, and a value that crosses
    into a word from the one before spills its high part there.
    """
    v = _int64_values(values).ravel()
    counts = _int64_values(counts).ravel()
    if counts.size and counts.min() < 0 or counts.sum() != v.size:
        raise InvalidParameterError(f"row counts do not split {v.size} values")
    if v.size and v.min() < 1:
        raise InvalidParameterError("gamma code needs values >= 1")
    pos = np.int32 if v.size < 1 << 24 else np.int64  # codewords are < 128 bits
    _, b = np.frexp(v)  # bit lengths; the float of v >= 2**53 may round up
    if v.size and v.max() >= 1 << 53:
        b -= (v >> (b - 1)) == 0
    b = b.astype(pos, copy=False)
    ends = np.zeros(v.size + 1, dtype=pos)
    np.cumsum(2 * b - 1, out=ends[1:])
    lengths = np.diff(ends[np.cumsum(counts)], prepend=0).astype(np.int64)
    pad = -lengths & 7
    last = ends[1:]  # the last bit of each value, after the rows' padding
    last += np.repeat((np.cumsum(pad) - pad - 1).astype(pos), counts)
    word = last >> 6
    shift = np.bitwise_and(last, 63, out=last)
    np.subtract(63, shift, out=shift)
    u = v.view(np.uint64)
    spill = np.flatnonzero(shift + b > 64)
    high = u[spill] >> (64 - shift[spill]).astype(np.uint64)
    low = shift.astype(np.uint64)
    np.left_shift(u, low, out=low)
    size = int((lengths + pad).sum()) >> 3
    words = np.zeros((size + 7) >> 3, dtype=np.uint64)
    if v.size:
        seg = np.flatnonzero(word[1:] != word[:-1])
        seg = np.concatenate([[0], seg + 1])
        words[word[seg]] = np.add.reduceat(low, seg)
        words[word[spill] - 1] += high
    return BitRows(words.astype(">u8").view(np.uint8)[:size], lengths)


_DECODE_WINDOW = 1 << 21  # bits per vectorized pass; bounds the position arrays


def elias_gamma_decode(stream: BitStream) -> list[int]:
    """Decode a whole stream of gamma codes back to positive integers of
    any size. Consumes every bit; truncated or dangling input raises
    MalformedStreamError with the offending bit offset."""
    _, values, wide = _gamma_decode(stream.bits(), np.frombuffer(stream.data, np.uint8))
    out = values.tolist()
    for i, value in wide:
        out[i] = value
    return out


def elias_gamma_decode_rows(rows: BitRows, counts) -> np.ndarray:
    """The int64 values of rows of gamma codes, row i holding counts[i]
    codewords; the inverse of elias_gamma_encode_rows.

    The rows' padding is dropped and the joined bits are decoded as one
    stream. The rows are as counted when the stream holds sum(counts)
    codewords and each nonempty row's first codeword starts at the row's
    first bit (empty rows hold no bits). Otherwise, or when the joined
    stream does not decode or a value exceeds int64, the first faulty row
    decoded alone raises MalformedStreamError at a bit offset inside it,
    counted from the start of rows.data.
    """
    counts = _int64_values(counts)
    if counts.shape != (len(rows),) or (counts.size and counts.min() < 0):
        raise InvalidParameterError(f"need {len(rows)} nonnegative row counts")
    pad = -rows.lengths & 7
    spots = 8 * rows.ends[:, None] - 1 - np.arange(7)  # each row's last 7 bits
    spots = spots[np.arange(7) < pad[:, None]]
    padded = np.unpackbits(rows.data)
    nonzero = spots[padded[spots] == 1]
    if nonzero.size:
        raise MalformedStreamError("nonzero padding bits", int(nonzero.min()))
    keep = np.ones(padded.size, dtype=bool)
    keep[spots] = False
    bits = padded[keep]
    del padded, keep
    try:
        starts, values, wide = _gamma_decode(bits, np.packbits(bits))
    except MalformedStreamError:
        raise _row_fault(rows, counts) from None
    firsts, full = np.cumsum(counts) - counts, counts > 0
    bounds = np.cumsum(rows.lengths) - rows.lengths
    if (
        starts.size != counts.sum()
        or rows.lengths[~full].any()
        or not np.array_equal(starts[firsts[full]], bounds[full])
        or any(value >= 1 << 63 for _, value in wide)
    ):
        raise _row_fault(rows, counts)
    for i, value in wide:
        values[i] = value
    return values


def _row_fault(rows: BitRows, counts: np.ndarray) -> MalformedStreamError:
    """The error of the first row that does not decode alone to
    counts[i] int64 values, at its offset in rows.data."""
    for i, row in enumerate(rows):
        first = 8 * int(rows.ends[i] - (rows.lengths[i] + 7 >> 3))
        want = int(counts[i])
        try:
            starts, _, wide = _gamma_decode(row.bits(), np.frombuffer(row.data, "u1"))
        except MalformedStreamError as err:
            return MalformedStreamError(f"row {i}: {err.reason}", first + err.bit_offset)
        if starts.size > want:
            return MalformedStreamError(
                f"row {i} holds more than {want} codewords", first + int(starts[want])
            )
        if starts.size < want:
            return MalformedStreamError(
                f"row {i} holds {starts.size} of {want} codewords", first
            )
        for j, value in wide:
            if value >= 1 << 63:
                return MalformedStreamError(
                    f"row {i}: gamma value exceeds int64", first + int(starts[j])
                )
    raise AssertionError("every row decodes alone, so the joined rows decode")


def _gamma_decode(bits: np.ndarray, data: np.ndarray):
    """The codewords of a whole 0/1 stream `bits`, packed as `data`:
    their start bits, their int64 values (exact below 2**57) and
    (index, value) pairs that give the wider values as Python ints.

    A codeword that starts at bit s has its leading one at lead(s), the
    first one at or after s, and the next codeword starts at
    2 lead(s) - s + 1. That jump is computed for every bit of a window at
    once; the chain of starts is walked 32 codewords per Python step and
    filled in by array gathers. A window ends before the first codeword
    that crosses it (and doubles when one codeword is longer than the
    whole window). Truncated or dangling input raises MalformedStreamError
    with the offending bit offset.
    """
    dtype = np.int32 if bits.size < 1 << 31 else np.int64
    starts, values, wide = [np.zeros(0, dtype)], [np.zeros(0, np.int64)], []
    start, window, count = 0, _DECODE_WINDOW, 0
    while start < bits.size:
        part_starts, part_values, part_wide, done = _decode_window(
            bits, data, start, min(bits.size, start + window)
        )
        if done == 0:
            window *= 2
            continue
        starts.append(np.add(part_starts, start, dtype=dtype))
        values.append(part_values)
        wide += [(count + i, value) for i, value in part_wide]
        count += part_starts.size
        start += done
    return np.concatenate(starts), np.concatenate(values), wide


def _decode_window(bits, data, start: int, stop: int):
    """The codewords from bit `start` that end by `stop`, as _gamma_decode
    gives them but with starts counted from `start`, and the length of
    bits they fill; at the end of the stream a codeword that does not end
    there raises."""
    size = stop - start
    pos = np.arange(size, dtype=np.int32 if size < 1 << 30 else np.int64)
    # jump: each bit's codeword end, via its lead; size (clean end) and
    # size + 1 (overrun) are fixed points
    jump = np.empty(size + 2, dtype=pos.dtype)
    ends = jump[:size]
    np.minimum.accumulate(
        np.where(bits[start:stop].view(bool), pos, size)[::-1], out=ends[::-1]
    )
    ends *= 2
    ends -= pos
    ends += 1
    np.minimum(ends, size + 1, out=ends)
    jump[size:] = size, size + 1
    del pos, ends
    far, spare = np.take(jump, jump), np.empty_like(jump)
    for _ in range(4):  # 32 codewords ahead
        np.take(far, far, out=spare, mode="clip")
        far, spare = spare, far
    del spare
    coarse, at = [], 0
    while at < size:
        coarse.append(at)
        at = far.item(at)
    del far
    chain = [np.array(coarse, dtype=jump.dtype)]
    for _ in range(31):
        chain.append(jump[chain[-1]])
    starts = np.stack(chain, axis=1).ravel()
    starts = starts[starts < size]
    last, end = int(starts[-1]), int(jump[starts[-1]])
    if end <= size:
        last = size
    elif stop < bits.size:  # the codeword at last continues past the window
        starts = starts[:-1]
    elif not bits[start + last : stop].any():
        raise MalformedStreamError("zero run reaches end of stream", start + last)
    else:
        raise MalformedStreamError("truncated gamma codeword", start + last)
    # a codeword ends where the next starts, and its value is its last
    # (end - start + 1) / 2 bits: the top bits of the 64-bit word at its
    # leading one
    width = np.append(starts[1:], last) - starts
    width += 1
    width >>= 1
    at = starts + width - 1 + (start & 7)  # counted from byte start >> 3
    words = _byte_words(data, start >> 3, (stop + 7) >> 3)[at >> 3]
    words <<= (at & 7).astype(np.uint64)
    words >>= (64 - np.minimum(width, 57)).astype(np.uint64)
    wide = []
    for i in np.flatnonzero(width > 57):  # values of 2**57 and up
        first = start + int(starts[i]) + int(width[i]) - 1
        value = bits[first : first + int(width[i])]
        wide.append((int(i), int("".join(map(str, value)), 2)))
    return starts, words.view(np.int64), wide, last


def _byte_words(data: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The big-endian uint64 that starts at each of the bytes lo..hi-1 of
    data, reading zeros past its end."""
    chunk = np.zeros(hi - lo + 8, dtype=np.uint8)
    piece = data[lo : hi + 7]
    chunk[: piece.size] = piece
    words = np.empty(hi - lo, dtype=np.uint64)
    for j in range(8):
        words[j::8] = chunk[j : j + 8 * len(range(j, hi - lo, 8))].view(">u8")
    return words


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
    row = fixed_width_bits(np.asarray(indices, dtype=np.int64).reshape(1, -1), k)
    return BitRows.from_bits(row)[0]


def unpack_fixed(stream: BitStream, k: int) -> np.ndarray:
    """Inverse of pack_fixed; the count is implied by the stream length."""
    return fixed_width_indices(BitRows.from_streams([stream]).bit_matrix(), k)[0]


def fixed_width_bits(indices: np.ndarray, k: int) -> np.ndarray:
    """The indices of each row of a (rows, m) array in [0, k) at
    ceil(log2 k) bits each, big-endian: a (rows, m * width) 0/1 array."""
    width = fixed_width(k)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= k):
        raise InvalidParameterError(f"indices outside [0, {k})")
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((idx[..., None] >> shifts) & 1).astype(np.uint8).reshape(len(idx), -1)


def fixed_width_indices(bits: np.ndarray, k: int) -> np.ndarray:
    """Inverse of fixed_width_bits: the (rows, m) indices of a 0/1 array."""
    width = fixed_width(k)
    length = bits.shape[1]
    if length % width != 0:
        raise LengthMismatchError(
            f"{length} bits is not a multiple of width {width}"
        )
    weights = np.int64(1) << np.arange(width - 1, -1, -1, dtype=np.int64)
    idx = bits.reshape(len(bits), -1, width).astype(np.int64) @ weights
    if idx.size and idx.max() >= k:
        row, col = np.argwhere(idx >= k)[0]
        raise MalformedStreamError(
            f"index {int(idx[row, col])} >= k={k}", int(col) * width
        )
    return idx


# ---------------------------------------------------------------------------
# Zig-zag mapping for variable-length level coding
# ---------------------------------------------------------------------------


def _zigzag_values(k: int) -> np.ndarray:
    """The zig-zag value of each level index 0..k-1, center-first.

    Deltas from the grid midpoint k//2 interleave as 0, -1, +1, -2, ...
    -> 1, 2, 3, 4, ..., so the central levels (where ball-bounded
    coordinates concentrate) get the shortest codewords: [0, k) maps
    onto [1, k].
    """
    delta = np.arange(k, dtype=np.int64) - k // 2
    return np.where(delta >= 0, 2 * delta, -2 * delta - 1) + 1


def zigzag_encode(indices: np.ndarray, k: int) -> np.ndarray:
    """Map level indices to gamma-codable values (see _zigzag_values)."""
    idx = _int64_values(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= k):
        raise InvalidParameterError(f"indices outside [0, {k})")
    return _zigzag_values(k)[idx]


def zigzag_decode(values: np.ndarray, k: int) -> np.ndarray:
    """Inverse of zigzag_encode; rejects values outside [1, k] at their
    position."""
    v = np.asarray(values, dtype=np.int64)
    bad = (v < 1) | (v > k)
    if bad.any():
        at = int(np.argmax(bad.ravel()))
        raise MalformedStreamError(
            f"zig-zag value {int(v.flat[at])} outside [1, {k}]", at
        )
    table = np.empty(k + 1, dtype=np.int64)
    table[_zigzag_values(k)] = np.arange(k)
    return table[v]


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
        _check_header(self.scheme, self.n, self.d, self.k, self.seed)

    @property
    def total_bits(self) -> int:
        return HEADER_BITS + self.payload.length


def _check_header(scheme: str, n: int, d: int, k: int, seed: int) -> None:
    if scheme not in SCHEME_BYTES:
        raise UnknownSchemeError(f"unknown scheme {scheme!r}")
    for name, value in (("n", n), ("d", d), ("k", k), ("seed", seed)):
        if not 0 <= value < HEADER_LIMITS[name]:
            raise InvalidParameterError(f"{name}={value} out of range")


def frame_encode(
    scheme: str, n: int, d: int, k: int, seed: int, payloads: BitRows
) -> bytes:
    """One message per payload row, all with the routing header (scheme,
    n, d, k, seed): the headers back to back, then the payloads back to
    back. Header i followed by payload i is message i's bytes."""
    _check_header(scheme, n, d, k, seed)
    if payloads.lengths.size and payloads.lengths.max() >= 1 << 32:
        raise InvalidParameterError("payload longer than 2**32 - 1 bits")
    head = np.zeros(len(payloads), dtype=HEADER_DTYPE)
    head["magic"] = MAGIC
    head["scheme"] = SCHEME_BYTES[scheme]
    head["n"], head["d"], head["k"], head["seed"] = n, d, k, seed
    head["bits"] = payloads.lengths
    return head.tobytes() + payloads.data.tobytes()


def frame_decode(buf: bytes, rows: int) -> tuple[np.ndarray, BitRows]:
    """The headers (a HEADER_DTYPE array) and payloads of a frame of
    `rows` messages. Each check runs over every row, in message_decode's
    order, and raises its error: BadMagicError, UnknownSchemeError,
    LengthMismatchError when the declared bit lengths do not fill the
    buffer, MalformedStreamError on nonzero padding."""
    size = rows * HEADER_BYTES
    if len(buf) < size:
        raise LengthMismatchError(
            f"buffer of {len(buf)} bytes is shorter than {rows} "
            f"{HEADER_BYTES}-byte headers"
        )
    head = np.frombuffer(buf, dtype=HEADER_DTYPE, count=rows)
    bad = np.flatnonzero(head["magic"] != MAGIC)
    if bad.size:
        start = int(bad[0]) * HEADER_BYTES
        raise BadMagicError(f"message {bad[0]}: bad magic {bytes(buf[start : start + 4])!r}")
    bad = np.flatnonzero(~_KNOWN_SCHEME_BYTES[head["scheme"]])
    if bad.size:
        raise UnknownSchemeError(
            f"message {bad[0]}: unknown scheme byte {head['scheme'][bad[0]]}"
        )
    bits = head["bits"].astype(np.int64)
    payloads = BitRows(np.frombuffer(buf, dtype=np.uint8, offset=size), bits)
    pad = ((bits + 7) >> 3) * 8 - bits
    padded = np.flatnonzero(pad)
    last = payloads.data[payloads.ends[padded] - 1]
    bad = padded[(last & ((1 << pad[padded]) - 1)) != 0]
    if bad.size:
        raise MalformedStreamError(
            f"message {bad[0]}: nonzero padding bits", int(bits[bad[0]])
        )
    return head, payloads


def message_encode(msg: WireMessage) -> bytes:
    return frame_encode(
        msg.scheme, msg.n, msg.d, msg.k, msg.seed, BitRows.from_streams([msg.payload])
    )


def message_decode(buf: bytes) -> WireMessage:
    head, payloads = frame_decode(buf, 1)
    h = head[0]
    return WireMessage(
        scheme=SCHEME_NAMES[int(h["scheme"])],
        n=int(h["n"]),
        d=int(h["d"]),
        k=int(h["k"]),
        seed=int(h["seed"]),
        payload=payloads[0],
    )
