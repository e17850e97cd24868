"""Bitstream primitives, entropy codes, and the wire format."""

import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrq import bitcodec as bc

# Textbook gamma codewords.
GAMMA_TABLE = {
    1: "1",
    2: "010",
    3: "011",
    4: "00100",
    5: "00101",
    6: "00110",
    7: "00111",
    8: "0001000",
    9: "0001001",
    16: "000010000",
    100: "0000001100100",
    1_000_000: "000000000000000000011110100001001000000",
}


def from_text(text: str) -> bc.BitStream:
    """The BitStream of a string of 0s and 1s."""
    return bc.BitStream.from_bits(map(int, text))


def as_text(stream: bc.BitStream) -> str:
    """A BitStream's bits as a string of 0s and 1s."""
    return "".join(map(str, stream.bits()))


class TestBitStream:
    def test_round_trips(self):
        s = from_text("1011001")
        assert s.length == 7
        assert as_text(s) == "1011001"
        assert list(s.bits()) == [1, 0, 1, 1, 0, 0, 1]
        assert bc.BitStream.from_bits(s.bits()) == s

    def test_empty(self):
        s = bc.BitStream(b"", 0)
        assert len(s) == 0
        assert s.bits().size == 0

    def test_validation(self):
        with pytest.raises(bc.InvalidParameterError):
            bc.BitStream(b"\x01", 16)
        with pytest.raises(bc.MalformedStreamError) as err:
            bc.BitStream(b"\x01", 4)  # nonzero padding, owned by BitRows
        assert err.value.bit_offset == 4
        with pytest.raises(bc.InvalidParameterError):
            bc.BitStream.from_bits([0, 2])

    def test_msb_first_layout(self):
        s = from_text("10000001")
        assert s.data == b"\x81"


class TestBitRows:
    @pytest.mark.parametrize("data, lengths, offset", [
        ([0b10100001], [4], 4),                   # bits 1010, padding 0001
        ([0b10000000, 0b11100000], [1, 2], 10),   # row 1 pads with 100000
        ([0b01000000, 0b00000011], [2, 3], 11),   # row 1 pads with 00011
    ])
    def test_nonzero_padding_is_rejected_at_the_row_padding(self, data, lengths, offset):
        with pytest.raises(bc.MalformedStreamError) as err:
            bc.BitRows(np.array(data, dtype=np.uint8), np.array(lengths))
        assert err.value.bit_offset == offset

    def test_rows_without_padding(self):
        rows = bc.BitRows(np.array([0xFF, 0x80], dtype=np.uint8), np.array([8, 0, 1]))
        assert [as_text(r) for r in rows] == ["1" * 8, "", "1"]


class TestGamma:
    def test_known_codewords(self):
        for value, code in GAMMA_TABLE.items():
            assert as_text(bc.elias_gamma_encode(value)) == code
            assert bc.elias_gamma_decode(from_text(code)) == [
                value
            ]

    def test_encode_many_equals_concatenation(self):
        values = [1, 2, 3, 7, 100, 65535, 12]
        many = bc.elias_gamma_encode_many(values)
        joined = "".join(
            as_text(bc.elias_gamma_encode(v)) for v in values
        )
        assert as_text(many) == joined
        assert bc.elias_gamma_decode(many) == values

    def test_rejects_nonpositive(self):
        with pytest.raises(bc.InvalidParameterError):
            bc.elias_gamma_encode(0)
        with pytest.raises(bc.InvalidParameterError):
            bc.elias_gamma_encode_many([3, 0])

    def test_truncation_reports_offset(self):
        stream = bc.elias_gamma_encode_many([1, 9])
        clipped = bc.BitStream.from_bits(stream.bits()[:-2])
        with pytest.raises(bc.MalformedStreamError) as err:
            bc.elias_gamma_decode(clipped)
        assert err.value.bit_offset == 1

    def test_dangling_zeros_rejected(self):
        with pytest.raises(bc.MalformedStreamError):
            bc.elias_gamma_decode(from_text("100"))


class TestFixedWidth:
    def test_width(self):
        assert bc.fixed_width(2) == 1
        assert bc.fixed_width(3) == 2
        assert bc.fixed_width(4) == 2
        assert bc.fixed_width(5) == 3
        assert bc.fixed_width(1024) == 10

    def test_round_trip(self):
        idx = np.array([0, 3, 7, 5, 1])
        s = bc.pack_fixed(idx, 8)
        assert s.length == 15
        assert np.array_equal(bc.unpack_fixed(s, 8), idx)

    def test_rejects_out_of_alphabet(self):
        with pytest.raises(bc.InvalidParameterError):
            bc.pack_fixed([4], 4)

    def test_unpack_length_check(self):
        s = bc.pack_fixed([1, 2, 3], 5)
        bad = bc.BitStream.from_bits(s.bits()[:-1])
        with pytest.raises(bc.LengthMismatchError):
            bc.unpack_fixed(bad, 5)

    def test_unpack_rejects_foreign_index(self):
        # width-3 pattern 111 decodes to 7, outside a 5-letter alphabet
        bad = from_text("111")
        with pytest.raises(bc.MalformedStreamError):
            bc.unpack_fixed(bad, 5)

    def test_rows_match_one_at_a_time(self):
        rng = np.random.default_rng(3)
        for k, m in ((2, 1), (5, 7), (16, 33), (3, 0)):
            idx = rng.integers(0, k, size=(6, m))
            rows = bc.BitRows.from_bits(bc.fixed_width_bits(idx, k))
            assert list(rows) == [bc.pack_fixed(row, k) for row in idx]
            assert np.array_equal(bc.fixed_width_indices(rows.bit_matrix(), k), idx)

    def test_rows_reject_unequal_lengths(self):
        rows = [bc.pack_fixed([1, 2], 4), bc.pack_fixed([1], 4)]
        with pytest.raises(bc.LengthMismatchError):
            bc.BitRows.from_streams(rows).bit_matrix()

    def test_rows_report_foreign_index_position(self):
        rows = [from_text("001010"),
                from_text("000111")]
        with pytest.raises(bc.MalformedStreamError) as err:
            bc.fixed_width_indices(bc.BitRows.from_streams(rows).bit_matrix(), 5)
        assert err.value.bit_offset == 3


class TestZigzag:
    def test_center_first(self):
        # indices nearest the midpoint map to the smallest codeword values
        order = np.argsort(bc.zigzag_encode(np.arange(5), 5))
        assert order[0] == 2

    def test_round_trip_all_k(self):
        for k in range(2, 40):
            idx = np.arange(k)
            assert np.array_equal(
                bc.zigzag_decode(bc.zigzag_encode(idx, k), k), idx
            )

    def test_rejects_foreign_values(self):
        with pytest.raises(bc.MalformedStreamError):
            bc.zigzag_decode(np.array([200]), 4)
        with pytest.raises(bc.InvalidParameterError):
            bc.zigzag_encode(np.array([9]), 4)


class TestWireMessage:
    def test_header_layout_byte_for_byte(self):
        payload = from_text("10110")
        msg = bc.WireMessage(
            scheme="correlated-klevel", n=300, d=70000, k=16,
            seed=0x1122334455667788, payload=payload,
        )
        buf = bc.message_encode(msg)
        expected = struct.pack(
            "<4sBIIHQI", b"CQ01", 2, 300, 70000, 16, 0x1122334455667788, 5
        ) + bytes([0b10110000])
        assert buf == expected
        assert bc.message_decode(buf) == msg
        assert msg.total_bits == 216 + 5

    def test_scheme_bytes_are_pinned(self):
        assert bc.SCHEME_BYTES == {
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

    def test_bad_magic(self):
        buf = bytearray(bc.message_encode(_msg()))
        buf[0] = ord("X")
        with pytest.raises(bc.BadMagicError):
            bc.message_decode(bytes(buf))

    def test_unknown_scheme_byte(self):
        buf = bytearray(bc.message_encode(_msg()))
        buf[4] = 77
        with pytest.raises(bc.UnknownSchemeError):
            bc.message_decode(bytes(buf))

    def test_length_mismatch(self):
        buf = bc.message_encode(_msg())
        with pytest.raises(bc.LengthMismatchError):
            bc.message_decode(buf + b"\x00")
        with pytest.raises(bc.LengthMismatchError):
            bc.message_decode(buf[:10])

    def test_nonzero_padding_rejected(self):
        buf = bytearray(bc.message_encode(_msg()))
        buf[-1] |= 1
        with pytest.raises(bc.MalformedStreamError):
            bc.message_decode(bytes(buf))

    def test_all_errors_are_value_errors(self):
        for exc in (
            bc.InvalidParameterError,
            bc.MalformedStreamError,
            bc.BadMagicError,
            bc.UnknownSchemeError,
            bc.LengthMismatchError,
        ):
            assert issubclass(exc, bc.CodecError)
            assert issubclass(exc, ValueError)


def _msg() -> bc.WireMessage:
    return bc.WireMessage(
        scheme="correlated-1bit", n=4, d=2, k=2, seed=99,
        payload=from_text("1010"),
    )


def gamma_text(values) -> str:
    """Textbook gamma codewords of values, joined, as 0s and 1s."""
    return "".join("0" * (int(v).bit_length() - 1) + format(int(v), "b") for v in values)


def gamma_decode_bit_by_bit(text: str):
    """Reference decoder: one bit at a time; values, or ("error", offset).
    A codeword with 63 or more leading zeros holds a value past int64."""
    out, pos = [], 0
    while pos < len(text):
        zeros = len(text[pos:]) - len(text[pos:].lstrip("0"))
        if zeros >= 63 or pos + zeros == len(text):
            return ("error", pos)
        if pos + 2 * zeros + 1 > len(text):
            return ("error", pos)
        out.append(int(text[pos + zeros : pos + 2 * zeros + 1], 2))
        pos += 2 * zeros + 1
    return out


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="01", max_size=120))
def test_gamma_decode_matches_bit_by_bit_reference(text):
    want = gamma_decode_bit_by_bit(text)
    try:
        got = bc.elias_gamma_decode(from_text(text))
    except bc.MalformedStreamError as err:
        got = ("error", err.bit_offset)
    assert got == want


def test_gamma_decode_across_small_windows(monkeypatch):
    # 128-bit windows, the least that holds every int64 codeword:
    # codewords cross window ends, and a codeword of a value past int64
    # may be longer than a whole window
    monkeypatch.setattr(bc, "_DECODE_WINDOW", 128)
    rnd = random.Random(5)
    for trial in range(400):
        values = [
            rnd.getrandbits(b) | 1 << (b - 1)
            for b in (rnd.randint(1, 63) for _ in range(rnd.randint(0, 25)))
        ]
        codes = [as_text(bc.elias_gamma_encode(v)) for v in values]
        if trial % 4 == 3:  # a codeword of a value of 64 to 101 bits
            b = rnd.randint(64, 101)
            value = rnd.getrandbits(b) | 1 << (b - 1)
            codes.insert(rnd.randint(0, len(codes)), gamma_text([value]))
        text = "".join(codes)
        if trial % 4 == 1:
            text = text[: rnd.randint(0, len(text))]
        elif trial % 4 == 2:
            text += "0" * rnd.randint(1, 200)
        want = gamma_decode_bit_by_bit(text)
        try:
            got = bc.elias_gamma_decode(from_text(text))
        except bc.MalformedStreamError as err:
            got = ("error", err.bit_offset)
        assert got == want, text


def test_gamma_decode_values_to_the_int64_limit():
    values = [2**56 - 1, 2**56, 2**57, 2**62 + 5, 2**63 - 1, 3]
    for p in range(8):  # every value at every bit offset within a byte
        text = "1" * p + "".join(as_text(bc.elias_gamma_encode(v)) for v in values)
        assert bc.elias_gamma_decode(from_text(text)) == [1] * p + values


@pytest.mark.parametrize("text, offset", [
    pytest.param("0" * 63 + "1" + "0" * 63, 0, id="2^63"),
    pytest.param("1" + "0" * 63 + "1" + "1" * 63, 1, id="2^64-1"),
    pytest.param("011" + "0" * 200 + "1" + "0" * 200, 3, id="2^200"),
    pytest.param("0" * 2**22 + "1", 0, id="longer-than-a-window"),
])
def test_gamma_decode_rejects_values_past_int64(monkeypatch, text, offset):
    assert gamma_decode_bit_by_bit(text) == ("error", offset)
    windows = []
    decode_window = bc._decode_window
    monkeypatch.setattr(
        bc, "_decode_window", lambda *a: windows.append(a[3] - a[2]) or decode_window(*a)
    )
    bits = np.frombuffer(text.encode(), np.uint8) - ord("0")
    with pytest.raises(bc.MalformedStreamError) as err:
        bc.elias_gamma_decode(bc.BitStream(np.packbits(bits).tobytes(), bits.size))
    assert err.value.bit_offset == offset
    assert windows == [min(len(text), bc._DECODE_WINDOW)]  # no window grows


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=2**63 - 1))
def test_gamma_encode_writes_the_code_of_any_int64(value):
    assert as_text(bc.elias_gamma_encode(value)) == gamma_text([value])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=2**62), max_size=80))
def test_gamma_encode_many_is_the_concatenation_of_single_codes(values):
    joined = "".join(as_text(bc.elias_gamma_encode(v)) for v in values)
    assert as_text(bc.elias_gamma_encode_many(values)) == joined


def test_gamma_encode_many_across_blocks():
    values = np.random.default_rng(3).integers(1, 2**20, size=65_543)
    assert as_text(bc.elias_gamma_encode_many(values)) == gamma_text(values)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=2**40), max_size=60))
def test_gamma_round_trip(values):
    stream = bc.elias_gamma_encode_many(values)
    assert bc.elias_gamma_decode(stream) == values


class TestIntegerBoundary:
    def test_fractional_values_are_rejected_not_truncated(self):
        with pytest.raises(bc.InvalidParameterError):
            bc.elias_gamma_encode_many([2.7, 3])
        with pytest.raises(bc.InvalidParameterError):
            bc.zigzag_encode(np.array([1.9]), 4)
        with pytest.raises(bc.InvalidParameterError):
            bc.elias_gamma_encode_rows([1, 2], [1.5, 0.5])

    def test_integral_floats_are_the_integers(self):
        assert bc.elias_gamma_encode_many([2.0, 3.0]) == bc.elias_gamma_encode_many([2, 3])
        assert bc.zigzag_encode(np.array([1.0]), 4).tolist() == [2]
        assert bc.pack_fixed([1.0, 3.0], 4) == bc.pack_fixed([1, 3], 4)

    @pytest.mark.parametrize("values", [
        [2**63 + 1], [2**64 + 1], [2**63], [2.0**63], [float("nan")],
        [float("inf")], np.array([2**63], dtype=np.uint64), ["3"],
    ])
    def test_values_outside_int64_are_a_typed_error(self, values):
        with pytest.raises(bc.InvalidParameterError):
            bc.elias_gamma_encode_many(values)
        with pytest.raises(bc.InvalidParameterError):
            bc.elias_gamma_encode(values[0])

    def test_int64_limits(self):
        top = 2**63 - 1
        assert as_text(bc.elias_gamma_encode_many([top])) == gamma_text([top])
        with pytest.raises(bc.InvalidParameterError):
            bc.zigzag_encode(np.array([2**63], dtype=np.uint64), 4)

    @pytest.mark.parametrize("indices", [[1.9, 2.5], ["1"], [2**63], [2**64]])
    def test_fixed_width_indices_are_checked_not_truncated(self, indices):
        # rejected, not cast: [1.9, 2.5] would pack as [1, 2]
        with pytest.raises(bc.InvalidParameterError):
            bc.pack_fixed(indices, 4)
        with pytest.raises(bc.InvalidParameterError):
            bc.fixed_width_bits(np.array([indices]), 4)


def rows_reference(rows):
    """Each row's elias_gamma_encode_many, padded to a byte."""
    return bc.BitRows.from_streams([bc.elias_gamma_encode_many(row) for row in rows])


def encode_rows(rows):
    values = np.array([v for row in rows for v in row], dtype=np.int64)
    return bc.elias_gamma_encode_rows(values, [len(row) for row in rows])


def assert_same_rows(got, want):
    assert got.lengths.tolist() == want.lengths.tolist()
    assert got.data.tobytes() == want.data.tobytes()


GAMMA_VALUE = st.one_of(
    st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=2**62)
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(GAMMA_VALUE, max_size=12), max_size=8))
def test_gamma_rows_are_the_padded_per_row_codes(rows):
    # ragged rows, empty rows and no rows at all
    counts = [len(row) for row in rows]
    got = encode_rows(rows)
    assert_same_rows(got, rows_reference(rows))
    assert bc.elias_gamma_decode_rows(got, counts).tolist() == [v for r in rows for v in r]


def test_gamma_rows_at_every_word_alignment():
    # after p one-bit codewords a wide value sits at every offset within a
    # 64-bit word: codewords that end on bit 63 of a word and values that
    # span two words
    for big in (2**31, 2**62, 2**63 - 1, 5 * 2**40 + 3):
        for p in range(130):
            rows = [[1] * p + [big, 3], [big], [], [1] * (p % 9)]
            got = encode_rows(rows)
            assert_same_rows(got, rows_reference(rows))
            values = bc.elias_gamma_decode_rows(got, [len(r) for r in rows])
            assert values.tolist() == [v for r in rows for v in r]


def rows_of(*texts):
    return bc.BitRows.from_streams([from_text(t) for t in texts])


def rows_decode_reference(texts, counts):
    """Values, or ("error", offset) of the first faulty row decoded alone."""
    out, first = [], 0
    for text, count in zip(texts, counts):
        values = gamma_decode_bit_by_bit(text)
        if values and values[0] == "error":
            return ("error", first + values[1])
        starts = np.cumsum([0] + [2 * v.bit_length() - 1 for v in values])
        if len(values) > count:
            return ("error", first + int(starts[count]))
        if len(values) < count:
            return ("error", first)
        out += values
        first += 8 * ((len(text) + 7) // 8)
    return out


@pytest.mark.parametrize("texts, counts, offset", [
    # "1 00|101 1 1" splits the codeword 5 across rows: the joined stream
    # holds four codewords, but row 0 ends in a truncated one
    (("1001", "0111"), (2, 2), 1),
    (("111", "1"), (2, 2), 2),          # row 0 holds one codeword too many
    (("11", "1"), (2, 2), 8),           # row 1 holds one too few
    (("1", "010", "11"), (1, 2, 2), 8),  # row 1 holds one too few
    (("11", "1001"), (2, 2), 9),        # truncated codeword in row 1
    (("11", "1100"), (2, 2), 10),       # dangling zeros in row 1
    (("11", "100"), (2, 1), 9),         # dangling zeros at the very end
    (("1", "", "1"), (1, 1, 1), 8),     # an empty row that should hold one
    (("1", "1", "1"), (1, 0, 2), 8),    # a row that should be empty
    (("1", "0" * 63 + "1" + "0" * 63), (1, 1), 8),  # a value of 2**63
])
def test_gamma_rows_report_the_faulty_row(texts, counts, offset):
    rows = rows_of(*texts)
    assert rows_decode_reference(texts, counts) == ("error", offset)
    with pytest.raises(bc.MalformedStreamError) as err:
        bc.elias_gamma_decode_rows(rows, counts)
    assert err.value.bit_offset == offset
    row = int(np.searchsorted(rows.ends, offset // 8, side="right"))
    start = 8 * int(rows.ends[row] - (rows.lengths[row] + 7) // 8)
    assert start <= offset < start + max(int(rows.lengths[row]), 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet="01", max_size=30), max_size=6), st.data())
def test_gamma_rows_decode_as_each_row_alone(texts, data):
    # random rows, counted right or off by one: the joined decode gives the
    # values or the first faulty row's error, as the rows decoded one by one
    counts = []
    for text in texts:
        values = gamma_decode_bit_by_bit(text)
        count = len(values) if values and values[0] != "error" else 0
        counts.append(max(0, count + data.draw(st.sampled_from([0, 0, 0, -1, 1]))))
    want = rows_decode_reference(texts, counts)
    try:
        got = bc.elias_gamma_decode_rows(rows_of(*texts), counts).tolist()
    except bc.MalformedStreamError as err:
        got = ("error", err.bit_offset)
    assert got == want


def test_gamma_rows_reject_nonzero_padding_and_bad_counts():
    with pytest.raises(bc.MalformedStreamError):
        bc.elias_gamma_decode_rows(
            bc.BitRows(np.array([0b10000001], dtype=np.uint8), np.array([1])), [1]
        )
    with pytest.raises(bc.InvalidParameterError):
        bc.elias_gamma_decode_rows(rows_of("1", "1"), [2])
    with pytest.raises(bc.InvalidParameterError):
        bc.elias_gamma_encode_rows([1, 2, 3], [1, 1])


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=4096),
    data=st.data(),
)
def test_fixed_round_trip(k, data):
    idx = data.draw(
        st.lists(st.integers(min_value=0, max_value=k - 1), max_size=50)
    )
    stream = bc.pack_fixed(idx, k)
    assert stream.length == len(idx) * bc.fixed_width(k)
    assert bc.unpack_fixed(stream, k).tolist() == idx


@settings(max_examples=150, deadline=None)
@given(
    scheme=st.sampled_from(sorted(bc.SCHEME_BYTES)),
    n=st.integers(min_value=0, max_value=2**32 - 1),
    d=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=0, max_value=2**16 - 1),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    payload_bits=st.lists(st.integers(min_value=0, max_value=1), max_size=80),
)
def test_message_round_trip(scheme, n, d, k, seed, payload_bits):
    msg = bc.WireMessage(
        scheme=scheme, n=n, d=d, k=k, seed=seed,
        payload=bc.BitStream.from_bits(payload_bits),
    )
    buf = bc.message_encode(msg)
    assert len(buf) == bc.HEADER_BYTES + (len(payload_bits) + 7) // 8
    assert bc.message_decode(buf) == msg
