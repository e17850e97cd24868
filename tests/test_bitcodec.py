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


class TestBitStream:
    def test_round_trips(self):
        s = bc.BitStream.from_bitstring("1011001")
        assert s.length == 7
        assert s.to_bitstring() == "1011001"
        assert list(s.bits()) == [1, 0, 1, 1, 0, 0, 1]
        assert bc.BitStream.from_bits(s.bits()) == s

    def test_empty(self):
        s = bc.BitStream(b"", 0)
        assert len(s) == 0
        assert s.bits().size == 0

    def test_validation(self):
        with pytest.raises(bc.InvalidParameterError):
            bc.BitStream(b"\x01", 16)
        with pytest.raises(bc.InvalidParameterError):
            bc.BitStream(b"\x01", 4)  # nonzero padding
        with pytest.raises(bc.InvalidParameterError):
            bc.BitStream.from_bits([0, 2])

    def test_msb_first_layout(self):
        s = bc.BitStream.from_bitstring("10000001")
        assert s.data == b"\x81"


class TestGamma:
    def test_known_codewords(self):
        for value, code in GAMMA_TABLE.items():
            assert bc.elias_gamma_encode(value).to_bitstring() == code
            assert bc.elias_gamma_decode(bc.BitStream.from_bitstring(code)) == [
                value
            ]

    def test_encode_many_equals_concatenation(self):
        values = [1, 2, 3, 7, 100, 65535, 12]
        many = bc.elias_gamma_encode_many(values)
        joined = "".join(
            bc.elias_gamma_encode(v).to_bitstring() for v in values
        )
        assert many.to_bitstring() == joined
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
            bc.elias_gamma_decode(bc.BitStream.from_bitstring("100"))


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
        bad = bc.BitStream.from_bitstring("111")
        with pytest.raises(bc.MalformedStreamError):
            bc.unpack_fixed(bad, 5)

    def test_rows_match_one_at_a_time(self):
        rng = np.random.default_rng(3)
        for k, m in ((2, 1), (5, 7), (16, 33), (3, 0)):
            idx = rng.integers(0, k, size=(6, m))
            rows = bc.pack_fixed_rows(idx, k)
            assert rows == [bc.pack_fixed(row, k) for row in idx]
            assert np.array_equal(bc.unpack_fixed_rows(rows, k), idx)

    def test_rows_reject_unequal_lengths(self):
        rows = [bc.pack_fixed([1, 2], 4), bc.pack_fixed([1], 4)]
        with pytest.raises(bc.LengthMismatchError):
            bc.unpack_fixed_rows(rows, 4)

    def test_rows_report_foreign_index_position(self):
        rows = [bc.BitStream.from_bitstring("001010"),
                bc.BitStream.from_bitstring("000111")]
        with pytest.raises(bc.MalformedStreamError) as err:
            bc.unpack_fixed_rows(rows, 5)
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
        payload = bc.BitStream.from_bitstring("10110")
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
        payload=bc.BitStream.from_bitstring("1010"),
    )


def gamma_decode_bit_by_bit(text: str):
    """Reference decoder: one bit at a time; values, or ("error", offset)."""
    out, pos = [], 0
    while pos < len(text):
        zeros = len(text[pos:]) - len(text[pos:].lstrip("0"))
        if pos + zeros == len(text):
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
        got = bc.elias_gamma_decode(bc.BitStream.from_bitstring(text))
    except bc.MalformedStreamError as err:
        got = ("error", err.bit_offset)
    assert got == want


def test_gamma_decode_across_small_windows(monkeypatch):
    # 16-bit windows: codewords cross window ends, and some are longer
    # than a whole window, which makes the window grow
    monkeypatch.setattr(bc, "_DECODE_WINDOW", 16)
    rnd = random.Random(5)
    for trial in range(400):
        values = [
            rnd.getrandbits(b) | 1 << (b - 1)
            for b in (rnd.randint(1, 90) for _ in range(rnd.randint(0, 25)))
        ]
        text = "".join(bc.elias_gamma_encode(v).to_bitstring() for v in values)
        if trial % 3 == 1:
            text = text[: rnd.randint(0, len(text))]
        elif trial % 3 == 2:
            text += "0" * rnd.randint(1, 40)
        want = gamma_decode_bit_by_bit(text)
        try:
            got = bc.elias_gamma_decode(bc.BitStream.from_bitstring(text))
        except bc.MalformedStreamError as err:
            got = ("error", err.bit_offset)
        assert got == want, text


def test_gamma_decode_values_past_64_bits():
    values = [2**56 - 1, 2**56, 2**57, 2**63 + 5, 2**200 + 1, 3]
    stream = bc.BitStream.from_bits(
        np.concatenate([bc.elias_gamma_encode(v).bits() for v in values])
    )
    assert bc.elias_gamma_decode(stream) == values


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=2**300))
def test_gamma_encode_writes_the_code_at_any_size(value):
    code = bc.elias_gamma_encode(value).to_bitstring()
    assert code == "0" * (value.bit_length() - 1) + format(value, "b")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=2**62), max_size=80))
def test_gamma_encode_many_is_the_concatenation_of_single_codes(values):
    joined = "".join(bc.elias_gamma_encode(v).to_bitstring() for v in values)
    assert bc.elias_gamma_encode_many(values).to_bitstring() == joined


def test_gamma_encode_many_across_blocks():
    values = np.random.default_rng(3).integers(1, 2**20, size=bc._GAMMA_BLOCK + 7)
    want = np.concatenate([bc.elias_gamma_encode(int(v)).bits() for v in values])
    assert np.array_equal(bc.elias_gamma_encode_many(values).bits(), want)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=2**40), max_size=60))
def test_gamma_round_trip(values):
    stream = bc.elias_gamma_encode_many(values)
    assert bc.elias_gamma_decode(stream) == values


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
