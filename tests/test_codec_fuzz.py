"""The bit codec — the trusted cost-accounting layer.

Every protocol's communication cost rests on BitWriter/BitReader being
exact.  The op-interleaving ids run the registry's ``codec`` pair, whose
cases mix bits, uints up to 33 bits, uint arrays, varints (biased to the
7/14/21-bit group edges) and signed ints: the packed writer and reader
must match the per-bit-list legacy codec bit for bit, read every op
back, and charge exactly the ops' widths.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import (
    BitWriter,
    Message,
    decode_vertex_set,
    encode_vertex_set,
)

from .pair_runner import PairRun


@pytest.fixture(scope="module")
def codec():
    """One run of the ``codec`` pair's first 120 cases for every id here."""
    return PairRun("codec", 120)


def test_roundtrip_arbitrary_interleaving(codec):
    codec.check(120, "differential")


def test_bit_accounting_exact(codec):
    """num_bits equals the sum of the component encodings' widths."""
    codec.check(60, "differential", "charged-bits")


@given(
    st.lists(st.integers(0, 1023), max_size=50),
    st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_vertex_set_roundtrip_fuzz(vertices, repeats):
    writer = BitWriter()
    for _ in range(repeats):
        encode_vertex_set(writer, vertices, 10)
    reader = writer.to_message().reader()
    for _ in range(repeats):
        assert decode_vertex_set(reader, 10) == vertices
    assert reader.remaining == 0


def test_raw_bits_roundtrip(codec):
    codec.check(60, "differential", "roundtrip")


def test_packed_matches_legacy_oracle(codec):
    """The packed writer and the historical per-bit-list reference emit
    identical bit strings, lengths, and roundtrips for any op sequence."""
    codec.check(120, "differential", "roundtrip")


def test_varint_group_boundaries_match_oracle(codec):
    codec.check(120, "differential", "charged-bits")


# ----------------------------------------------------------------------
# Signed-width validation (regression: width=0 used to surface as a
# baffling "negative shift count" ValueError from 1 << (width - 1))
# ----------------------------------------------------------------------


@pytest.mark.parametrize("width", [0, -1, -7])
def test_write_int_rejects_nonpositive_width(width):
    with pytest.raises(ValueError, match="signed width must be >= 1"):
        BitWriter().write_int(0, width)


@pytest.mark.parametrize("width", [0, -1, -7])
def test_read_int_rejects_nonpositive_width(width):
    writer = BitWriter()
    writer.write_uint(0b1010, 4)
    with pytest.raises(ValueError, match="signed width must be >= 1"):
        writer.to_message().reader().read_int(width)


def test_message_payload_is_canonical_packed_bytes():
    writer = BitWriter()
    writer.write_uint(0b1011, 4)
    writer.write_uint(0xAB, 8)
    message = writer.to_message()
    assert message.num_bits == 12
    assert message.to_bytes() == bytes([0b10111010, 0b10110000])
    assert Message(message.to_bytes(), 12) == message
    with pytest.raises(ValueError, match="padding"):
        Message(bytes([0b10111010, 0b10110001]), 12)
    with pytest.raises(ValueError, match="cannot hold"):
        Message(bytes([0xFF]), 12)


def test_message_is_immutable_and_hashable():
    message = Message.from_bits((1, 0, 1))
    with pytest.raises(AttributeError):
        message.num_bits = 5
    assert message == Message.from_bits([1, 0, 1])
    assert hash(message) == hash(Message.from_bits([1, 0, 1]))
    # Same payload byte, different charged length: distinct messages.
    assert Message.from_bits((1, 0, 1)) != Message.from_bits((1, 0, 1, 0))
