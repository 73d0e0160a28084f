"""The historical per-bit-list codec, kept as a correctness oracle.

This is the original implementation of ``repro.model.messages``: every
bit is one Python ``int`` in a ``list``/``tuple``.  It is *not* part of
the public API and no protocol uses it — it exists so that the oracle
registry's ``codec`` pair (``repro.conformance.oracles``) and the
property tests in ``tests/test_codec_fuzz.py`` can fuzz arbitrary op
sequences against an independent implementation of the same bit format.

The bit format (MSB-first fixed-width fields, 8-bit varint groups with
a leading continuation bit, two's-complement signed fields) is the
contract; both implementations must emit identical bit strings for
identical op sequences.
"""

from __future__ import annotations

from dataclasses import dataclass


class LegacyBitWriter:
    """Append-only bit buffer storing one Python int per bit."""

    def __init__(self) -> None:
        self._bits: list[int] = []

    def write_bit(self, bit: int) -> None:
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        self._bits.append(bit)

    def write_uint(self, value: int, width: int) -> None:
        if width < 0:
            raise ValueError("width must be non-negative")
        if value < 0 or value >= (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        for i in range(width - 1, -1, -1):
            self._bits.append((value >> i) & 1)

    def write_varint(self, value: int) -> None:
        if value < 0:
            raise ValueError("varint encodes non-negative integers")
        while True:
            group = value & 0x7F
            value >>= 7
            self.write_bit(1 if value else 0)
            self.write_uint(group, 7)
            if not value:
                break

    def write_int(self, value: int, width: int) -> None:
        if width < 1:
            raise ValueError("signed width must be >= 1")
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        if not lo <= value <= hi:
            raise ValueError(f"value {value} does not fit signed in {width} bits")
        self.write_uint(value & ((1 << width) - 1), width)

    @property
    def num_bits(self) -> int:
        return len(self._bits)

    def to_message(self) -> "LegacyMessage":
        return LegacyMessage(bits=tuple(self._bits))


class LegacyBitReader:
    """Sequential reader over a legacy message's bit tuple."""

    def __init__(self, message: "LegacyMessage") -> None:
        self._bits = message.bits
        self._pos = 0

    def read_bit(self) -> int:
        if self._pos >= len(self._bits):
            raise EOFError("message exhausted")
        bit = self._bits[self._pos]
        self._pos += 1
        return bit

    def read_uint(self, width: int) -> int:
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value

    def read_varint(self) -> int:
        value = 0
        shift = 0
        while True:
            more = self.read_bit()
            group = self.read_uint(7)
            value |= group << shift
            shift += 7
            if not more:
                return value

    def read_int(self, width: int) -> int:
        if width < 1:
            raise ValueError("signed width must be >= 1")
        raw = self.read_uint(width)
        if raw >= 1 << (width - 1):
            raw -= 1 << width
        return raw

    @property
    def remaining(self) -> int:
        return len(self._bits) - self._pos


@dataclass(frozen=True)
class LegacyMessage:
    """A message as a tuple of per-bit ints (the pre-packing layout)."""

    bits: tuple[int, ...]

    @property
    def num_bits(self) -> int:
        return len(self.bits)

    def reader(self) -> LegacyBitReader:
        return LegacyBitReader(self)
