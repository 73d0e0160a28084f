"""Bit-exact message serialization over a packed-byte core.

The lower bound is measured in *bits per message*, so the runtime forces
protocols to genuinely serialize their sketches: a :class:`Message` wraps
a bit string produced by :class:`BitWriter` and its length is the
communication charged to the player.  The referee decodes with
:class:`BitReader`.  No structured Python objects travel from players to
the referee — if it is not in the bits, the referee does not know it.

Representation.  Bits are stored packed, MSB-first: bit ``i`` of a
message lives in byte ``i // 8`` at mask ``0x80 >> (i % 8)``, and the
unused low bits of the final byte are zero (the *canonical* padding, so
equality and hashing of equal bit strings agree).  The writer
accumulates whole words and flushes bytes through ``int.to_bytes``; the
reader materializes the payload as one big integer and answers every
``read_*`` with a shift and a mask.  The bit order and every charged
width are identical to the historical per-bit-list codec — the golden
vectors in ``tests/data/golden_messages.json`` pin that contract — the
packing is purely a change of engine.  See ``docs/codec.md``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


class BitWriter:
    """Append-only bit buffer with fixed-width and variable-width codecs.

    Internally a ``bytearray`` of flushed bytes plus a word accumulator:
    writes shift-or into ``_acc`` and the accumulator is only spilled to
    bytes (one C-level ``to_bytes``) once ``_FLUSH_BITS`` bits are
    pending, so a ``write_uint`` of any width costs one shift-or and an
    amortized fraction of a flush instead of ``width`` list appends.
    """

    #: Spill the accumulator once this many bits are pending.  Small
    #: enough that every shift touches a few cache lines at most, large
    #: enough to amortize the to_bytes call across ~25 field writes.
    _FLUSH_BITS = 512

    __slots__ = ("_buf", "_acc", "_nacc")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0  # pending bits, right-aligned
        self._nacc = 0  # number of pending bits, in [0, _FLUSH_BITS + width)

    def _flush(self) -> None:
        """Spill all whole pending bytes; keeps ``_nacc`` < 8."""
        nacc = self._nacc
        rem = nacc & 7
        if nacc - rem:
            acc = self._acc
            self._buf += (acc >> rem).to_bytes((nacc - rem) >> 3, "big")
            self._acc = acc & ((1 << rem) - 1)
            self._nacc = rem

    # ------------------------------------------------------------------
    # Core append: value's low ``nbits`` bits, MSB of the field first.
    # ------------------------------------------------------------------
    def _append(self, value: int, nbits: int) -> None:
        self._acc = (self._acc << nbits) | value
        self._nacc += nbits
        if self._nacc >= self._FLUSH_BITS:
            self._flush()

    def write_bit(self, bit: int) -> None:
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        self._acc = (self._acc << 1) | bit
        self._nacc += 1
        if self._nacc >= self._FLUSH_BITS:
            self._flush()

    def write_uint(self, value: int, width: int) -> None:
        """Write ``value`` as an unsigned integer in exactly ``width`` bits."""
        if width < 0:
            raise ValueError("width must be non-negative")
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        # _append inlined: this is the hottest call in the repo.
        self._acc = (self._acc << width) | value
        self._nacc += width
        if self._nacc >= self._FLUSH_BITS:
            self._flush()

    def write_uint_array(self, values: Sequence[int], width: int) -> None:
        """Bulk :meth:`write_uint`: every element at the same fixed width.

        Packs the whole array into one integer before flushing, so hot
        encoders pay one ``to_bytes`` instead of one per element.
        """
        if width < 0:
            raise ValueError("width must be non-negative")
        bound = 1 << width
        acc = 0
        count = 0
        for v in values:
            if v < 0 or v >= bound:
                raise ValueError(f"value {v} does not fit in {width} bits")
            acc = (acc << width) | v
            count += 1
        if count:
            self._append(acc, width * count)

    def write_varint(self, value: int) -> None:
        """Unsigned LEB128-style varint: 7 value bits + 1 continuation bit
        per group (8 bits per group charged)."""
        if value < 0:
            raise ValueError("varint encodes non-negative integers")
        while True:
            group = value & 0x7F
            value >>= 7
            self._append(((0x80 if value else 0) | group), 8)
            if not value:
                break

    def write_int(self, value: int, width: int) -> None:
        """Two's-complement signed integer in ``width`` bits."""
        if width < 1:
            raise ValueError(
                "signed width must be >= 1 (the sign bit needs a slot)"
            )
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        if not lo <= value <= hi:
            raise ValueError(f"value {value} does not fit signed in {width} bits")
        self._append(value & ((1 << width) - 1), width)

    @property
    def num_bits(self) -> int:
        return len(self._buf) * 8 + self._nacc

    def to_message(self) -> "Message":
        self._flush()
        payload = bytes(self._buf)
        if self._nacc:
            payload += bytes(((self._acc << (8 - self._nacc)) & 0xFF,))
        return Message(payload, self.num_bits)


class BitReader:
    """Sequential reader over a message's bits.

    The payload is lifted into a single big integer once; every read is
    then one shift plus one mask, regardless of width.
    """

    __slots__ = ("_value", "_total", "_num_bits", "_pos")

    def __init__(self, message: "Message") -> None:
        payload = message.payload
        self._value = int.from_bytes(payload, "big")
        self._total = len(payload) * 8
        self._num_bits = message.num_bits
        self._pos = 0

    def _take(self, width: int) -> int:
        pos = self._pos
        if pos + width > self._num_bits:
            raise EOFError("message exhausted")
        self._pos = pos + width
        return (self._value >> (self._total - pos - width)) & ((1 << width) - 1)

    def read_bit(self) -> int:
        return self._take(1)

    def read_uint(self, width: int) -> int:
        if width < 0:
            raise ValueError("width must be non-negative")
        return self._take(width)

    def read_uint_array(self, count: int, width: int) -> list[int]:
        """Bulk :meth:`read_uint`: ``count`` fields of the same width."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if width < 0:
            raise ValueError("width must be non-negative")
        block = self._take(width * count)
        mask = (1 << width) - 1
        return [
            (block >> (width * (count - 1 - i))) & mask for i in range(count)
        ]

    def read_varint(self) -> int:
        value = 0
        shift = 0
        while True:
            group = self._take(8)
            value |= (group & 0x7F) << shift
            shift += 7
            if not group & 0x80:
                return value

    def read_int(self, width: int) -> int:
        if width < 1:
            raise ValueError(
                "signed width must be >= 1 (the sign bit needs a slot)"
            )
        raw = self._take(width)
        if raw >= 1 << (width - 1):
            raw -= 1 << width
        return raw

    @property
    def remaining(self) -> int:
        return self._num_bits - self._pos


class Message:
    """A single player-to-referee message; its length is the protocol cost.

    Immutable and hashable: backed by a canonical packed ``payload``
    (MSB-first, zero pad bits) plus the charged ``num_bits``, so messages
    key dictionaries — e.g. the transcript pmfs of Lemmas 3.3–3.5 —
    without materializing per-bit tuples.
    """

    __slots__ = ("_payload", "_num_bits")

    def __init__(
        self,
        payload: bytes = b"",
        num_bits: int | None = None,
        *,
        bits: Iterable[int] | None = None,
    ) -> None:
        if bits is not None:
            if payload or num_bits is not None:
                raise ValueError("pass either payload/num_bits or bits=")
            packed, count = _pack_bits(bits)
            object.__setattr__(self, "_payload", packed)
            object.__setattr__(self, "_num_bits", count)
            return
        if num_bits is None:
            num_bits = len(payload) * 8
        if num_bits < 0:
            raise ValueError("num_bits must be non-negative")
        if len(payload) != (num_bits + 7) // 8:
            raise ValueError(
                f"payload of {len(payload)} bytes cannot hold exactly "
                f"{num_bits} bits"
            )
        pad = len(payload) * 8 - num_bits
        if pad and payload[-1] & ((1 << pad) - 1):
            raise ValueError("padding bits must be zero (canonical form)")
        object.__setattr__(self, "_payload", bytes(payload))
        object.__setattr__(self, "_num_bits", num_bits)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Message is immutable")

    @property
    def payload(self) -> bytes:
        """The packed bytes, MSB-first, pad bits zero."""
        return self._payload

    @property
    def num_bits(self) -> int:
        return self._num_bits

    @property
    def bits(self) -> tuple[int, ...]:
        """The message as a tuple of 0/1 ints (compatibility view; the
        packed ``payload`` is the storage format)."""
        payload = self._payload
        return tuple(
            (payload[i >> 3] >> (7 - (i & 7))) & 1 for i in range(self._num_bits)
        )

    def to_bytes(self) -> bytes:
        """The canonical packed payload (equals :attr:`payload`)."""
        return self._payload

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "Message":
        """Pack an iterable of 0/1 ints into a message."""
        return cls(bits=bits)

    def reader(self) -> BitReader:
        return BitReader(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (
            self._num_bits == other._num_bits
            and self._payload == other._payload
        )

    def __hash__(self) -> int:
        return hash((self._num_bits, self._payload))

    def __repr__(self) -> str:
        return (
            f"Message(payload={self._payload!r}, num_bits={self._num_bits})"
        )

    def __reduce__(self):
        # Route pickling through __init__ — the immutability guard in
        # __setattr__ blocks the default slot-restoring path.
        return (Message, (self._payload, self._num_bits))


def _pack_bits(bits: Iterable[int]) -> tuple[bytes, int]:
    """MSB-first packing of an iterable of 0/1 ints."""
    out = bytearray()
    acc = 0
    nacc = 0
    count = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        acc = (acc << 1) | b
        nacc += 1
        count += 1
        if nacc == 8:
            out.append(acc)
            acc = 0
            nacc = 0
    if nacc:
        out.append((acc << (8 - nacc)) & 0xFF)
    return bytes(out), count


EMPTY_MESSAGE = Message()


def assert_packed_accounting(messages: Iterable[Message]) -> None:
    """Trusted-boundary check that packed bytes and charged bits agree.

    For every message, the payload must be exactly ``ceil(num_bits / 8)``
    bytes with zero padding bits — i.e. the bytes on the wire are the
    packed form of precisely the bits the player is charged for, no more
    and no fewer.  The runners call this on every transcript so a buggy
    (or adversarial test) protocol cannot smuggle information past the
    cost accounting.
    """
    for m in messages:
        payload, num_bits = m.payload, m.num_bits
        if len(payload) != (num_bits + 7) // 8:
            raise AssertionError(
                f"message payload of {len(payload)} bytes does not pack "
                f"the charged {num_bits} bits"
            )
        pad = len(payload) * 8 - num_bits
        if pad and payload[-1] & ((1 << pad) - 1):
            raise AssertionError(
                "message padding bits are nonzero — uncharged information "
                "beyond num_bits"
            )


def encode_vertex_set(writer: BitWriter, vertices: list[int], id_width: int) -> None:
    """Length-prefixed list of vertex IDs at fixed width."""
    writer.write_varint(len(vertices))
    writer.write_uint_array(vertices, id_width)


def decode_vertex_set(reader: BitReader, id_width: int) -> list[int]:
    """Inverse of :func:`encode_vertex_set`."""
    count = reader.read_varint()
    return reader.read_uint_array(count, id_width)


def id_width_for(n: int) -> int:
    """Bits needed to address one of n vertices (>= 1)."""
    return max(1, (max(n - 1, 1)).bit_length())
