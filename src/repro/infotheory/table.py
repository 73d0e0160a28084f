"""Columnar log-space probability kernel: the ``TableDistribution`` core.

The paper's lower bound is a chain of entropy / mutual-information
(in)equalities computed on exact joint distributions of (indicators,
transcript, special index).  The original engine stored those as a dict
from full outcome tuples to floats — every marginalization re-hashed
every tuple (including tuples of packed ``Message`` payloads) and every
entropy call re-walked the dict.  This module rebuilds the distribution
as an immutable *outcome table*:

* **Interned codebooks** — each variable owns a :class:`Codebook`
  mapping its outcome values (arbitrary hashables) to dense small-int
  codes, ordered canonically by the value's type-tagged byte encoding;
  a :class:`TableBuilder` takes rows of those codes, and a derived
  codebook builds its value→code dict only on a lookup by value;
* **Columnar storage** — one ``array`` of integer codes per variable
  plus a single probability column (``array('d')``, or positive ``int``
  weights over one ``int`` total in exact mode), rows sorted
  lexicographically by code;
* **Single-pass grouped kernels** — marginalize / condition / map
  (``push_forward``) walk the columns once, grouping rows by their
  projected code tuples instead of re-hashing value tuples;
* **Log-space information measures** — entropy and mutual information
  accumulate group masses with a log-sum-exp combiner over a cached
  log-probability column, so deep conditional chains never underflow;
* **Exact mode** — each row's probability is an ``int`` weight over one
  ``int`` total, both divided by their gcd, so the kernels add and
  compare ints; a ``Fraction`` is made only where a probability leaves
  the kernel (``probability``, ``pmf``, ``items``, ``get``), and
  information measures are floats of exact group masses;
* **Content addressing** — a canonical byte serialization (format
  ``TBLD1``, pinned in ``docs/infotheory.md``) whose SHA-256
  :attr:`~TableDistribution.digest` content-addresses the distribution;
  :attr:`~TableDistribution.cache_token` lets distributions participate
  in the engine's construction cache exactly like ``FrozenGraph``.

The dict implementation survives as
:mod:`repro.infotheory.reference` — the differential oracle.
"""

from __future__ import annotations

import hashlib
import math
import struct
from array import array
from collections.abc import Hashable, Iterable, Mapping, Sequence
from fractions import Fraction

from .reference import NORMALIZATION_TOLERANCE, Outcome

_MAGIC = b"TBLD1"

#: Width tags for column serialization: smallest unsigned array typecode
#: that holds the codebook's largest code.
_WIDTH_CODES = (("B", 1 << 8), ("H", 1 << 16), ("L", 1 << 32), ("Q", 1 << 64))


def _typecode_for(size: int) -> str:
    for code, limit in _WIDTH_CODES:
        if size <= limit:
            return code
    raise ValueError(f"codebook of {size} values exceeds 64-bit codes")


# ----------------------------------------------------------------------
# Canonical value encoding
# ----------------------------------------------------------------------
def _canon_value(value) -> bytes:
    """Type-tagged canonical byte encoding of one outcome value.

    Total order over heterogeneous values (codes are assigned in this
    encoding's sort order) and the unit of the ``TBLD1`` byte format.
    Standard scalar/composite types round-trip; opaque objects fall
    back to a content fingerprint (``cache_token``, ``payload`` bytes
    for packed messages, else ``repr``) that addresses but does not
    reconstruct them.
    """
    if value is None:
        return b"N"
    if value is True:
        return b"B\x01"
    if value is False:
        return b"B\x00"
    cls = type(value)
    if cls is int:
        raw = value.to_bytes((value.bit_length() + 8) // 8, "little", signed=True)
        return b"I" + len(raw).to_bytes(4, "little") + raw
    if cls is float:
        return b"F" + struct.pack("<d", value)
    if cls is str:
        raw = value.encode("utf-8")
        return b"S" + len(raw).to_bytes(4, "little") + raw
    if cls is bytes:
        return b"Y" + len(value).to_bytes(4, "little") + value
    if cls is tuple:
        parts = [_canon_value(v) for v in value]
        return (
            b"T"
            + len(parts).to_bytes(4, "little")
            + b"".join(len(p).to_bytes(4, "little") + p for p in parts)
        )
    if cls is frozenset:
        parts = sorted(_canon_value(v) for v in value)
        return (
            b"E"
            + len(parts).to_bytes(4, "little")
            + b"".join(len(p).to_bytes(4, "little") + p for p in parts)
        )
    if cls is Fraction:
        num = _canon_value(value.numerator)
        den = _canon_value(value.denominator)
        return b"Q" + num + den
    token = getattr(value, "cache_token", None)
    if isinstance(token, str):
        raw = token.encode("utf-8")
        return b"C" + len(raw).to_bytes(4, "little") + raw
    payload = getattr(value, "payload", None)
    bits = getattr(value, "num_bits", None)
    if isinstance(payload, bytes) and isinstance(bits, int):
        # Packed messages: payload + charged bit count is the content.
        return (
            b"M"
            + bits.to_bytes(8, "little")
            + len(payload).to_bytes(4, "little")
            + payload
        )
    raw = repr(value).encode("utf-8")
    return b"R" + len(raw).to_bytes(4, "little") + raw


def _decode_value(blob: bytes):
    """Inverse of :func:`_canon_value` for the round-trippable tags."""
    tag, body = blob[:1], blob[1:]
    if tag == b"N":
        return None
    if tag == b"B":
        return body == b"\x01"
    if tag == b"I":
        n = int.from_bytes(body[:4], "little")
        return int.from_bytes(body[4 : 4 + n], "little", signed=True)
    if tag == b"F":
        return struct.unpack("<d", body)[0]
    if tag == b"S":
        n = int.from_bytes(body[:4], "little")
        return body[4 : 4 + n].decode("utf-8")
    if tag == b"Y":
        n = int.from_bytes(body[:4], "little")
        return body[4 : 4 + n]
    if tag in (b"T", b"E"):
        count = int.from_bytes(body[:4], "little")
        pos, items = 4, []
        for _ in range(count):
            n = int.from_bytes(body[pos : pos + 4], "little")
            pos += 4
            items.append(_decode_value(body[pos : pos + n]))
            pos += n
        return tuple(items) if tag == b"T" else frozenset(items)
    raise ValueError(
        f"value tag {tag!r} is content-addressed but not reconstructible"
    )


# ----------------------------------------------------------------------
# Codebook
# ----------------------------------------------------------------------
class Codebook:
    """Interning table mapping one variable's outcome values to codes.

    ``intern`` assigns dense first-seen codes (O(1) dict lookups on the
    hot append path); canonicalization later re-sorts codes by
    :func:`_canon_value` bytes so equal distributions built in any
    insertion order produce identical columns and digests.

    A codebook derived from another (by ``build``'s compaction,
    ``marginal``, ``condition`` or unpickling) takes values already
    known distinct and hashes none of them: its value→code dict is built
    on the first lookup by value.
    """

    __slots__ = ("_values", "_codes")

    def __init__(self, values: Iterable[Hashable] = ()) -> None:
        self._values: list = []
        self._codes: dict | None = {}
        for value in values:
            self.intern(value)

    @classmethod
    def _distinct(cls, values: Iterable[Hashable]) -> "Codebook":
        """The codebook of ``values``, distinct and in code order."""
        self = object.__new__(cls)
        self._values = list(values)
        self._codes = None
        return self

    def _lookup(self) -> dict:
        """The value→code dict, built on first use."""
        if self._codes is None:
            self._codes = {value: code for code, value in enumerate(self._values)}
        return self._codes

    def intern(self, value: Hashable) -> int:
        """The code for ``value``, allocating the next code if new."""
        codes = self._codes
        if codes is None:
            codes = self._lookup()
        values = self._values
        code = codes.setdefault(value, len(values))
        if code == len(values):
            values.append(value)
        return code

    def code(self, value: Hashable) -> int | None:
        """The existing code for ``value``, or None if never interned."""
        return self._lookup().get(value)

    def value(self, code: int):
        return self._values[code]

    @property
    def values(self) -> tuple:
        return tuple(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value) -> bool:
        return value in self._lookup()

    def __repr__(self) -> str:
        return f"Codebook({len(self._values)} values)"


def _exact_column(weights: list[int]) -> tuple[tuple[int, ...], int]:
    """Positive int weights and their total, both divided by their gcd:
    the canonical exact probability column, so equal distributions get
    equal fields, hashes and digests."""
    g = math.gcd(*weights)
    if g != 1:
        weights = [w // g for w in weights]
    return tuple(weights), sum(weights)


def _lse2(a: float, b: float) -> float:
    """log2(2^a + 2^b) without leaving log space."""
    if a < b:
        a, b = b, a
    diff = b - a
    if diff < -1074:  # 2^diff underflows double precision entirely
        return a
    return a + math.log2(1.0 + 2.0**diff)


class TableDistribution:
    """An immutable columnar joint distribution with named variables.

    API-compatible with the reference
    :class:`~repro.infotheory.reference.JointDistribution` (marginal /
    condition / support / probability / entropy / mutual_information),
    plus the columnar extras: ``push_forward`` mapping, exact
    ``Fraction`` mode, canonical bytes, and a content digest.

    In exact mode ``_probs`` holds each row's positive ``int`` weight and
    ``_total`` their sum, the probabilities' common denominator; in
    float mode ``_probs`` holds the probabilities and ``_total`` is None.
    """

    __slots__ = (
        "variables",
        "_codebooks",
        "_columns",
        "_probs",
        "_total",
        "_bytes",
        "_digest",
        "_logps",
        "_pmf",
    )

    def __init__(
        self,
        variables: Sequence[str],
        pmf: Mapping[Outcome, float],
        *,
        normalize: bool = False,
        exact: bool = False,
    ) -> None:
        variables = tuple(variables)
        builder = TableBuilder(variables, exact=exact)
        for outcome, prob in pmf.items():
            builder.add(outcome, prob)
        dist = builder.build(normalize=normalize)
        self._adopt(dist)

    def _adopt(self, other: "TableDistribution") -> None:
        for slot in self.__slots__:
            object.__setattr__(self, slot, getattr(other, slot))

    @classmethod
    def _from_canonical(
        cls,
        variables: tuple[str, ...],
        codebooks: tuple[Codebook, ...],
        columns: tuple[array, ...],
        probs,
        total: int | None,
    ) -> "TableDistribution":
        """Trusted constructor from already-canonical columns: codebooks
        sorted by canonical value bytes with every code in use, rows
        sorted lexicographically, duplicates merged, zero rows dropped,
        and exact weights over ``total`` reduced by their gcd (``total``
        is None for a float column)."""
        self = object.__new__(cls)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "_codebooks", codebooks)
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_probs", probs)
        object.__setattr__(self, "_total", total)
        object.__setattr__(self, "_bytes", None)
        object.__setattr__(self, "_digest", None)
        object.__setattr__(self, "_logps", None)
        object.__setattr__(self, "_pmf", None)
        return self

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("TableDistribution is immutable")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        variables: Sequence[str],
        rows: Iterable[Outcome],
        weights: Iterable | None = None,
        *,
        normalize: bool = False,
        exact: bool = False,
    ) -> "TableDistribution":
        """Build from an iterable of outcome rows and optional weights
        (unit weights when omitted, normalized empirically)."""
        builder = TableBuilder(tuple(variables), exact=exact)
        if weights is None:
            count = 0
            one = 1 if exact else 1.0
            for row in rows:
                builder.add(row, one)
                count += 1
            if count == 0:
                raise ValueError("no rows")
            return builder.build(normalize=True)
        for row, w in zip(rows, weights):
            builder.add(row, w)
        return builder.build(normalize=normalize)

    @classmethod
    def from_samples(
        cls, variables: Sequence[str], samples: Iterable[Outcome]
    ) -> "TableDistribution":
        """Empirical (plug-in) distribution from a sample list."""
        try:
            return cls.from_rows(variables, samples)
        except ValueError as exc:
            if "no rows" in str(exc):
                raise ValueError("no samples") from None
            raise

    @classmethod
    def uniform(
        cls, variables: Sequence[str], outcomes: Sequence[Outcome]
    ) -> "TableDistribution":
        if not outcomes:
            raise ValueError("no outcomes")
        return cls.from_rows(variables, outcomes)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def exact(self) -> bool:
        """True when probabilities are exact rationals (int weights over
        one total, ``Fraction``s at the API)."""
        return self._total is not None

    @property
    def num_rows(self) -> int:
        return len(self._probs)

    def codebook(self, name: str) -> Codebook:
        """The interning codebook of one variable."""
        return self._codebooks[self._index(name)]

    def _index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError as exc:
            raise KeyError(f"unknown variable in {[name]!r}") from exc

    def _indices(self, names: Sequence[str]) -> list[int]:
        try:
            return [self.variables.index(name) for name in names]
        except ValueError as exc:
            raise KeyError(f"unknown variable in {names!r}") from exc

    def support(self, names: Sequence[str] | None = None) -> set[Outcome]:
        """The outcomes carrying strictly positive probability.

        Zero-weight rows are dropped at canonicalization time (the same
        documented invariant as the reference oracle), so the support is
        exactly the stored row set; with ``names`` the projection of the
        rows onto those variables.
        """
        if names is None:
            idx = range(len(self.variables))
        else:
            idx = self._indices(names)
        decoders = [self._codebooks[i]._values for i in idx]
        cols = [self._columns[i] for i in idx]
        return {
            tuple(dec[c] for dec, c in zip(decoders, codes))
            for codes in zip(*cols)
        } if cols else ({()} if self.num_rows else set())

    @property
    def pmf(self) -> dict:
        """Dict view ``outcome tuple -> probability`` (lazily cached) —
        the compatibility surface shared with the reference oracle.
        Exact probabilities are ``Fraction``s."""
        if self._pmf is None:
            decoders = [cb._values for cb in self._codebooks]
            probs = self._probs
            if self.exact:
                probs = [Fraction(w, self._total) for w in probs]
            out = {}
            for codes, p in zip(zip(*self._columns), probs):
                out[tuple(dec[c] for dec, c in zip(decoders, codes))] = p
            if not self._columns:
                for p in probs:
                    out[()] = p
            object.__setattr__(self, "_pmf", out)
        return self._pmf

    def items(self):
        """Iterate ``(outcome, probability)`` pairs of the support."""
        return self.pmf.items()

    def get(self, outcome: Outcome, default=0.0):
        """P[outcome], ``default`` outside the support."""
        codes = []
        for cb, value in zip(self._codebooks, tuple(outcome)):
            code = cb.code(value)
            if code is None:
                return default
            codes.append(code)
        return self.pmf.get(tuple(outcome), default)

    def probability(self, **fixed: Hashable):
        """P[variables = values] for a partial assignment (a ``Fraction``
        in exact mode)."""
        total = 0 if self.exact else 0.0
        probs = self._probs
        for row in self._rows_where(fixed) or ():
            total += probs[row]
        return Fraction(total, self._total) if self.exact else total

    def _rows_where(self, fixed: Mapping[str, Hashable]):
        """The rows (in canonical order) where every ``name=value`` of
        ``fixed`` holds; None when a value is outside the support."""
        rows = range(self.num_rows)
        for i, value in zip(self._indices(list(fixed)), fixed.values()):
            code = self._codebooks[i].code(value)
            if code is None:
                return None
            col = self._columns[i]
            rows = [row for row in rows if col[row] == code]
        return rows

    # ------------------------------------------------------------------
    # Grouped single-pass kernels
    # ------------------------------------------------------------------
    def marginal(self, names: Sequence[str]) -> "TableDistribution":
        """The marginal of the named variables (in that order): one pass
        over the columns, grouping rows by their projected code tuples."""
        idx = self._indices(names)
        cols = [self._columns[i] for i in idx]
        masses: dict = {}
        get = masses.get
        # Int weights add as ints; a float mass starts as 0 + p == p.
        for key, p in zip(zip(*cols), self._probs):
            masses[key] = get(key, 0) + p
        if not cols:
            masses[()] = sum(self._probs)
        return self._regroup(tuple(names), idx, masses)

    def _regroup(
        self, names: tuple[str, ...], idx: list[int], masses: dict
    ) -> "TableDistribution":
        """Canonical distribution from grouped code-tuple masses (codes
        are relative to this distribution's codebooks at ``idx``)."""
        ordered = sorted(masses)
        books = []
        remaps = []
        for pos, i in enumerate(idx):
            used = sorted({key[pos] for key in ordered})
            old = self._codebooks[i]
            book = Codebook._distinct(old._values[c] for c in used)
            books.append(book)
            remaps.append({c: new for new, c in enumerate(used)})
        columns = tuple(
            array(
                _typecode_for(len(books[pos])),
                (remaps[pos][key[pos]] for key in ordered),
            )
            for pos in range(len(idx))
        )
        if self.exact:
            probs, total = _exact_column([masses[key] for key in ordered])
        else:
            probs, total = array("d", (masses[key] for key in ordered)), None
        return TableDistribution._from_canonical(
            names, tuple(books), columns, probs, total
        )

    def condition(self, **fixed: Hashable) -> "TableDistribution":
        """The conditional distribution given variable=value assignments.

        The fixed variables are removed from the result.  Single pass:
        row filtering preserves canonical order, so no re-sort happens.
        """
        rows = self._rows_where(fixed)
        if not rows:
            raise ValueError(
                f"conditioning event {fixed!r} has zero probability"
            )
        keep_idx = [
            i for i, name in enumerate(self.variables) if name not in fixed
        ]
        keep_names = tuple(self.variables[i] for i in keep_idx)
        probs = self._probs
        weights = [probs[row] for row in rows]
        keys = (
            zip(*[[self._columns[i][row] for row in rows] for i in keep_idx])
            if keep_idx
            else [()] * len(rows)
        )
        masses: dict = {}
        get = masses.get
        for key, p in zip(keys, weights):
            masses[key] = get(key, 0) + p
        if not self.exact:
            mass = math.fsum(weights)
            if mass <= 0:
                raise ValueError(
                    f"conditioning event {fixed!r} has zero probability"
                )
            for key in masses:
                masses[key] /= mass
        # Exact weights need no division: the kept rows' weights over
        # their own sum are the conditional probabilities.
        return self._regroup(keep_names, keep_idx, masses)

    def push_forward(
        self, new_variables: Sequence[str], func
    ) -> "TableDistribution":
        """The map kernel: distribution of ``func(*outcome)``.

        ``func`` receives each row's values and returns the new row (a
        tuple for several variables, or a bare value for exactly one).
        One pass; the image rows are grouped and re-interned.
        """
        new_variables = tuple(new_variables)
        single = len(new_variables) == 1
        decoders = [cb._values for cb in self._codebooks]
        builder = TableBuilder(new_variables, exact=self.exact)
        for codes, p in zip(zip(*self._columns), self._probs):
            image = func(*(dec[c] for dec, c in zip(decoders, codes)))
            builder.add((image,) if single else tuple(image), p)
        # Exact weights are counts over ``_total``: normalizing divides
        # by it.  Float probabilities already sum to 1.
        return builder.build(normalize=self.exact)

    # ------------------------------------------------------------------
    # Information measures (log-space)
    # ------------------------------------------------------------------
    @property
    def _log_probs(self) -> tuple[float, ...]:
        """Cached log2-probability column of a float table."""
        if self._logps is None:
            logps = tuple(math.log2(p) for p in self._probs)
            object.__setattr__(self, "_logps", logps)
        return self._logps

    def _grouped_entropy(self, idx: list[int]) -> float:
        """H of the marginal on columns ``idx``: group masses accumulate
        in log space with a log-sum-exp combiner, then H = -Σ 2^L · L."""
        cols = [self._columns[i] for i in idx]
        if not cols:
            return 0.0
        if self.exact:
            masses: dict = {}
            get = masses.get
            for key, p in zip(zip(*cols), self._probs):
                masses[key] = get(key, 0) + p
            # w / total is the correctly rounded double of the mass, as
            # float(Fraction(w, total)) is.
            total = self._total
            return -math.fsum(
                q * math.log2(q) for q in (m / total for m in masses.values())
            )
        acc: dict = {}
        get = acc.get
        for key, lp in zip(zip(*cols), self._log_probs):
            prev = get(key)
            acc[key] = lp if prev is None else _lse2(prev, lp)
        return -math.fsum(
            (2.0**lmass) * lmass for lmass in acc.values() if lmass < 0.0
        )

    def entropy(self, names: Sequence[str], given: Sequence[str] = ()) -> float:
        """Shannon entropy H(A | B) in bits; H(A) when ``given`` is empty."""
        names = list(names)
        given = list(given)
        if not given:
            return self._grouped_entropy(self._indices(names))
        # H(A | B) = H(A, B) - H(B); duplicated names across the groups
        # are collapsed so H(A | A) = 0 comes out exactly.
        all_vars = list(dict.fromkeys(names + given))
        h_joint = self._grouped_entropy(self._indices(all_vars))
        h_given = self._grouped_entropy(self._indices(given))
        return h_joint - h_given

    def mutual_information(
        self,
        a: Sequence[str],
        b: Sequence[str],
        given: Sequence[str] = (),
    ) -> float:
        """I(A ; B | C) = H(A | C) - H(A | B, C), in bits."""
        a, b, given = list(a), list(b), list(given)
        if set(a) & set(b):
            raise ValueError("A and B must be disjoint variable groups")
        h_a_c = self.entropy(a, given=given)
        h_a_bc = self.entropy(a, given=list(dict.fromkeys(b + given)))
        value = h_a_c - h_a_bc
        # Clamp tiny negative float noise: MI is non-negative.
        return 0.0 if -NORMALIZATION_TOLERANCE < value < 0 else value

    def is_independent(
        self, a: Sequence[str], b: Sequence[str], given: Sequence[str] = ()
    ) -> bool:
        """A ⊥ B | C, decided via I(A;B|C) ~ 0."""
        return self.mutual_information(a, b, given=given) < 1e-7

    # ------------------------------------------------------------------
    # Canonical bytes, digest, cache token
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Canonical ``TBLD1`` serialization (pinned in
        ``docs/infotheory.md``): equal distributions — same variables,
        rows, and probabilities — serialize to identical bytes
        regardless of construction order."""
        if self._bytes is not None:
            return self._bytes
        out = bytearray()
        out += _MAGIC
        out.append(1 if self.exact else 0)
        out += len(self.variables).to_bytes(4, "little")
        for name, book in zip(self.variables, self._codebooks):
            raw = name.encode("utf-8")
            out += len(raw).to_bytes(4, "little") + raw
            out += len(book).to_bytes(4, "little")
            for value in book._values:
                blob = _canon_value(value)
                out += len(blob).to_bytes(4, "little") + blob
        out += self.num_rows.to_bytes(4, "little")
        for book, column in zip(self._codebooks, self._columns):
            width = _typecode_for(len(book))
            out += width.encode("ascii")
            out += array(width, column).tobytes()
        if self.exact:
            # One reduced numerator/denominator per row.
            total = self._total
            for w in self._probs:
                g = math.gcd(w, total)
                out += _canon_value(w // g) + _canon_value(total // g)
        else:
            out += array("d", self._probs).tobytes()
        blob = bytes(out)
        object.__setattr__(self, "_bytes", blob)
        return blob

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TableDistribution":
        """Reconstruct from :meth:`to_bytes`.

        Only round-trippable value tags decode (ints, floats, strings,
        bytes, bools, None, tuples, frozensets); distributions holding
        opaque interned objects are content-addressed but not
        reconstructible, and raise.
        """
        if blob[: len(_MAGIC)] != _MAGIC:
            raise ValueError("not a TBLD1 distribution")
        pos = len(_MAGIC)
        exact = blob[pos] == 1
        pos += 1
        nvars = int.from_bytes(blob[pos : pos + 4], "little")
        pos += 4
        names = []
        books = []
        for _ in range(nvars):
            n = int.from_bytes(blob[pos : pos + 4], "little")
            pos += 4
            names.append(blob[pos : pos + n].decode("utf-8"))
            pos += n
            ncodes = int.from_bytes(blob[pos : pos + 4], "little")
            pos += 4
            values = []
            for _ in range(ncodes):
                n = int.from_bytes(blob[pos : pos + 4], "little")
                pos += 4
                values.append(_decode_value(blob[pos : pos + n]))
                pos += n
            books.append(Codebook(values))
        nrows = int.from_bytes(blob[pos : pos + 4], "little")
        pos += 4
        columns = []
        for book in books:
            width = chr(blob[pos])
            pos += 1
            col = array(width)
            nbytes = nrows * col.itemsize
            col.frombytes(blob[pos : pos + nbytes])
            pos += nbytes
            columns.append(col)
        if exact:
            probs = []
            for _ in range(nrows):
                if blob[pos : pos + 1] != b"I":
                    raise ValueError("corrupt exact probability column")
                n = int.from_bytes(blob[pos + 1 : pos + 5], "little")
                num = _decode_value(blob[pos : pos + 5 + n])
                pos += 5 + n
                n = int.from_bytes(blob[pos + 1 : pos + 5], "little")
                den = _decode_value(blob[pos : pos + 5 + n])
                pos += 5 + n
                probs.append(Fraction(num, den))
            probs, total = _exact_column(_over_common_denominator(probs)[0])
        else:
            probs, total = array("d"), None
            probs.frombytes(blob[pos : pos + nrows * 8])
        return cls._from_canonical(
            tuple(names), tuple(books), tuple(columns), probs, total
        )

    @property
    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`to_bytes` — the content address."""
        if self._digest is None:
            object.__setattr__(
                self, "_digest", hashlib.sha256(self.to_bytes()).hexdigest()
            )
        return self._digest

    @property
    def cache_token(self) -> str:
        """Fingerprint consumed by ``engine.cache_key`` when a
        distribution appears in a construction-cache parameter tuple."""
        return f"table-dist:{self.digest}"

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {
            "variables": self.variables,
            "values": tuple(cb._values for cb in self._codebooks),
            "columns": self._columns,
            "probs": self._probs,
            "total": self._total,
        }

    def __setstate__(self, state):
        object.__setattr__(self, "variables", state["variables"])
        object.__setattr__(
            self,
            "_codebooks",
            tuple(Codebook._distinct(values) for values in state["values"]),
        )
        object.__setattr__(self, "_columns", state["columns"])
        object.__setattr__(self, "_probs", state["probs"])
        object.__setattr__(self, "_total", state["total"])
        object.__setattr__(self, "_bytes", None)
        object.__setattr__(self, "_digest", None)
        object.__setattr__(self, "_logps", None)
        object.__setattr__(self, "_pmf", None)

    def __reduce__(self):
        return (_unpickle_table, (self.__getstate__(),))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TableDistribution):
            return NotImplemented
        return (
            self.variables == other.variables
            and self._total == other._total
            and self._columns == other._columns
            and tuple(self._probs) == tuple(other._probs)
            and tuple(cb._values for cb in self._codebooks)
            == tuple(cb._values for cb in other._codebooks)
        )

    def __hash__(self) -> int:
        return int.from_bytes(
            hashlib.sha256(self.to_bytes()).digest()[:8], "little", signed=True
        )

    def __repr__(self) -> str:
        mode = "exact" if self.exact else "float"
        return (
            f"TableDistribution(variables={self.variables}, "
            f"rows={self.num_rows}, {mode}, digest={self.digest[:12]})"
        )


def _unpickle_table(state) -> TableDistribution:
    self = object.__new__(TableDistribution)
    self.__setstate__(state)
    return self


# ----------------------------------------------------------------------
# Incremental builder
# ----------------------------------------------------------------------
def _over_common_denominator(weights: list) -> tuple[list[int], int]:
    """Exact weights (ints and ``Fraction``s) as ints over their least
    common denominator, and that denominator."""
    den = math.lcm(*{w.denominator for w in weights})
    return [w.numerator * (den // w.denominator) for w in weights], den


class TableBuilder:
    """Appends coded rows, then canonicalizes them once into a table.

    Each variable owns a :class:`Codebook` (:attr:`codebooks`); a row is
    a tuple of codes those codebooks issued, one per variable.  A caller
    that meets the same value many times interns it once and appends its
    code — the lemma checkers stream enumeration outcomes in this way,
    so no outcome value is hashed per row — and :meth:`add` is the
    one-row case: intern each value, then :meth:`append`.  :meth:`build`
    canonicalizes once: codebooks re-sorted by canonical value bytes,
    rows sorted lexicographically, duplicates merged, zero rows dropped,
    weights validated (or normalized).  Exact weights are put over their
    least common denominator once, so every later sum is an int sum;
    counting outcomes with unit weights and ``build(normalize=True)``
    makes no ``Fraction`` at all.
    """

    def __init__(self, variables: Sequence[str], *, exact: bool = False) -> None:
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(
                f"duplicate variable names in {self.variables!r}"
            )
        self.exact = exact
        self.codebooks = tuple(Codebook() for _ in self.variables)
        self._rows: list[tuple[int, ...]] = []
        self._weights: list = []

    def append(self, codes: tuple[int, ...], weight=1.0) -> None:
        """Append one row of codes with the given probability weight.

        ``codes[i]`` must have been issued by ``codebooks[i]``; the codes
        are range-checked once, by :meth:`build`.
        """
        if len(codes) != len(self.variables):
            raise ValueError(
                f"row {codes!r} has {len(codes)} codes, expected "
                f"{len(self.variables)} for variables {self.variables!r}"
            )
        self._rows.append(codes)
        if self.exact and type(weight) is not int:
            weight = Fraction(weight)
        self._weights.append(weight)

    def add(self, row: Outcome, weight=1.0) -> None:
        """Append one outcome row of values with the given weight."""
        row = tuple(row)
        if len(row) != len(self.variables):
            raise ValueError(
                f"outcome {row!r} has arity {len(row)}, expected "
                f"{len(self.variables)} for variables {self.variables!r}"
            )
        self.append(tuple(map(Codebook.intern, self.codebooks, row)), weight)

    def __len__(self) -> int:
        return len(self._weights)

    def build(self, *, normalize: bool = False) -> TableDistribution:
        """Canonicalize and freeze into a :class:`TableDistribution`."""
        exact = self.exact
        tolerance = 0 if exact else NORMALIZATION_TOLERANCE
        for w in self._weights:
            if w < -tolerance:
                raise ValueError(f"negative probability {w}")
        if exact:
            weights, den = _over_common_denominator(self._weights)
            zero = 0
        else:
            weights, den, zero = self._weights, None, 0.0
        columns = list(zip(*self._rows)) or [()] * len(self.variables)
        # Canonical code order per variable: sort interned values by
        # their canonical bytes, remap the appended codes column-wise.
        remapped = []
        sorted_values = []
        for name, book, column in zip(self.variables, self.codebooks, columns):
            if column and (min(column) < 0 or max(column) >= len(book)):
                raise ValueError(f"a code of {name!r} that its codebook never issued")
            order = sorted(
                range(len(book)), key=lambda c: _canon_value(book._values[c])
            )
            remap = [0] * len(book)
            for new, old in enumerate(order):
                remap[old] = new
            remapped.append([remap[c] for c in column])
            sorted_values.append([book._values[c] for c in order])
        # Group rows by remapped code tuples (merging duplicates).
        masses: dict = {}
        get = masses.get
        for key, w in zip(zip(*remapped), weights):
            if w <= 0:
                continue
            masses[key] = get(key, zero) + w
        if not self.variables:
            total_weight = sum((w for w in weights if w > 0), zero)
            if total_weight > 0:
                masses[()] = total_weight
        if exact:
            # The weights over ``den`` sum to 1 exactly, or are normalized
            # by being read over their own sum.
            total = sum(masses.values())
            if normalize:
                if total <= 0:
                    raise ValueError("cannot normalize an all-zero pmf")
            elif total != den:
                raise ValueError(
                    f"pmf sums to {Fraction(total, den)}, expected 1"
                )
        else:
            total = math.fsum(masses.values())
            if normalize:
                if total <= 0:
                    raise ValueError("cannot normalize an all-zero pmf")
                for key in masses:
                    masses[key] /= total
            elif abs(total - 1) > tolerance:
                raise ValueError(f"pmf sums to {total}, expected 1")
        ordered = sorted(masses)
        # Drop codebook entries no surviving row uses, keeping order.
        books = []
        final_remaps = []
        for pos, values in enumerate(sorted_values):
            used = sorted({key[pos] for key in ordered})
            books.append(Codebook._distinct(values[c] for c in used))
            final_remaps.append({c: new for new, c in enumerate(used)})
        columns = tuple(
            array(
                _typecode_for(len(books[pos])),
                (final_remaps[pos][key[pos]] for key in ordered),
            )
            for pos in range(len(self.variables))
        )
        if exact:
            probs, total = _exact_column([masses[key] for key in ordered])
        else:
            probs = array("d", (float(masses[key]) for key in ordered))
            total = None
        return TableDistribution._from_canonical(
            self.variables, tuple(books), columns, probs, total
        )
