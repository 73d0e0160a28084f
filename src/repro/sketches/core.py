"""Mergeable linear-sketch core with batched per-graph construction.

Every L0-based upper-bound sketch in this repo is the same object in
different clothes: a *family* of identically-shaped L0 samplers over the
n^2-coordinate edge universe, updated through signed incidence entries,
serialized level-by-level through the packed codec.  Historically each
player built its own :class:`~repro.sketches.l0sampler.L0Sampler` stack
from its :class:`~repro.model.views.VertexView` — re-deriving the same
public-coin parameters n times and re-hashing each edge once per
endpoint.  This module hoists the family to a first-class runtime:

* :class:`L0FamilyParams` / :func:`derive_family` — the public-coin
  parameters of a whole family, derived once per ``(coins, labels)``
  and memoized process-wide;
* :class:`L0FamilyState` — one player's entire family as three flat
  ``array('q')`` columns (totals / index sums / fingerprints), a linear
  sketch: ``update`` / ``merge`` / ``encode`` / ``decode``, where
  ``x.merge(y)`` is the state of the summed inputs;
* :class:`L0Block` — the referee-side accumulator for one label column:
  it reads that label's cells straight from each member's wire word, so
  a referee unpacks only the columns it sums, never a whole family;
* :class:`SketchFamily` — the batch constructor: it lists the frozen
  graph's edges once (coordinate and both endpoints' columns), then
  goes label by label over that list, updating both endpoints' Python
  list columns per edge (the level hash and the fingerprint power are
  shared between them), with finished message dicts cached in the
  engine's construction cache keyed by ``(family fingerprint, n, graph
  digest)``.

Bit identity is the contract, not an aspiration: ``encode`` emits the
exact bit stream of the historical per-label ``L0Sampler.encode`` loop
(concatenated MSB-first fixed-width writes are associative), the batch
update order is irrelevant because every cell is a sum in Z or Z_q, and
the golden vectors in ``tests/data/golden_messages.json``, the oracle
registry's ``sketches`` pair and ``tests/test_sketch_core.py`` pin the
equality against the per-view oracle.
"""

from __future__ import annotations

import hashlib
from array import array
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .. import obs
from ..graphs import FrozenGraph
from ..obs import SKETCH_BYTES, SKETCH_CELLS_PACKED, SKETCH_CELLS_UNPACKED
from ..model import BitReader, BitWriter, Message, PublicCoins
from .incidence import edge_coordinate
from .l0sampler import HASH_PRIME, L0Config, _derived_params


@dataclass(frozen=True)
class L0FamilyParams:
    """Shared parameters of one family of L0 samplers.

    Everything a player or the referee needs that does not depend on the
    input graph: the sampler shape, the per-label public-coin hash/
    fingerprint parameters, and the encode widths.  Derived once per
    ``(coins.seed, labels, config, magnitude)`` via :func:`derive_family`
    and shared by every player, every run.
    """

    universe: int
    num_levels: int
    q: int
    magnitude: int  # max_value_magnitude bound used by the encode widths
    seed: int
    labels: tuple[str, ...]
    abr: tuple[tuple[int, int, int], ...]  # per-label (a, b, r)
    total_width: int
    index_width: int
    fingerprint_width: int

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    @property
    def level_width(self) -> int:
        return self.total_width + self.index_width + self.fingerprint_width

    @property
    def num_cells(self) -> int:
        return self.num_labels * self.num_levels

    @property
    def num_bits(self) -> int:
        """Exact serialized size of one state (= one player's message
        when the protocol sends nothing else)."""
        return self.level_width * self.num_cells

    @cached_property
    def label_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    @cached_property
    def cache_token(self) -> str:
        material = (
            f"l0-family:{self.seed}:{self.universe}:{self.num_levels}:"
            f"{self.q}:{self.magnitude}:" + "|".join(self.labels)
        )
        return f"l0-family:{hashlib.sha256(material.encode()).hexdigest()}"

    def config(self) -> L0Config:
        return L0Config(universe=self.universe, num_levels=self.num_levels, q=self.q)


@lru_cache(maxsize=4096)
def _family_params(
    seed: int,
    labels: tuple[str, ...],
    universe: int,
    num_levels: int,
    q: int,
    magnitude: int,
) -> L0FamilyParams:
    # Widths replicate L0Sampler.encoded_widths(magnitude) exactly —
    # that method is the wire contract the golden vectors pin.
    total_width = max(2, magnitude.bit_length() + 2)
    index_width = max(2, (magnitude * max(universe - 1, 1)).bit_length() + 2)
    fingerprint_width = q.bit_length()
    abr = tuple(_derived_params(seed, label, q) for label in labels)
    return L0FamilyParams(
        universe=universe,
        num_levels=num_levels,
        q=q,
        magnitude=magnitude,
        seed=seed,
        labels=labels,
        abr=abr,
        total_width=total_width,
        index_width=index_width,
        fingerprint_width=fingerprint_width,
    )


def derive_family(
    config: L0Config,
    coins: PublicCoins,
    labels: Iterable[str],
    magnitude: int,
) -> L0FamilyParams:
    """The memoized family parameters for ``labels`` under ``coins``.

    Each label's (a, b, r) is the same draw ``L0Sampler(config, coins,
    label)`` performs, through the same memoized derivation — the two
    construction paths literally share parameters.
    """
    return _family_params(
        coins.seed,
        tuple(labels),
        config.universe,
        config.num_levels,
        config.q,
        magnitude,
    )


def _max_level(h: int, num_levels: int) -> int:
    """Trailing-zero level of the hash, capped — identical to
    ``L0Sampler._max_level``'s bit walk."""
    if h == 0:
        return num_levels - 1
    level = (h & -h).bit_length() - 1
    return level if level < num_levels else num_levels - 1


def _power_tables(
    r: int, n: int, q: int, verts: tuple[int, ...]
) -> tuple[dict[int, int], dict[int, int]]:
    """r^(u*n) and r^u mod q for each vertex u of the ascending ``verts``,
    by cumulative products (one mulmod per gap step instead of one
    modexp per vertex)."""
    row: dict[int, int] = {}
    col: dict[int, int] = {}
    if not verts:
        return row, col
    r_n = pow(r, n, q)
    prev = verts[0]
    acc_row = row[prev] = pow(r_n, prev, q)
    acc_col = col[prev] = pow(r, prev, q)
    for u in verts[1:]:
        step = u - prev
        if step == 1:
            acc_row = acc_row * r_n % q
            acc_col = acc_col * r % q
        else:
            acc_row = acc_row * pow(r_n, step, q) % q
            acc_col = acc_col * pow(r, step, q) % q
        row[u] = acc_row
        col[u] = acc_col
        prev = u
    return row, col


def _pack_cells(chunks: list[int], chunk_width: int) -> int:
    """Concatenate fixed-width chunks MSB-first into one word.

    The obvious left-shift fold re-shifts the whole growing word once
    per cell — quadratic in the family size and historically the
    dominant cost of whole-family serialization.  Instead, render each
    run of eight cells (8 × chunk_width bits, always a whole number of
    bytes) with small shifts, rebuild the word from the joined bytes in
    one C-level ``int.from_bytes``, and shift in the ragged tail of at
    most seven cells — linear in the total bit count.
    """
    full = len(chunks) - len(chunks) % 8
    parts = []
    for i in range(0, full, 8):
        run = 0
        for chunk in chunks[i : i + 8]:
            run = (run << chunk_width) | chunk
        parts.append(run.to_bytes(chunk_width, "big"))  # 8 cells = width bytes
    word = int.from_bytes(b"".join(parts), "big")
    for chunk in chunks[full:]:
        word = (word << chunk_width) | chunk
    return word


def _gcd8(width: int) -> int:
    g = width & -width  # largest power of two dividing width
    return g if g < 8 else 8


def _unpack_cells(word: int, num_chunks: int, chunk_width: int) -> list[int]:
    """Inverse of :func:`_pack_cells`: split one word into fixed-width
    chunks, MSB-first — byte-aligned runs sliced out of the word's
    big-endian byte form, so the whole split is linear, not quadratic."""
    if num_chunks == 0:
        return []
    if num_chunks == 1:
        return [word]
    per_block = 8 // _gcd8(chunk_width)
    if num_chunks % per_block:
        return _unpack_tree(word, num_chunks, chunk_width)
    buf = word.to_bytes(num_chunks * chunk_width // 8, "big")
    block_bytes = chunk_width * per_block // 8
    mask = (1 << chunk_width) - 1
    out = []
    for i in range(num_chunks // per_block):
        block = int.from_bytes(buf[i * block_bytes : (i + 1) * block_bytes], "big")
        for j in range(per_block - 1, -1, -1):
            out.append((block >> (j * chunk_width)) & mask)
    return out


def _unpack_tree(word: int, num_chunks: int, chunk_width: int) -> list[int]:
    out = [0] * num_chunks

    def split(value: int, lo: int, hi: int) -> None:
        if hi - lo == 1:
            out[lo] = value
            return
        mid = (lo + hi) // 2
        low_bits = (hi - mid) * chunk_width
        split(value >> low_bits, lo, mid)
        split(value & ((1 << low_bits) - 1), mid, hi)

    split(word, 0, num_chunks)
    return out


class L0FamilyState:
    """One player's whole sampler family in three flat int64 columns.

    Cell ``label_index * num_levels + level`` holds that sampler level's
    (total, index_sum, fingerprint) across the three arrays.  Bounded by
    construction: totals by the number of updates, index sums by
    ``magnitude * universe`` — int64 is ample at reproduction scale, and
    ``array`` raises ``OverflowError`` rather than wrapping if a caller
    exceeds it.
    """

    __slots__ = ("params", "totals", "index_sums", "fingerprints")

    def __init__(self, params: L0FamilyParams) -> None:
        self.params = params
        zeros = array("q", [0]) * params.num_cells
        self.totals = array("q", zeros)
        self.index_sums = array("q", zeros)
        self.fingerprints = array("q", zeros)

    def update(self, coord: int, delta: int) -> None:
        """Apply one incidence entry to every sampler of the family."""
        p = self.params
        if not 0 <= coord < p.universe:
            raise ValueError(f"index {coord} outside universe {p.universe}")
        totals, index_sums, fingerprints = (
            self.totals,
            self.index_sums,
            self.fingerprints,
        )
        num_levels, q = p.num_levels, p.q
        base = 0
        for a, b, r in p.abr:
            top = _max_level((a * coord + b) % HASH_PRIME, num_levels)
            rp = pow(r, coord, q)
            for cell in range(base, base + top + 1):
                totals[cell] += delta
                index_sums[cell] += coord * delta
                fingerprints[cell] = (fingerprints[cell] + delta * rp) % q
            base += num_levels

    def merge(self, other: "L0FamilyState") -> "L0FamilyState":
        if self.params != other.params:
            raise ValueError("cannot merge sketch states from different families")
        out = L0FamilyState(self.params)
        q = self.params.q
        st, si, sf = self.totals, self.index_sums, self.fingerprints
        ot, oi, of = other.totals, other.index_sums, other.fingerprints
        nt, ni, nf = out.totals, out.index_sums, out.fingerprints
        for i in range(self.params.num_cells):
            nt[i] = st[i] + ot[i]
            ni[i] = si[i] + oi[i]
            nf[i] = (sf[i] + of[i]) % q
        return out

    def is_zero(self) -> bool:
        return (
            not any(self.totals)
            and not any(self.index_sums)
            and not any(self.fingerprints)
        )

    @property
    def cache_token(self) -> str:
        digest = hashlib.sha256(
            self.params.cache_token.encode()
            + self.totals.tobytes()
            + self.index_sums.tobytes()
            + self.fingerprints.tobytes()
        ).hexdigest()
        return f"l0-family-state:{digest}"

    # ------------------------------------------------------------------
    # Wire format — the historical per-label L0Sampler.encode stream
    # ------------------------------------------------------------------
    def encode(self, writer: BitWriter, *, check: bool = True) -> None:
        """One packed write of every label's every level, label-major.

        Bit-identical to encoding each label's ``L0Sampler`` in sequence:
        fixed-width MSB-first fields concatenate associatively, so one
        ``write_uint`` of the whole family equals num_labels writes of
        one sampler each.

        ``check=False`` skips range validation; only for callers that can
        prove every cell fits its width (see
        :meth:`SketchFamily.bounds_cover`) — out-of-range values would
        silently corrupt neighboring fields.
        """
        p = self.params
        tw, iw, fw = p.total_width, p.index_width, p.fingerprint_width
        t_mask, i_mask = (1 << tw) - 1, (1 << iw) - 1
        if check:
            self._check_ranges()
        chunks = [
            ((((total & t_mask) << iw) | (index_sum & i_mask)) << fw) | fingerprint
            for total, index_sum, fingerprint in zip(
                self.totals, self.index_sums, self.fingerprints
            )
        ]
        writer.write_uint(_pack_cells(chunks, p.level_width), p.num_bits)
        recorder = obs.active()
        if recorder is not None:
            recorder.count(SKETCH_CELLS_PACKED, p.num_cells)
            recorder.count(SKETCH_BYTES, (p.num_bits + 7) // 8)

    def _check_ranges(self) -> None:
        """Validate every cell fits its encode width.

        Fast path: whole-column min/max comparisons.  Only when one
        fails does the per-cell scan run, raising the same error (same
        message, same first-offending-cell order) as the historical
        per-value checks in ``L0Sampler.encode``.
        """
        p = self.params
        tw, iw, fw = p.total_width, p.index_width, p.fingerprint_width
        t_lo, t_hi = -(1 << (tw - 1)), (1 << (tw - 1)) - 1
        i_lo, i_hi = -(1 << (iw - 1)), (1 << (iw - 1)) - 1
        f_bound = 1 << fw
        if not p.num_cells:
            return
        if (
            t_lo <= min(self.totals)
            and max(self.totals) <= t_hi
            and i_lo <= min(self.index_sums)
            and max(self.index_sums) <= i_hi
            and 0 <= min(self.fingerprints)
            and max(self.fingerprints) < f_bound
        ):
            return
        for cell in range(p.num_cells):
            total = self.totals[cell]
            index_sum = self.index_sums[cell]
            fingerprint = self.fingerprints[cell]
            if not t_lo <= total <= t_hi:
                raise ValueError(f"value {total} does not fit signed in {tw} bits")
            if not i_lo <= index_sum <= i_hi:
                raise ValueError(
                    f"value {index_sum} does not fit signed in {iw} bits"
                )
            if not 0 <= fingerprint < f_bound:
                raise ValueError(f"value {fingerprint} does not fit in {fw} bits")
        raise AssertionError("range scan and aggregate check disagree")

    def to_message(self, *, check: bool = True) -> Message:
        writer = BitWriter()
        self.encode(writer, check=check)
        return writer.to_message()

    @classmethod
    def decode(cls, reader: BitReader, params: L0FamilyParams) -> "L0FamilyState":
        """Inverse of :meth:`encode`: one block read, then shift/mask."""
        state = cls(params)
        word = reader.read_uint(params.num_bits)
        tw, iw, fw = (
            params.total_width,
            params.index_width,
            params.fingerprint_width,
        )
        t_mask, i_mask, f_mask = (1 << tw) - 1, (1 << iw) - 1, (1 << fw) - 1
        t_sign, i_sign = 1 << (tw - 1), 1 << (iw - 1)
        totals, index_sums, fingerprints = (
            state.totals,
            state.index_sums,
            state.fingerprints,
        )
        recorder = obs.active()
        if recorder is not None:
            recorder.count(SKETCH_CELLS_UNPACKED, params.num_cells)
        chunks = _unpack_cells(word, params.num_cells, params.level_width)
        for cell, chunk in enumerate(chunks):
            total = (chunk >> (iw + fw)) & t_mask
            index_sum = (chunk >> fw) & i_mask
            totals[cell] = total - (t_mask + 1) if total >= t_sign else total
            index_sums[cell] = (
                index_sum - (i_mask + 1) if index_sum >= i_sign else index_sum
            )
            fingerprints[cell] = chunk & f_mask
        return state


class L0Block:
    """Referee-side accumulator for one label column, read off the wire.

    A player's message is one packed word, label-major (see
    :meth:`L0FamilyState.encode`).  ``accumulate`` shifts this label's
    ``num_levels`` cells out of one member's word, sign-extends them as
    :meth:`L0FamilyState.decode` does, and adds them into three short
    lists — so a referee unpacks only the columns it sums, and recovers
    directly with no per-level objects.  ``update`` applies extra
    incidence entries (the certificate peeler subtracts already-peeled
    edges this way).
    """

    __slots__ = (
        "params",
        "label_index",
        "totals",
        "index_sums",
        "fingerprints",
        "_shift",
        "_mask",
    )

    def __init__(self, params: L0FamilyParams, label_index: int) -> None:
        if not 0 <= label_index < params.num_labels:
            raise ValueError(f"label index {label_index} out of range")
        self.params = params
        self.label_index = label_index
        self.totals = [0] * params.num_levels
        self.index_sums = [0] * params.num_levels
        self.fingerprints = [0] * params.num_levels
        column_width = params.num_levels * params.level_width
        self._shift = (params.num_labels - 1 - label_index) * column_width
        self._mask = (1 << column_width) - 1

    def accumulate(self, word: int) -> None:
        """Add one player's column for this label, unpacked from the
        player's wire word (``reader.read_uint(params.num_bits)``)."""
        p = self.params
        tw, iw, fw = p.total_width, p.index_width, p.fingerprint_width
        width, q = p.level_width, p.q
        i_mask, f_mask = (1 << iw) - 1, (1 << fw) - 1
        t_sign, i_sign = 1 << (tw - 1), 1 << (iw - 1)
        t_wrap, i_wrap = 1 << tw, 1 << iw
        totals, index_sums, fingerprints = (
            self.totals,
            self.index_sums,
            self.fingerprints,
        )
        column = (word >> self._shift) & self._mask
        # Level 0 sits in the top bits.  Stop once the rest of the column
        # is zero: a player's high levels mostly are, and add nothing.
        shift = p.num_levels * width
        level = 0
        while column:
            shift -= width
            chunk = column >> shift
            column ^= chunk << shift
            total = chunk >> (iw + fw)
            index_sum = (chunk >> fw) & i_mask
            totals[level] += total - t_wrap if total >= t_sign else total
            index_sums[level] += (
                index_sum - i_wrap if index_sum >= i_sign else index_sum
            )
            fingerprints[level] = (fingerprints[level] + (chunk & f_mask)) % q
            level += 1
        recorder = obs.active()
        if recorder is not None:
            recorder.count(SKETCH_CELLS_UNPACKED, p.num_levels)

    def update(self, coord: int, delta: int) -> None:
        """Apply one incidence entry to this label's accumulated column."""
        p = self.params
        if not 0 <= coord < p.universe:
            raise ValueError(f"index {coord} outside universe {p.universe}")
        a, b, r = p.abr[self.label_index]
        top = _max_level((a * coord + b) % HASH_PRIME, p.num_levels)
        rp = pow(r, coord, p.q)
        q = p.q
        for level in range(top + 1):
            self.totals[level] += delta
            self.index_sums[level] += coord * delta
            self.fingerprints[level] = (self.fingerprints[level] + delta * rp) % q

    def recover(self) -> tuple[int, int] | None:
        """A nonzero (index, value), or None — ``L0Sampler.recover`` over
        the accumulated column: scan from the most aggressive level down,
        one-sparse consistency check per level, universe validation."""
        p = self.params
        q = p.q
        r = p.abr[self.label_index][2]
        for level in range(p.num_levels - 1, -1, -1):
            total = self.totals[level]
            if total == 0:
                continue
            index_sum = self.index_sums[level]
            if index_sum % total != 0:
                continue
            index = index_sum // total
            if index < 0:
                continue
            expected = (total % q) * pow(r, index, q) % q
            if expected != self.fingerprints[level] % q:
                continue
            if index < p.universe:
                return index, total
        return None


class SketchFamily:
    """Batch constructor of incidence-vector sketch states for a graph.

    ``build_states`` lists the frozen graph's ascending edges once, then
    goes label by label over that list; each edge {u, v} applies +1 at
    the edge's coordinate to u's columns and -1 to v's (the AGM signs),
    sharing the label's level hash and fingerprint power between the two
    endpoints.  Fingerprint powers r^(u*n+v) are split as r^(u*n) * r^v
    from two per-vertex tables, so the modular exponentiation the
    per-view path pays per (edge, endpoint, label) collapses to one
    multiply per (edge, label).  ``fresh_messages`` serializes the
    states; nothing is cached, since no run reads one family's messages
    on one graph twice.
    """

    def __init__(self, params: L0FamilyParams) -> None:
        self.params = params

    @classmethod
    def incidence(
        cls,
        config: L0Config,
        coins: PublicCoins,
        labels: Iterable[str],
        magnitude: int,
    ) -> "SketchFamily":
        return cls(derive_family(config, coins, labels, magnitude))

    def empty_state(self) -> L0FamilyState:
        return L0FamilyState(self.params)

    def build_states(self, graph: FrozenGraph, n: int) -> dict[int, L0FamilyState]:
        """Every player's family state, one CSR pass."""
        with obs.span(
            "sketch.build",
            labels=self.params.num_labels,
            n=n,
            edges=graph.num_edges(),
        ):
            return self._build_states(graph, n)

    def _build_states(self, graph: FrozenGraph, n: int) -> dict[int, L0FamilyState]:
        p = self.params
        num_levels, num_cells, q, universe = (
            p.num_levels,
            p.num_cells,
            p.q,
            p.universe,
        )
        verts = graph.sorted_vertices()
        # Python-list columns per vertex: list items update faster than
        # array('q') items, and fingerprints are reduced mod q only once
        # per cell at the end.
        columns = {
            v: ([0] * num_cells, [0] * num_cells, [0] * num_cells) for v in verts
        }
        # Level 0 keeps every coordinate, so its total and index sum are
        # the same for every label: one (total, index sum) per vertex.
        level0 = {v: [0, 0] for v in verts}
        # One entry per edge, ascending, u < v: +1 at u, -1 at v.
        edges = []
        for u, v in graph.edges():
            coord = edge_coordinate(u, v, n)
            if coord >= universe:
                raise ValueError(f"index {coord} outside universe {universe}")
            low, high = level0[u], level0[v]
            low[0] += 1
            low[1] += coord
            high[0] -= 1
            high[1] -= coord
            edges.append((coord, u, v, *columns[u], *columns[v]))
        top_cap = num_levels - 1
        base = 0
        for a, b, r in p.abr:
            row, col = _power_tables(r, n, q, verts)
            for coord, u, v, tu, iu, fu, tv, iv, fv in edges:
                rp = row[u] * col[v]
                fu[base] += rp
                fv[base] -= rp
                h = (a * coord + b) % HASH_PRIME
                if h & 1:
                    continue  # an odd level hash stops at level 0
                # Inlined _max_level: trailing zeros of the level hash.
                if h == 0:
                    top = top_cap
                else:
                    top = (h & -h).bit_length() - 1
                    if top > top_cap:
                        top = top_cap
                for cell in range(base + 1, base + top + 1):
                    tu[cell] += 1
                    iu[cell] += coord
                    fu[cell] += rp
                    tv[cell] -= 1
                    iv[cell] -= coord
                    fv[cell] -= rp
            base += num_levels
        states = {}
        for v, (totals, index_sums, fingerprints) in columns.items():
            total, index_sum = level0[v]
            totals[::num_levels] = [total] * p.num_labels
            index_sums[::num_levels] = [index_sum] * p.num_labels
            state = states[v] = L0FamilyState(p)
            state.totals = array("q", totals)
            state.index_sums = array("q", index_sums)
            state.fingerprints = array("q", [f % q for f in fingerprints])
        return states

    def encode_states(
        self, states: Mapping[int, L0FamilyState], *, check: bool = True
    ) -> dict[int, Message]:
        with obs.span("sketch.encode", states=len(states)):
            return {
                v: state.to_message(check=check) for v, state in states.items()
            }

    def bounds_cover(self, graph: FrozenGraph) -> bool:
        """True when every incidence state built from ``graph`` provably
        fits the encode widths, making per-cell range validation
        redundant: each incident edge moves a cell's total by exactly 1
        and its index sum by at most ``universe - 1``, so ``|total| <=
        max_degree`` and ``|index_sum| <= max_degree * (universe - 1)``;
        fingerprints are maintained in ``[0, q)`` by construction."""
        p = self.params
        max_degree = graph.max_degree() if graph.num_vertices() else 0
        t_hi = (1 << (p.total_width - 1)) - 1
        i_hi = (1 << (p.index_width - 1)) - 1
        return (
            max_degree <= t_hi
            and max_degree * max(p.universe - 1, 0) <= i_hi
            and p.q <= 1 << p.fingerprint_width
        )

    def fresh_messages(self, graph: FrozenGraph, n: int) -> dict[int, Message]:
        """One uncached batched construction: states plus serialization.
        Skips encode-time range validation when :meth:`bounds_cover`
        proves it redundant (the common case — a family's magnitude is
        sized for its graph); otherwise validates cell by cell with the
        historical errors."""
        states = self.build_states(graph, n)
        return self.encode_states(states, check=not self.bounds_cover(graph))

    def read_words(self, sketches: Mapping[int, Message]) -> dict[int, int]:
        """Each player's packed family word, read once for the referee's
        :class:`L0Block` columns (a short message raises ``EOFError``)."""
        num_bits = self.params.num_bits
        return {v: m.reader().read_uint(num_bits) for v, m in sketches.items()}

    def block(self, label: str | int) -> L0Block:
        """A fresh referee accumulator for one label (by name or index)."""
        index = (
            label if isinstance(label, int) else self.params.label_index[label]
        )
        return L0Block(self.params, index)


# ----------------------------------------------------------------------
# An encoding helper for the non-L0 protocols
# ----------------------------------------------------------------------
def write_adjacency_row(writer: BitWriter, sorted_neighbors, n: int) -> None:
    """The n-bit adjacency row as run-length word writes, for messages
    that carry a row after other fields (a whole-message row is
    :func:`~repro.model.messages.adjacency_row_message`).

    Bit-identical to ``for u in range(n): write_bit(u in neighbors)``:
    ``write_uint(1, gap + 1)`` emits ``gap`` zeros then a one, MSB-first,
    exactly the bits the per-position loop would.  Neighbors >= n are
    outside the row and skipped, as the range loop skips them.
    """
    pos = 0
    for u in sorted_neighbors:
        if u >= n:
            break
        writer.write_uint(1, u - pos + 1)
        pos = u + 1
    if n > pos:
        writer.write_uint(0, n - pos)
