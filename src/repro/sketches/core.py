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
  ``array('q')`` columns (totals / index sums / fingerprints), a
  :class:`LinearSketch`: ``update`` / ``merge`` / ``encode`` / ``decode``;
* :class:`L0Block` — the referee-side accumulator for one label column,
  replacing chains of per-level object additions when components merge;
* :class:`SketchFamily` — the batch constructor: one pass over a
  :class:`~repro.graphs.frozen.FrozenGraph`'s CSR edge list builds every
  player's state (each edge updates its two endpoints in place, sharing
  the level hash and the fingerprint power), with finished message dicts
  cached in the engine's construction cache keyed by
  ``(family fingerprint, n, graph digest)``.

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
from abc import ABC, abstractmethod
from array import array
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .. import obs
from ..engine import construction_cache
from ..graphs import FrozenGraph
from ..obs import SKETCH_BYTES, SKETCH_CELLS_PACKED, SKETCH_CELLS_UNPACKED
from ..model import (
    BitReader,
    BitWriter,
    Message,
    PublicCoins,
    encode_vertex_set,
    id_width_for,
)
from .incidence import edge_coordinate
from .l0sampler import HASH_PRIME, L0Config, _derived_params


class LinearSketch(ABC):
    """A sketch that is a linear function of its input vector.

    The defining property: for states ``x`` and ``y`` built over the
    same parameters, ``x.merge(y)`` equals the state built over the
    coordinate-wise sum of their inputs.  The referee exploits this to
    add whole components; the batch constructor exploits it to apply
    updates in any order.
    """

    @abstractmethod
    def update(self, coord: int, delta: int) -> None:
        """Add ``delta`` at ``coord`` (mutates this state)."""

    @abstractmethod
    def merge(self, other: "LinearSketch") -> "LinearSketch":
        """The state of the summed input vectors (a new state)."""

    @abstractmethod
    def encode(self, writer: BitWriter) -> None:
        """Serialize through the packed codec (the wire contract)."""

    @property
    @abstractmethod
    def cache_token(self) -> str:
        """Content fingerprint for ``engine.cache_key`` parameter tuples."""


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


def _pack_cells(chunks: list[int], chunk_width: int) -> int:
    """Concatenate fixed-width chunks MSB-first into one word.

    The obvious left-shift fold re-shifts the whole growing word once
    per cell — quadratic in the family size and historically the
    dominant cost of whole-family serialization.  Instead, group cells
    into the smallest run whose width is a whole number of bytes
    (``8 / gcd(chunk_width, 8)`` cells), render each run with small
    shifts, and rebuild the word from the joined bytes in one C-level
    ``int.from_bytes`` — linear in the total bit count.
    """
    count = len(chunks)
    if count == 0:
        return 0
    if count == 1:
        return chunks[0]
    per_block = 8 // _gcd8(chunk_width)
    if count % per_block:
        # Ragged tail: pairwise tree (rare shapes; still O(total log n)).
        return _pack_tree(chunks, chunk_width)
    block_bytes = chunk_width * per_block // 8
    parts = []
    for i in range(0, count, per_block):
        block = chunks[i]
        for j in range(i + 1, i + per_block):
            block = (block << chunk_width) | chunks[j]
        parts.append(block.to_bytes(block_bytes, "big"))
    return int.from_bytes(b"".join(parts), "big")


def _gcd8(width: int) -> int:
    g = width & -width  # largest power of two dividing width
    return g if g < 8 else 8


def _pack_tree(chunks: list[int], chunk_width: int) -> int:
    items = list(chunks)
    widths = [chunk_width] * len(items)
    while len(items) > 1:
        half = len(items) // 2
        next_items = []
        next_widths = []
        for i in range(half):
            right = 2 * i + 1
            width_right = widths[right]
            next_items.append((items[right - 1] << width_right) | items[right])
            next_widths.append(widths[right - 1] + width_right)
        if len(items) % 2:
            next_items.append(items[-1])
            next_widths.append(widths[-1])
        items = next_items
        widths = next_widths
    return items[0]


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


class L0FamilyState(LinearSketch):
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
    """Referee-side accumulator for one label column of decoded states.

    Where the historical decode chained ``L0Sampler.add`` over a
    component's members (allocating a sampler object per addition), the
    block adds the members' columns into three short arrays and recovers
    directly — same arithmetic, no objects.  ``update`` applies extra
    incidence entries (the certificate peeler subtracts already-peeled
    edges this way) without touching the decoded states.
    """

    __slots__ = ("params", "label_index", "totals", "index_sums", "fingerprints")

    def __init__(self, params: L0FamilyParams, label_index: int) -> None:
        if not 0 <= label_index < params.num_labels:
            raise ValueError(f"label index {label_index} out of range")
        self.params = params
        self.label_index = label_index
        self.totals = [0] * params.num_levels
        self.index_sums = [0] * params.num_levels
        self.fingerprints = [0] * params.num_levels

    def accumulate(self, state: L0FamilyState) -> None:
        """Add one player's column for this label."""
        if state.params != self.params:
            raise ValueError("cannot accumulate a state from a different family")
        p = self.params
        base = self.label_index * p.num_levels
        q = p.q
        totals, index_sums, fingerprints = (
            self.totals,
            self.index_sums,
            self.fingerprints,
        )
        st, si, sf = state.totals, state.index_sums, state.fingerprints
        for level in range(p.num_levels):
            cell = base + level
            totals[level] += st[cell]
            index_sums[level] += si[cell]
            fingerprints[level] = (fingerprints[level] + sf[cell]) % q

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

    ``build_states`` makes one pass over the frozen graph's ascending
    edge list; each edge {u, v} applies +1 at the edge's coordinate to
    u's state and -1 to v's (the AGM signs), sharing the per-label level
    hash and fingerprint power between the two endpoints.  Fingerprint
    powers r^(u*n+v) are split as r^(u*n) * r^v from two per-vertex
    tables, so the modular exponentiation the per-view path pays per
    (edge, endpoint, label) collapses to one multiply per (edge, label).
    ``build_messages`` caches the finished message dict in the engine's
    construction cache — messages are immutable, so sharing across runs
    is free.
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
        states = {v: L0FamilyState(p) for v in graph.sorted_vertices()}
        num_levels, q, universe = p.num_levels, p.q, p.universe
        verts = graph.sorted_vertices()
        # Per-label fingerprint power tables: r^(u*n) and r^v per vertex,
        # filled by cumulative products over the ascending vertex list
        # (one mulmod per gap step instead of one modexp per vertex).
        tables: list[tuple[int, int, dict[int, int], dict[int, int]]] = []
        for a, b, r in p.abr:
            r_n = pow(r, n, q)
            row: dict[int, int] = {}
            col: dict[int, int] = {}
            if verts:
                prev = verts[0]
                acc_row = pow(r_n, prev, q)
                acc_col = pow(r, prev, q)
                row[prev] = acc_row
                col[prev] = acc_col
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
            tables.append((a, b, row, col))
        columns = {
            v: (s.totals, s.index_sums, s.fingerprints) for v, s in states.items()
        }
        top_cap = num_levels - 1
        for u, v in graph.edges():  # ascending, u < v: +1 at u, -1 at v
            coord = edge_coordinate(u, v, n)
            if not 0 <= coord < universe:
                raise ValueError(f"index {coord} outside universe {universe}")
            tu, iu, fu = columns[u]
            tv, iv, fv = columns[v]
            base = 0
            for a, b, row, col in tables:
                # Inlined _max_level: trailing zeros of the level hash.
                h = (a * coord + b) % HASH_PRIME
                if h == 0:
                    top = top_cap
                else:
                    top = (h & -h).bit_length() - 1
                    if top > top_cap:
                        top = top_cap
                rp = row[u] * col[v] % q
                # Level 0 always fires; half the draws stop there, so the
                # unrolled first cell skips the range() machinery.
                tu[base] += 1
                iu[base] += coord
                fu[base] = (fu[base] + rp) % q
                tv[base] -= 1
                iv[base] -= coord
                fv[base] = (fv[base] - rp) % q
                if top:
                    for cell in range(base + 1, base + top + 1):
                        tu[cell] += 1
                        iu[cell] += coord
                        fu[cell] = (fu[cell] + rp) % q
                        tv[cell] -= 1
                        iv[cell] -= coord
                        fv[cell] = (fv[cell] - rp) % q
                base += num_levels
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

    def build_messages(self, graph: FrozenGraph, n: int) -> dict[int, Message]:
        """Every player's serialized message, engine-cached per
        ``(family, n, graph digest)``.  Callers must treat the returned
        dict as read-only (runs on the same instance share it)."""
        return construction_cache().get_or_build(
            ("sketch-batch", self.params, n, graph),
            lambda: self.fresh_messages(graph, n),
        )

    def decode_states(
        self, sketches: Mapping[int, Message]
    ) -> dict[int, L0FamilyState]:
        """Decode every player's message (which must hold exactly this
        family's bits) into columnar states."""
        with obs.span("sketch.decode", states=len(sketches)):
            return {
                v: L0FamilyState.decode(m.reader(), self.params)
                for v, m in sketches.items()
            }

    def block(self, label: str | int) -> L0Block:
        """A fresh referee accumulator for one label (by name or index)."""
        index = (
            label if isinstance(label, int) else self.params.label_index[label]
        )
        return L0Block(self.params, index)


# ----------------------------------------------------------------------
# Shared batch-encoding helpers for the non-L0 protocols
# ----------------------------------------------------------------------
def vertex_set_message(vertices, n: int) -> Message:
    """A message holding one length-prefixed vertex set (the common
    payload of the sampled-edge protocols)."""
    writer = BitWriter()
    encode_vertex_set(writer, vertices, id_width_for(n))
    return writer.to_message()


def write_adjacency_row(writer: BitWriter, sorted_neighbors, n: int) -> None:
    """The n-bit adjacency row as run-length word writes.

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


def adjacency_row_message(sorted_neighbors, n: int) -> Message:
    """A message holding one n-bit adjacency row (the full-neighborhood
    protocols' payload)."""
    writer = BitWriter()
    write_adjacency_row(writer, sorted_neighbors, n)
    return writer.to_message()


def sampled_lower_endpoint_messages(
    graph: FrozenGraph, n: int, coins: PublicCoins, probability: float, keep
) -> dict[int, Message]:
    """The consistent-edge-sampling payload (densest / degeneracy /
    triangles): each kept edge is reported by its lower endpoint.

    ``keep(coins, u, v, probability)`` is the protocol's public-coin
    inclusion predicate; one pass over the ascending edge list evaluates
    it once per edge (the per-view path also pays once — only the lower
    endpoint tests each edge — so the saving here is the views dict and
    the per-player sort, not the hashing).
    """
    reported: dict[int, list[int]] = {v: [] for v in graph.sorted_vertices()}
    for u, v in graph.edges():  # ascending: reported lists come out sorted
        if keep(coins, u, v, probability):
            reported[u].append(v)
    return {v: vertex_set_message(r, n) for v, r in reported.items()}
