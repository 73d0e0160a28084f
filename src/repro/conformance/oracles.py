"""The oracle registry: every fast↔reference pair, declared in one place.

PRs 3–7 each rebuilt a hot layer on a fast representation and kept the
original implementation as a slow oracle.  This module is the single
inventory of those pairs:

* ``codec``      — packed ``Message``/``BitWriter``/``BitReader`` and the
                   one-message vertex-set and row forms vs the
                   per-bit-list codec in ``repro.model.reference``;
* ``graphs``     — CSR ``FrozenGraph`` vs the mutable dict-of-sets
                   ``Graph`` builder, and both forms' matching checks
                   vs an edge scan and the unpruned enumerator;
* ``infotheory`` — columnar ``TableDistribution`` vs the dict-of-tuples
                   ``JointDistribution`` oracle;
* ``sketches``   — ``BatchSketchProtocol.sketch_batch`` vs per-view
                   ``sketch`` calls, player by player;
* ``engine``     — the process-pool backend vs the serial backend on one
                   protocol batch (the same derived-seed items);
* ``lemmas``     — exact Lemma 3.5 one copy at a time
                   (``analyze_copies``) vs the full joint
                   (``analyze_protocol``).

Each :class:`OraclePair` knows how to *generate* a random case from a
seed, *build* the artifacts both implementations produce on it, and run
the *differential* comparison.  ``check(case)`` is the uniform entry
point: it returns one :class:`Verdict` for the differential plus one per
applicable metamorphic law (see :mod:`repro.conformance.laws`).  The
fuzz driver, the CLI, the test suite's registry-driven test and the
fault-injection tests all go through it.
"""

from __future__ import annotations

import math
import pickle
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from ..engine import ExecutionEngine, derive_seed
from ..experiments.lemmas import SUITE_SPECS
from ..graphs import (
    FrozenGraph,
    Graph,
    all_maximal_matchings,
    greedy_maximal_matching,
    is_maximal_matching,
)
from ..graphs.builders import erdos_renyi
from ..infotheory import JointDistribution, TableDistribution
from ..lowerbound import analyze_copies, analyze_protocol, micro_distribution
from ..model import (
    BitWriter,
    Message,
    PublicCoins,
    adjacency_row_message,
    id_width_for,
    read_vertex_set,
    read_vertex_sets,
    run_protocol,
    run_protocol_batch,
    vertex_set_message,
    vertex_set_messages,
    views_of,
)
from ..model.reference import LegacyBitReader, LegacyBitWriter, LegacyMessage
from ..protocols import make_protocol
from ..sketches import L0Config, L0FamilyState, SketchFamily
from .cases import Case, case_rng, case_seed
from .laws import CheckContext, Law, laws_for

#: Registry protocol specs the sketch/engine pairs draw cases from.
#: Every one implements BatchSketchProtocol (the fast path under test).
PROTOCOL_SPECS = (
    "full",
    "sampled:2",
    "degree-adaptive:2",
    "low-degree:3",
    "low-degree:4",
    "hybrid:3,2",
    "priority:1",
    "linear:1",
    "mis-full",
    "mis-sampled:2",
    "mis-local-min",
    "mis-patched:2",
)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check (the differential, or one law) on one case."""

    pair: str
    law: str
    ok: bool
    detail: str = ""

    def describe(self) -> str:
        """One line: pair, law, ok/FAIL, and the failure detail."""
        status = "ok" if self.ok else "FAIL"
        tail = f": {self.detail}" if self.detail else ""
        return f"[{status}] {self.pair}/{self.law}{tail}"


@dataclass(frozen=True)
class OraclePair:
    """One fast↔reference implementation pair under conformance test."""

    name: str
    layer: str
    fast: str
    reference: str
    generate: Callable[[int], Case]
    build: Callable[[Case], CheckContext]
    differential: Callable[[CheckContext], "str | None"]
    weight: int = 4

    @property
    def laws(self) -> tuple[Law, ...]:
        return laws_for(self.layer)

    def case_for(self, base_seed: int, index: int) -> Case:
        """Case ``index`` of this pair's deterministic fuzz stream."""
        return self.generate(case_seed(base_seed, self.name, index))

    def check(self, case: Case) -> list[Verdict]:
        """Run the differential and every applicable law on one case.

        Never raises: a crash in construction or in a check is itself a
        failing verdict (law ``build`` / the law's own name), so the
        fuzz driver and the shrinker can treat any exception as a
        reproducible counterexample.
        """
        try:
            ctx = self.build(case)
        except Exception as exc:  # noqa: BLE001 — crashes are findings
            return [
                Verdict(
                    pair=self.name,
                    law="build",
                    ok=False,
                    detail=f"{type(exc).__name__}: {exc}",
                )
            ]
        verdicts = [self._run(ctx, "differential", self.differential)]
        for law in self.laws:
            verdicts.append(self._run(ctx, law.name, law.apply))
        return verdicts

    def _run(self, ctx: CheckContext, law_name: str, fn) -> Verdict:
        try:
            detail = fn(ctx)
        except Exception as exc:  # noqa: BLE001 — crashes are findings
            return Verdict(
                pair=self.name,
                law=law_name,
                ok=False,
                detail=f"{type(exc).__name__}: {exc}",
            )
        return Verdict(
            pair=self.name, law=law_name, ok=detail is None, detail=detail or ""
        )


# ======================================================================
# codec: packed Message/BitWriter vs the per-bit-list legacy codec
# ======================================================================
_MAX_UINT_WIDTH = 33
_MAX_INT_WIDTH = 20


def _codec_generate(seed: int) -> Case:
    rng = case_rng(seed)
    atoms = []
    for _ in range(rng.randint(1, 40)):
        kind = rng.choice(("bit", "uint", "uint", "uintarr", "varint", "int"))
        if kind == "bit":
            atoms.append(("bit", rng.randint(0, 1)))
        elif kind == "uint":
            width = rng.randint(0, _MAX_UINT_WIDTH)
            atoms.append(("uint", rng.randrange(1 << width) if width else 0, width))
        elif kind == "uintarr":
            width = rng.randint(1, 16)
            values = [rng.randrange(1 << width) for _ in range(rng.randint(0, 8))]
            atoms.append(("uintarr", width, *values))
        elif kind == "varint":
            # Bias toward the 7/14/21-bit continuation edges.
            edge = rng.choice((0, 1, 127, 128, 16383, 16384, 2097151, 2097152))
            atoms.append(("varint", rng.choice((edge, rng.randrange(1 << 41)))))
        else:
            width = rng.randint(1, _MAX_INT_WIDTH)
            lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
            atoms.append(("int", rng.randint(lo, hi), width))
    return Case(pair="codec", seed=seed, atoms=tuple(atoms))


def _codec_apply(writer, atom) -> None:
    """Apply one op atom to either codec's writer (shared bit format)."""
    kind = atom[0]
    if kind == "bit":
        writer.write_bit(atom[1])
    elif kind == "uint":
        writer.write_uint(atom[1], atom[2])
    elif kind == "uintarr":
        width, values = atom[1], list(atom[2:])
        if hasattr(writer, "write_uint_array"):
            writer.write_uint_array(values, width)
        else:
            # The bulk write's contract IS per-element equivalence.
            for value in values:
                writer.write_uint(value, width)
    elif kind == "varint":
        writer.write_varint(atom[1])
    elif kind == "int":
        writer.write_int(atom[1], atom[2])
    else:
        raise ValueError(f"unknown codec op {kind!r}")


def _codec_build(case: Case) -> CheckContext:
    ctx = CheckContext(case)
    fast_writer, legacy_writer = BitWriter(), LegacyBitWriter()
    for atom in case.atoms:
        _codec_apply(fast_writer, atom)
        _codec_apply(legacy_writer, atom)
    fast = fast_writer.to_message()
    legacy = legacy_writer.to_message()
    ctx.ops = case.atoms
    ctx.writer_bits = fast_writer.num_bits
    ctx.fast_message = fast
    ctx.legacy_message = legacy
    ctx.messages.append(fast)
    _one_message_build(ctx)
    ctx.roundtrips.extend(
        [
            ("message-from-bits", fast, lambda: Message.from_bits(fast.bits)),
            (
                "message-payload",
                fast,
                lambda: Message(fast.payload, fast.num_bits),
            ),
            (
                "message-pickle",
                fast,
                lambda: pickle.loads(pickle.dumps(fast)),
            ),
        ]
    )
    return ctx


def _codec_read(reader, atom):
    """Decode one op atom; returns the read value(s)."""
    kind = atom[0]
    if kind == "bit":
        return reader.read_bit()
    if kind == "uint":
        return reader.read_uint(atom[2])
    if kind == "uintarr":
        width, count = atom[1], len(atom) - 2
        if hasattr(reader, "read_uint_array"):
            return tuple(reader.read_uint_array(count, width))
        return tuple(reader.read_uint(width) for _ in range(count))
    if kind == "varint":
        return reader.read_varint()
    if kind == "int":
        return reader.read_int(atom[2])
    raise ValueError(f"unknown codec op {kind!r}")


def _codec_atom_bits(atom) -> int:
    """The bits one op atom is charged, from the wire format alone."""
    kind = atom[0]
    if kind == "bit":
        return 1
    if kind == "uintarr":
        return atom[1] * (len(atom) - 2)
    if kind == "varint":
        return 8 * max(1, -(-atom[1].bit_length() // 7))
    return atom[2]


def _codec_written_value(atom):
    kind = atom[0]
    if kind == "uintarr":
        return tuple(atom[2:])
    return atom[1]


def _codec_differential(ctx: CheckContext) -> "str | None":
    fast, legacy = ctx.fast_message, ctx.legacy_message
    expected = sum(map(_codec_atom_bits, ctx.ops))
    for label, bits in (
        ("packed writer", ctx.writer_bits),
        ("packed message", fast.num_bits),
        ("legacy message", legacy.num_bits),
    ):
        if bits != expected:
            return f"{label} charged {bits} bits, the ops encode {expected}"
    if fast.bits != tuple(legacy.bits):
        return "bit strings differ between packed and legacy writers"
    # Read-back: the packed reader over the packed message, the legacy
    # reader over the legacy message, and (cross-representation) the
    # legacy reader over the packed message's bit view.
    readers = [
        ("packed", fast.reader()),
        ("legacy", LegacyBitReader(legacy)),
        ("cross", LegacyBitReader(LegacyMessage(bits=fast.bits))),
    ]
    for atom in ctx.ops:
        want = _codec_written_value(atom)
        for label, reader in readers:
            got = _codec_read(reader, atom)
            if got != want:
                return (
                    f"{label} reader decoded {got!r} for op {atom!r}, "
                    f"expected {want!r}"
                )
    for label, reader in readers:
        if reader.remaining:
            return f"{label} reader has {reader.remaining} bits left over"
    return _one_message_differential(ctx)


# One-message forms: a whole message is one vertex set or one n-bit row,
# checked against the legacy writer's per-id and per-position loops, and
# a delivery's vertex sets through the batch encoder and reader.
_MAX_ROW_BITS = 300
_MAX_BATCH_ROWS = 6


def _legacy_vertex_set(vertices, width: int) -> LegacyMessage:
    """A varint count, then one ``write_uint`` per id."""
    writer = LegacyBitWriter()
    writer.write_varint(len(vertices))
    for v in vertices:
        writer.write_uint(v, width)
    return writer.to_message()


def _legacy_read_vertex_set(message: LegacyMessage, width: int) -> list[int]:
    reader = LegacyBitReader(message)
    count = reader.read_varint()
    return [reader.read_uint(width) for _ in range(count)]


def _raises(error: type[Exception], fn) -> bool:
    try:
        fn()
    except error:
        return True
    return False


def _set_size(rng) -> int:
    """Empty, small, or past 127 ids, where the count's varint takes a
    second group."""
    return rng.choice((0, rng.randint(1, 12), rng.randint(120, 136)))


def _one_message_build(ctx: CheckContext) -> None:
    rng = ctx.case.rng("one-message")
    n = rng.randint(1, _MAX_ROW_BITS)
    width = id_width_for(n)
    count = _set_size(rng)
    vertices = [rng.randrange(n) for _ in range(count)]
    row = sorted(rng.sample(range(n), rng.randint(0, n)))
    ctx.n, ctx.id_width, ctx.vertices = n, width, vertices
    ctx.fast_set = vertex_set_message(vertices, n)
    ctx.legacy_set = _legacy_vertex_set(vertices, width)
    ctx.fast_row = adjacency_row_message(row, n)
    legacy_row = LegacyBitWriter()
    members = set(row)
    for u in range(n):
        legacy_row.write_bit(1 if u in members else 0)
    ctx.legacy_row = legacy_row.to_message()
    ctx.set_cut = rng.randrange(ctx.fast_set.num_bits)
    ctx.too_wide = rng.choice((1 << width, -1))
    ctx.messages.extend([ctx.fast_set, ctx.fast_row])
    # A batch on its own stream, so the one-message draws above hold.
    rng = ctx.case.rng("vertex-set-batch")
    rows = [
        (player, [rng.randrange(n) for _ in range(_set_size(rng))])
        for player in range(rng.randint(1, _MAX_BATCH_ROWS))
    ]
    ctx.batch_rows = rows
    ctx.fast_batch = vertex_set_messages(rows, n)
    ctx.legacy_batch = {p: _legacy_vertex_set(ids, width) for p, ids in rows}
    cut_player = rng.randrange(len(rows))
    ctx.batch_cut = (cut_player, rng.randrange(ctx.fast_batch[cut_player].num_bits))
    ctx.batch_bad_player = rng.randrange(len(rows))
    ctx.messages.extend(ctx.fast_batch.values())


def _one_message_differential(ctx: CheckContext) -> "str | None":
    width, vertices = ctx.id_width, ctx.vertices
    for label, fast, legacy in (
        ("vertex_set_message", ctx.fast_set, ctx.legacy_set),
        ("adjacency_row_message", ctx.fast_row, ctx.legacy_row),
    ):
        if fast.bits != tuple(legacy.bits):
            return f"{label} differs from the legacy writer's bits"
    for label, got in (
        ("read_vertex_set", read_vertex_set(ctx.fast_set, width)),
        ("legacy reader", _legacy_read_vertex_set(ctx.legacy_set, width)),
    ):
        if got != vertices:
            return f"{label} decoded {got!r}, expected {vertices!r}"
    cut = ctx.set_cut
    fast_cut = Message.from_bits(ctx.fast_set.bits[:cut])
    legacy_cut = LegacyMessage(bits=tuple(ctx.legacy_set.bits[:cut]))
    if not _raises(EOFError, lambda: read_vertex_set(fast_cut, width)):
        return f"read_vertex_set read a set cut to {cut} bits"
    if not _raises(EOFError, lambda: _legacy_read_vertex_set(legacy_cut, width)):
        return f"the legacy reader read a set cut to {cut} bits"
    bad = [*vertices, ctx.too_wide]
    if not _raises(ValueError, lambda: vertex_set_message(bad, ctx.n)):
        return f"vertex_set_message accepted id {ctx.too_wide} at width {width}"
    if not _raises(ValueError, lambda: _legacy_vertex_set(bad, width)):
        return f"the legacy writer accepted id {ctx.too_wide} at width {width}"
    return _batch_differential(ctx)


def _batch_differential(ctx: CheckContext) -> "str | None":
    width, rows, batch = ctx.id_width, ctx.batch_rows, ctx.fast_batch
    if list(batch) != [player for player, _ in rows]:
        return f"vertex_set_messages keyed {list(batch)!r}, not the rows' players"
    for player, _ in rows:
        if batch[player].bits != tuple(ctx.legacy_batch[player].bits):
            return f"vertex_set_messages row {player} differs from the legacy writer"
    legacy_reports = {
        player: _legacy_read_vertex_set(message, width)
        for player, message in ctx.legacy_batch.items()
    }
    for label, got in (
        ("read_vertex_sets", read_vertex_sets(batch, width)),
        ("legacy reader", legacy_reports),
    ):
        if got != dict(rows):
            return f"{label} decoded {got!r}, expected {dict(rows)!r}"
    cut_player, cut = ctx.batch_cut
    cut_batch = dict(batch)
    cut_batch[cut_player] = Message.from_bits(batch[cut_player].bits[:cut])
    if not _raises(EOFError, lambda: read_vertex_sets(cut_batch, width)):
        return f"read_vertex_sets read row {cut_player} cut to {cut} bits"
    bad_rows = list(rows)
    player, ids = bad_rows[ctx.batch_bad_player]
    bad_rows[ctx.batch_bad_player] = (player, [*ids, ctx.too_wide])
    if not _raises(ValueError, lambda: vertex_set_messages(bad_rows, ctx.n)):
        return (
            f"vertex_set_messages accepted id {ctx.too_wide} in row {player} "
            f"at width {width}"
        )
    return None


# ======================================================================
# graphs: FrozenGraph (CSR) vs the mutable dict-of-sets builder
# ======================================================================
_GRAPH_LABELS = 12
#: Cases with at most this many edges also compare the enumerators.
_ENUMERATION_EDGE_LIMIT = 12


def _graphs_generate(seed: int) -> Case:
    rng = case_rng(seed)
    atoms = []
    for _ in range(rng.randint(0, 30)):
        if rng.random() < 0.2:
            atoms.append(("v", rng.randrange(_GRAPH_LABELS)))
        else:
            u = rng.randrange(_GRAPH_LABELS)
            v = rng.randrange(_GRAPH_LABELS)
            if u != v:
                atoms.append(("e", u, v))
    return Case(pair="graphs", seed=seed, atoms=tuple(atoms))


def _graph_from_atoms(atoms) -> Graph:
    g = Graph()
    for atom in atoms:
        if atom[0] == "v":
            g.add_vertex(atom[1])
        elif atom[0] == "e":
            g.add_edge(atom[1], atom[2])
    return g


def _graphs_build(case: Case) -> CheckContext:
    ctx = CheckContext(case)
    builder = _graph_from_atoms(case.atoms)
    frozen = builder.freeze()
    ctx.builder = builder
    ctx.frozen = frozen
    ctx.roundtrips.extend(
        [
            (
                "frozen-bytes",
                frozen,
                lambda: FrozenGraph.from_bytes(frozen.to_bytes()),
            ),
            ("frozen-refreeze", frozen, lambda: frozen.to_builder().freeze()),
            ("frozen-pickle", frozen, lambda: pickle.loads(pickle.dumps(frozen))),
        ]
    )
    return ctx


def _graphs_differential(ctx: CheckContext) -> "str | None":
    g, f = ctx.builder, ctx.frozen
    if not (f == g and g == f):
        return "frozen graph and builder compare unequal"
    if f.vertices != g.vertices:
        return f"vertex sets differ: {sorted(f.vertices)} vs {sorted(g.vertices)}"
    if len(f) != len(g) or f.num_vertices() != g.num_vertices():
        return f"vertex counts differ: {len(f)} vs {len(g)}"
    if f.num_edges() != g.num_edges():
        return f"edge counts differ: {f.num_edges()} vs {g.num_edges()}"
    if f.edge_set() != g.edge_set():
        return "edge sets differ"
    if f.max_degree() != g.max_degree():
        return f"max degree differs: {f.max_degree()} vs {g.max_degree()}"
    if list(f.edges()) != sorted(g.edge_set()):
        return "edges() is not the edge set in ascending (u < v) order"
    if f.adjacency() != g.adjacency():
        return "adjacency views differ"
    for v in g.vertices:
        if not (f.has_vertex(v) and v in f):
            return f"frozen graph lost vertex {v}"
        if f.neighbors(v) != g.neighbors(v):
            return f"neighbors of {v} differ"
        if f.degree(v) != g.degree(v):
            return f"degree of {v} differs"
        if f.neighbors_sorted(v) != tuple(sorted(g.neighbors(v))):
            return f"sorted neighbors of {v} differ"
        if sorted(f.incident_edges(v)) != sorted(g.incident_edges(v)):
            return f"incident edges of {v} differ"
    for u, v in g.edges():
        if not (f.has_edge(u, v) and f.has_edge(v, u)):
            return f"frozen graph lost edge ({u}, {v})"
    absent = (_GRAPH_LABELS + 1, _GRAPH_LABELS + 2)
    if f.has_edge(*absent):
        return f"frozen graph invented edge {absent}"
    if f.to_builder() != g:
        return "to_builder() does not invert freeze()"
    for label, direct in (
        ("from_edges", FrozenGraph.from_edges(g.vertices, g.edges())),
        (
            "from_adjacency",
            FrozenGraph.from_adjacency({v: set(g.neighbors(v)) for v in g.vertices}),
        ),
    ):
        if direct.to_bytes() != f.to_bytes() or direct.digest != f.digest:
            return f"{label} disagrees with freeze()"
    labels = range(_GRAPH_LABELS)
    rng = ctx.case.rng("independent")
    for _ in range(4):
        candidate = rng.sample(labels, rng.randint(0, 6))
        if f.is_independent_set(candidate) != g.is_independent_set(candidate):
            return f"is_independent_set({candidate}) differs"
    # Induced subgraph and union must commute with freezing; the kept
    # labels may include ones the graph does not have.
    rng = ctx.case.rng("induced")
    keep = sorted(rng.sample(labels, rng.randint(0, 8)))
    oracle_sub = g.induced_subgraph(keep).freeze()
    if f.induced_subgraph(keep).to_bytes() != oracle_sub.to_bytes():
        return f"induced_subgraph({keep}) differs between implementations"
    left = _graph_from_atoms(ctx.case.atoms[0::2])
    right = _graph_from_atoms(ctx.case.atoms[1::2])
    expected = left.union(right).freeze().to_bytes()
    for label, other in (("frozen", right.freeze()), ("mutable", right)):
        if left.freeze().union(other).to_bytes() != expected:
            return f"union with a {label} right operand differs from the builder's"
    # The CSR form is a function of the graph, not of how it was built:
    # shuffled atoms with flipped edge endpoints freeze identically.
    rng = ctx.case.rng("insertion-order")
    atoms = list(ctx.case.atoms)
    rng.shuffle(atoms)
    flipped = [
        ("e", atom[2], atom[1]) if atom[0] == "e" and rng.random() < 0.5 else atom
        for atom in atoms
    ]
    again = _graph_from_atoms(flipped).freeze()
    if (again.to_bytes(), again.digest, hash(again), list(again.edges())) != (
        f.to_bytes(), f.digest, hash(f), list(f.edges())
    ):
        return "freezing depends on insertion order"
    return _matching_differential(ctx, g, f)


def _scan_is_maximal_matching(graph: Graph, pairs) -> bool:
    """Reference maximality: no label twice (so no self-loop), every pair
    an edge, and every ``edges()`` pair touching a matched vertex."""
    endpoints = [v for pair in pairs for v in pair]
    used = set(endpoints)
    edge_set = graph.edge_set()
    return (
        len(used) == len(endpoints)
        and all((min(pair), max(pair)) in edge_set for pair in pairs)
        and all(u in used or v in used for u, v in graph.edges())
    )


def _unpruned_maximal_matchings(graph: Graph) -> list[set]:
    """Reference enumerator: every branch of the ascending edge order
    (take an edge when both ends are free, then skip it) runs to its
    leaf, and each leaf is checked by an edge scan."""
    edges = sorted(graph.edges())
    out: list[set] = []

    def extend(i: int, chosen: list) -> None:
        if i == len(edges):
            if _scan_is_maximal_matching(graph, chosen):
                out.append(set(chosen))
            return
        u, v = edges[i]
        if all(u not in pair and v not in pair for pair in chosen):
            extend(i + 1, [*chosen, (u, v)])
        extend(i + 1, chosen)

    extend(0, [])
    return out


def _matching_differential(ctx: CheckContext, g: Graph, f: FrozenGraph) -> "str | None":
    """Both forms' matching checks against the edge-scan references."""
    rng = ctx.case.rng("matching")
    edges = sorted(g.edges())
    labels = sorted(g.vertices)
    non_edges = [
        (u, v) for u in labels for v in labels if u < v and not g.has_edge(u, v)
    ]
    order = edges[:]
    rng.shuffle(order)
    maximal = sorted(greedy_maximal_matching(None, order))
    candidates = [maximal, maximal[1:], [(v, u) for u, v in maximal]]
    candidates += [rng.sample(edges, rng.randint(0, len(edges))) for _ in range(3)]
    if non_edges:
        candidates.append([rng.choice(non_edges)])
    if labels:
        label = rng.choice(labels)
        candidates.append([(label, _GRAPH_LABELS + 3)])
        candidates.append([(label, label)])
    for pairs in candidates:
        expected = _scan_is_maximal_matching(g, pairs)
        for form, graph in (("builder", g), ("frozen", f)):
            if is_maximal_matching(graph, pairs) != expected:
                return f"{form} is_maximal_matching({pairs}) != {expected}"
    if len(edges) <= _ENUMERATION_EDGE_LIMIT:
        expected = _unpruned_maximal_matchings(g)
        for form, graph in (("builder", g), ("frozen", f)):
            if all_maximal_matchings(graph) != expected:
                return f"{form} all_maximal_matchings differs from the unpruned search"
    return None


# ======================================================================
# infotheory: columnar TableDistribution vs dict JointDistribution
# ======================================================================
_VALUE_DOMAIN = 4
_PROB_TOLERANCE = 1e-9


def _differ(a, b: float, tol: float = _PROB_TOLERANCE) -> bool:
    """Whether a table value (float or Fraction) and a dict value differ."""
    return not math.isclose(float(a), b, abs_tol=tol)


def _infotheory_generate(seed: int) -> Case:
    """Rows of k small values, each with a weight: an int in float mode;
    in exact mode a ``Fraction`` with its own denominator, kept in the
    atom as its ``"n/d"`` string (cases round-trip through JSON), so the
    table's common-denominator path runs."""
    rng = case_rng(seed)
    k = rng.randint(1, 4)
    exact = rng.random() < 0.25
    atoms = []
    for _ in range(rng.randint(1, 12)):
        values = [rng.randrange(_VALUE_DOMAIN) for _ in range(k)]
        weight = rng.randint(1, 8)
        if exact:
            weight = str(Fraction(weight, rng.randint(1, 6)))
        atoms.append(("row", weight, *values))
    return Case(
        pair="infotheory",
        seed=seed,
        params={"k": k, "exact": exact},
        atoms=tuple(atoms),
    )


def _infotheory_build(case: Case) -> CheckContext:
    ctx = CheckContext(case)
    k = case.params["k"]
    exact = bool(case.params.get("exact"))
    variables = tuple(f"x{i}" for i in range(k))
    rows, weights = [], []
    for atom in case.atoms:
        if atom[0] != "row":
            continue
        rows.append(tuple(atom[2 : 2 + k]))
        weights.append(Fraction(atom[1]) if exact else atom[1])
    ctx.variables = variables
    if not rows:
        ctx.table = None
        ctx.ref = None
        return ctx
    table = TableDistribution.from_rows(
        variables, rows, weights=weights, normalize=True, exact=exact
    )
    pmf: dict = {}
    for row, weight in zip(rows, weights):
        pmf[row] = pmf.get(row, 0.0) + float(weight)
    ctx.table = table
    ctx.ref = JointDistribution(variables, pmf, normalize=True)
    ctx.roundtrips.extend(
        [
            (
                "table-bytes",
                table,
                lambda: TableDistribution.from_bytes(table.to_bytes()),
            ),
            ("table-pickle", table, lambda: pickle.loads(pickle.dumps(table))),
        ]
    )
    return ctx


def _infotheory_differential(ctx: CheckContext) -> "str | None":
    table, ref = ctx.table, ctx.ref
    if table is None:
        return None
    if set(table.pmf) != set(ref.pmf) or table.support() != ref.support():
        return "supports differ between table and dict kernels"
    for outcome, prob in ref.items():
        got = float(table.get(outcome))
        if _differ(got, prob):
            return f"P[{outcome!r}] differs: table {got} vs dict {prob}"
    variables = list(table.variables)
    first = variables[0]
    rng = ctx.case.rng("given")
    for mask in range(1, 1 << len(variables)):
        subset = [v for i, v in enumerate(variables) if mask >> i & 1]
        if table.support(subset) != ref.support(subset):
            return f"support({subset}) differs between table and dict kernels"
        # Marginals keep the order the variables were asked in.
        backwards = subset[::-1]
        m_table, m_ref = table.marginal(backwards), ref.marginal(backwards)
        if tuple(m_table.variables) != tuple(m_ref.variables):
            return f"marginal({backwards}) variable orders differ"
        for outcome, prob in m_ref.items():
            if _differ(m_table.get(outcome), prob):
                return f"marginal({backwards}) differs at {outcome!r}"
        given = [v for v in variables if rng.random() < 0.5]
        for cond in ([], [first], given):
            a, b = table.entropy(subset, given=cond), ref.entropy(subset, given=cond)
            if _differ(a, b):
                return f"H({subset}|{cond}) differs: table {a} vs dict {b}"
    for value in sorted(o[0] for o in ref.support([first])):
        a, b = table.probability(**{first: value}), ref.probability(**{first: value})
        if _differ(a, b):
            return f"P[{first}={value!r}] differs: table {a} vs dict {b}"
    if len(variables) < 2:
        return None
    # I(x0; rest) and I(x0; x1 | x2..), with the independence test.
    for xs, ys, zs in (
        ([first], variables[1:], []),
        ([first], variables[1:2], variables[2:]),
    ):
        a = table.mutual_information(xs, ys, given=zs)
        b = ref.mutual_information(xs, ys, given=zs)
        if _differ(a, b):
            return f"I({xs};{ys}|{zs}) differs: table {a} vs dict {b}"
        if table.is_independent(xs, ys, given=zs) != ref.is_independent(
            xs, ys, given=zs
        ):
            return f"is_independent({xs};{ys}|{zs}) differs"
    last = variables[-1]
    for outcome in sorted(ref.support([first, last])):
        fixed = dict(zip((first, last), outcome))
        if _differ(table.probability(**fixed), ref.probability(**fixed)):
            return f"P[{fixed}] differs between table and dict kernels"
    # Conditioning on every value of every variable.
    for name in variables:
        for value in sorted(o[0] for o in ref.support([name])):
            cond_a = table.condition(**{name: value})
            cond_b = ref.condition(**{name: value})
            if tuple(cond_a.variables) != tuple(cond_b.variables):
                return f"conditional variables differ given {name}={value!r}"
            if cond_a.support() != cond_b.support():
                return f"conditional supports differ given {name}={value!r}"
            for outcome, prob in cond_b.items():
                got = float(cond_a.get(outcome))
                if _differ(got, prob, tol=1e-7):
                    return (
                        f"P[{outcome!r} | {name}={value!r}] differs: "
                        f"table {got} vs dict {prob}"
                    )
    return None


# ======================================================================
# sketches: batched whole-graph construction vs the per-view oracle
# ======================================================================
def _sketches_generate(seed: int) -> Case:
    rng = case_rng(seed)
    labels = rng.randint(5, 12)
    spec = rng.choice(PROTOCOL_SPECS)
    # Labels skip values: the vertices are a subset of range(labels).
    vertices = [v for v in range(labels) if rng.random() < 0.75]
    atoms: list[tuple] = [("v", v) for v in vertices]
    if len(vertices) >= 2:
        for _ in range(rng.randint(0, 2 * len(vertices))):
            atoms.append(("e", *rng.sample(vertices, 2)))
    return Case(
        pair="sketches",
        seed=seed,
        params={"spec": spec},
        atoms=tuple(atoms),
    )


def _sketches_build(case: Case) -> CheckContext:
    ctx = CheckContext(case)
    frozen = _graph_from_atoms(case.atoms).freeze()
    n = max(frozen.vertices, default=0) + 1
    coins = PublicCoins(seed=case.seed)
    protocol = make_protocol(case.params["spec"])
    batch = run_protocol(frozen, protocol, coins, n=n)
    perview = run_protocol(
        frozen, protocol, coins, n=n, views=views_of(frozen, n=n)
    )
    ctx.frozen = frozen
    ctx.n = n
    ctx.coins = coins
    ctx.edges = sorted(frozen.edges())
    ctx.batch_run = batch
    ctx.perview_run = perview
    ctx.messages.extend(batch.transcript.sketches.values())
    ctx.rerun_baseline = batch.transcript.sketches
    ctx.rerun = lambda: run_protocol(frozen, protocol, coins, n=n).transcript.sketches
    family = SketchFamily.incidence(
        L0Config.for_universe(n * n), coins, ("conformance/0",), magnitude=n
    )
    ctx.family = family
    ctx.states = family.build_states(frozen, n)
    if not ctx.states:
        return ctx
    some_state = ctx.states[min(ctx.states)]
    ctx.roundtrips.append(
        (
            "state-codec",
            (
                list(some_state.totals),
                list(some_state.index_sums),
                list(some_state.fingerprints),
            ),
            lambda: (
                lambda s: (
                    list(s.totals),
                    list(s.index_sums),
                    list(s.fingerprints),
                )
            )(
                L0FamilyState.decode(
                    some_state.to_message().reader(), family.params
                )
            ),
        )
    )
    return ctx


def _sketches_differential(ctx: CheckContext) -> "str | None":
    batch, perview = ctx.batch_run, ctx.perview_run
    b_sk, p_sk = batch.transcript.sketches, perview.transcript.sketches
    if set(b_sk) != set(p_sk):
        return (
            f"player sets differ: batch {sorted(b_sk)} vs per-view "
            f"{sorted(p_sk)}"
        )
    for v in sorted(b_sk):
        if b_sk[v].num_bits != p_sk[v].num_bits:
            return (
                f"player {v}: charged bits differ (batch "
                f"{b_sk[v].num_bits} vs per-view {p_sk[v].num_bits})"
            )
        if b_sk[v].payload != p_sk[v].payload:
            return f"player {v}: message payloads differ"
    if batch.output != perview.output:
        return (
            f"referee outputs differ: batch {batch.output!r} vs per-view "
            f"{perview.output!r}"
        )
    return None


# ======================================================================
# engine: process-pool backend vs the serial backend
# ======================================================================
_pool_engine_singleton: "ExecutionEngine | None" = None


def _pool_engine() -> ExecutionEngine:
    """One shared two-worker engine (pool spawn is amortized across cases)."""
    global _pool_engine_singleton
    if _pool_engine_singleton is None:
        _pool_engine_singleton = ExecutionEngine(workers=2)
    return _pool_engine_singleton


def _engine_case_graph(n: int, p_percent: int, seed: int, trial: int):
    """Module-level (picklable) per-trial graph source for the engine pair."""
    rng = random.Random(derive_seed(seed, "engine-case-graph", trial))
    return erdos_renyi(n, p_percent / 100.0, rng).freeze()


def _engine_generate(seed: int) -> Case:
    rng = case_rng(seed)
    trials = rng.randint(2, 5)
    return Case(
        pair="engine",
        seed=seed,
        params={
            "n": rng.randint(5, 9),
            "p": rng.randint(20, 60),
            "spec": rng.choice(("sampled:2", "mis-sampled:2", "low-degree:3")),
        },
        atoms=tuple(("t", i) for i in range(trials)),
    )


def _engine_build(case: Case) -> CheckContext:
    ctx = CheckContext(case)
    trials = sum(1 for atom in case.atoms if atom[0] == "t")
    ctx.trials = trials
    ctx.base_seed = case.seed
    if trials == 0:
        ctx.serial_runs = None
        ctx.pool_runs = None
        return ctx
    make_graph = partial(
        _engine_case_graph, case.params["n"], case.params["p"], case.seed
    )
    protocol = make_protocol(case.params["spec"])
    run = partial(
        run_protocol_batch, make_graph, protocol, trials, case.seed
    )
    ctx.serial_runs = run(engine=ExecutionEngine())
    ctx.pool_runs = run(engine=_pool_engine())
    ctx.rerun_baseline = ctx.serial_runs
    ctx.rerun = lambda: run(engine=ExecutionEngine())
    for trial_run in ctx.serial_runs:
        ctx.messages.extend(trial_run.transcript.sketches.values())
    return ctx


def _engine_differential(ctx: CheckContext) -> "str | None":
    serial, pool = ctx.serial_runs, ctx.pool_runs
    if serial is None:
        return None
    if len(serial) != len(pool):
        return f"run counts differ: serial {len(serial)} vs pool {len(pool)}"
    for trial, (s, p) in enumerate(zip(serial, pool)):
        if s.transcript.sketches != p.transcript.sketches:
            return f"trial {trial}: transcripts differ between backends"
        if s.output != p.output:
            return f"trial {trial}: referee outputs differ between backends"
    return None


# ======================================================================
# lemmas: exact Lemma 3.5 per copy vs the full joint distribution
# ======================================================================
#: Every (r, t) per k ≤ 3 with t ≥ 2 and k·t·r ≤ 8 indicator bits.
_LEMMA_SHAPES = {
    k: [(r, t) for t in range(2, 8 // k + 1) for r in range(1, 8 // (k * t) + 1)]
    for k in (1, 2, 3)
}


def _lemmas_generate(seed: int) -> Case:
    rng = case_rng(seed)
    k = rng.randint(1, 3)
    # A case enumerates the full joint's t·2^(k·t·r) outcomes, so a
    # shape is drawn with the inverse weight: each shape of this k
    # costs the same expected time, and the 8-bit ones still come up.
    shapes = _LEMMA_SHAPES[k]
    weights = [1 / (t * 2 ** (k * t * r)) for r, t in shapes]
    r, t = rng.choices(shapes, weights)[0]
    n = micro_distribution(r=r, t=t, k=k).n
    # σ is the identity after these swaps, in order: any subsequence of
    # them is still a permutation, so the shrinker may drop any.
    swaps = [("swap", a, rng.randrange(a + 1)) for a in range(n - 1, 0, -1)]
    return Case(
        pair="lemmas",
        seed=seed,
        params={"r": r, "t": t, "k": k, "spec": rng.choice(SUITE_SPECS)},
        atoms=tuple(swaps),
    )


def _lemmas_build(case: Case) -> CheckContext:
    ctx = CheckContext(case)
    params = case.params
    hard = micro_distribution(r=params["r"], t=params["t"], k=params["k"])
    sigma = list(range(hard.n))
    for atom in case.atoms:
        if atom[0] == "swap":
            _, a, b = atom
            sigma[a], sigma[b] = sigma[b], sigma[a]
    protocol = make_protocol(params["spec"])
    coins = PublicCoins(seed=case.seed)
    ctx.hard = hard
    ctx.full = analyze_protocol(hard, protocol, coins, tuple(sigma), exact=True)
    ctx.copies = analyze_copies(hard, protocol, coins, tuple(sigma))
    return ctx


def _lemmas_differential(ctx: CheckContext) -> "str | None":
    hard, full, copies = ctx.hard, ctx.full, ctx.copies
    for i in range(hard.k):
        names = ["J", *[f"M_{i}_{j}" for j in range(hard.t)], f"PiU_{i}"]
        if copies.tables[i] != full.dist.marginal(names):
            return f"copy {i}: table differs from the full joint's marginal"
        info = copies.unique_information(i), full.unique_information(i)
        entropy = copies.unique_entropy(i), full.unique_entropy(i)
        for label, (ours, theirs) in (
            ("I(M_i;Π(U_i)|J)", info),
            ("H(Π(U_i))", entropy),
        ):
            if ours != theirs:
                return f"copy {i}: {label} per copy {ours!r} vs full {theirs!r}"
    return None


# ======================================================================
# Registry
# ======================================================================
ORACLE_PAIRS: tuple[OraclePair, ...] = (
    OraclePair(
        name="codec",
        layer="codec",
        fast="repro.model.messages (packed bytes)",
        reference="repro.model.reference (per-bit lists)",
        generate=_codec_generate,
        build=_codec_build,
        differential=_codec_differential,
        weight=5,
    ),
    OraclePair(
        name="graphs",
        layer="graphs",
        fast="repro.graphs.frozen.FrozenGraph (CSR)",
        reference="repro.graphs.graph.Graph (dict-of-sets)",
        generate=_graphs_generate,
        build=_graphs_build,
        differential=_graphs_differential,
        weight=5,
    ),
    OraclePair(
        name="infotheory",
        layer="infotheory",
        fast="repro.infotheory.table.TableDistribution (columnar)",
        reference="repro.infotheory.reference.JointDistribution (dict)",
        generate=_infotheory_generate,
        build=_infotheory_build,
        differential=_infotheory_differential,
        weight=4,
    ),
    OraclePair(
        name="sketches",
        layer="sketches",
        fast="BatchSketchProtocol.sketch_batch (one CSR pass)",
        reference="SketchProtocol.sketch per view",
        generate=_sketches_generate,
        build=_sketches_build,
        differential=_sketches_differential,
        weight=4,
    ),
    OraclePair(
        name="engine",
        layer="engine",
        fast="repro.engine.backends.ProcessPoolBackend",
        reference="repro.engine.backends.SerialBackend",
        generate=_engine_generate,
        build=_engine_build,
        differential=_engine_differential,
        weight=2,
    ),
    OraclePair(
        name="lemmas",
        layer="lemmas",
        fast="repro.lowerbound.transcripts.analyze_copies (one copy's rows)",
        reference="repro.lowerbound.transcripts.analyze_protocol (full joint)",
        generate=_lemmas_generate,
        build=_lemmas_build,
        differential=_lemmas_differential,
        weight=1,
    ),
)


def all_pairs() -> tuple[OraclePair, ...]:
    """Every registered oracle pair, in registry order."""
    return ORACLE_PAIRS


def get_pair(name: str) -> OraclePair:
    """The registered pair called ``name`` (KeyError with the roster)."""
    for pair in ORACLE_PAIRS:
        if pair.name == name:
            return pair
    raise KeyError(
        f"unknown oracle pair {name!r}; registered: "
        f"{[p.name for p in ORACLE_PAIRS]}"
    )


def pairs_for_layers(layers) -> tuple[OraclePair, ...]:
    """The registered pairs whose layer is in ``layers`` (all when None)."""
    if not layers:
        return ORACLE_PAIRS
    wanted = set(layers)
    unknown = wanted - {p.layer for p in ORACLE_PAIRS}
    if unknown:
        raise KeyError(
            f"unknown layer(s) {sorted(unknown)}; registered: "
            f"{sorted({p.layer for p in ORACLE_PAIRS})}"
        )
    return tuple(p for p in ORACLE_PAIRS if p.layer in wanted)
