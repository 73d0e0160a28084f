"""The oracle registry: every fast↔reference pair, declared in one place.

PRs 3–7 each rebuilt a hot layer on a fast representation and kept the
original implementation as a slow oracle.  This module is the single
inventory of those pairs:

* ``codec``      — packed ``Message``/``BitWriter``/``BitReader`` vs the
                   per-bit-list codec in ``repro.model.reference``;
* ``graphs``     — CSR ``FrozenGraph`` vs the mutable dict-of-sets
                   ``Graph`` builder;
* ``infotheory`` — columnar ``TableDistribution`` vs the dict-of-tuples
                   ``JointDistribution`` oracle;
* ``sketches``   — ``BatchSketchProtocol.sketch_batch`` vs per-view
                   ``sketch`` calls, player by player;
* ``engine``     — the process-pool backend vs the serial backend on an
                   identical trial plan.

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
from functools import partial
from typing import Callable

from ..engine import ExecutionEngine, derive_seed
from ..graphs import FrozenGraph, Graph
from ..graphs.builders import erdos_renyi
from ..infotheory import JointDistribution, TableDistribution
from ..model import (
    BitWriter,
    Message,
    PublicCoins,
    run_protocol,
    run_protocol_batch,
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
    return None


# ======================================================================
# graphs: FrozenGraph (CSR) vs the mutable dict-of-sets builder
# ======================================================================
_GRAPH_LABELS = 12


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
    rng = case_rng(seed)
    k = rng.randint(1, 4)
    exact = rng.random() < 0.25
    atoms = []
    for _ in range(rng.randint(1, 12)):
        values = [rng.randrange(_VALUE_DOMAIN) for _ in range(k)]
        atoms.append(("row", rng.randint(1, 8), *values))
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
        weights.append(atom[1])
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
    n = rng.randint(5, 12)
    spec = rng.choice(PROTOCOL_SPECS)
    atoms = []
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            atoms.append(("e", u, v))
    return Case(
        pair="sketches",
        seed=seed,
        params={"n": n, "spec": spec},
        atoms=tuple(atoms),
    )


def _sketches_build(case: Case) -> CheckContext:
    ctx = CheckContext(case)
    n = case.params["n"]
    g = Graph(vertices=range(n))
    for atom in case.atoms:
        if atom[0] == "e":
            g.add_edge(atom[1], atom[2])
    frozen = g.freeze()
    coins = PublicCoins(seed=case.seed)
    protocol = make_protocol(case.params["spec"])
    batch = run_protocol(frozen, protocol, coins)
    perview = run_protocol(
        frozen, protocol, coins, views=views_of(frozen, n=n)
    )
    ctx.frozen = frozen
    ctx.n = n
    ctx.coins = coins
    ctx.edges = sorted(frozen.edges())
    ctx.batch_run = batch
    ctx.perview_run = perview
    ctx.messages.extend(batch.transcript.sketches.values())
    ctx.rerun_baseline = batch.transcript.sketches
    ctx.rerun = lambda: run_protocol(frozen, protocol, coins).transcript.sketches
    family = SketchFamily.incidence(
        L0Config.for_universe(n * n), coins, ("conformance/0",), magnitude=n
    )
    ctx.family = family
    ctx.states = family.build_states(frozen, n)
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
