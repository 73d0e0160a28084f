"""Metamorphic laws: invariants every oracle pair's artifacts must obey.

The differential checks in :mod:`repro.conformance.oracles` compare a
fast implementation against its reference oracle on the *same* input.
Laws are the complementary axis: properties that must hold of the fast
path *by itself* (and of the oracle, where cheap) regardless of input —
serialize/deserialize round-trips, charged-bits == packed-length,
relabeling invariance, marginalize∘condition identities, sketch
linearity and merge commutativity, determinism of repeated runs.

Each :class:`Law` declares which layers it applies to and a single
``apply(ctx) -> str | None`` hook: ``None`` means the invariant held (or
was vacuous for this case), a string is the failure detail.  The fuzz
driver runs every law whose layer set contains the pair's layer, so a
new law is automatically enforced across all existing oracle pairs of
those layers, and a new pair inherits every existing law of its layer.

Laws read their inputs from the :class:`CheckContext` the pair's builder
populated.  The context contract (which attributes a layer guarantees)
is documented on :class:`CheckContext`; laws must treat missing optional
artifacts as vacuous, never as failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from ..model.messages import Message, assert_packed_accounting
from .cases import Case

#: Shared float tolerance for entropy/probability identities.  Matches
#: the infotheory package's NORMALIZATION_TOLERANCE scale.
LAW_TOLERANCE = 1e-9


class CheckContext:
    """Artifacts one conformance check constructed, shared with the laws.

    Universal attributes (every pair's builder provides them):

    * ``case`` — the :class:`~repro.conformance.cases.Case` under test;
    * ``roundtrips`` — list of ``(label, original, rebuild)`` triples
      where ``rebuild()`` re-derives the object through a serialize/
      deserialize (or equivalent) cycle; checked by ``roundtrip``;
    * ``messages`` — every :class:`~repro.model.messages.Message` the
      check produced; checked by ``charged-bits``.

    Layer-specific attributes (set via plain attribute assignment):

    * codec: ``fast_message``, ``legacy_message``, ``ops``,
      ``writer_bits``;
    * graphs: ``builder`` (mutable Graph), ``frozen`` (FrozenGraph);
    * infotheory: ``table`` (TableDistribution), ``ref``
      (JointDistribution), ``variables``;
    * sketches: ``frozen``, ``n``, ``coins``, ``family``, ``states``,
      ``edges``, ``rerun`` (thunk rebuilding the batch transcript);
    * engine: ``base_seed``, ``trials``, ``rerun``.
    """

    def __init__(self, case: Case) -> None:
        self.case = case
        self.roundtrips: list[tuple[str, Any, Callable[[], Any]]] = []
        self.messages: list[Message] = []

    def get(self, name: str, default: Any = None) -> Any:
        """The layer attribute ``name``, or ``default`` if the pair's
        builder did not provide it."""
        return getattr(self, name, default)


@dataclass(frozen=True)
class Law:
    """One named metamorphic invariant, applied across layers."""

    name: str
    layers: frozenset[str]
    description: str
    apply: Callable[[CheckContext], str | None]


def _states_cells(state) -> tuple:
    """The observable content of an L0FamilyState, for equality checks."""
    return (
        list(state.totals),
        list(state.index_sums),
        list(state.fingerprints),
    )


# ----------------------------------------------------------------------
# Generic laws
# ----------------------------------------------------------------------
def _law_roundtrip(ctx: CheckContext) -> str | None:
    for label, original, rebuild in ctx.roundtrips:
        try:
            rebuilt = rebuild()
        except Exception as exc:  # noqa: BLE001 — any crash is a finding
            return f"{label}: rebuild raised {type(exc).__name__}: {exc}"
        if rebuilt != original:
            return (
                f"{label}: round-trip changed the value "
                f"({original!r} -> {rebuilt!r})"
            )
    return None


def _law_charged_bits(ctx: CheckContext) -> str | None:
    try:
        assert_packed_accounting(ctx.messages)
    except AssertionError as exc:
        return str(exc)
    for m in ctx.messages:
        if len(m.payload) != (m.num_bits + 7) // 8:
            return (
                f"payload of {len(m.payload)} bytes vs charged "
                f"{m.num_bits} bits"
            )
    return None


# ----------------------------------------------------------------------
# Graph / infotheory relabeling invariance
# ----------------------------------------------------------------------
def _law_relabel(ctx: CheckContext) -> str | None:
    frozen = ctx.get("frozen")
    if frozen is not None and ctx.get("builder") is not None:
        labels = sorted(frozen.vertices)
        if not labels:
            return None
        shuffled = list(labels)
        rng = ctx.case.rng("relabel")
        rng.shuffle(shuffled)
        # A permutation of the labels, or a map onto fresh ones.
        offset = rng.choice((0, 100))
        mapping = {v: w + offset for v, w in zip(labels, shuffled)}
        fast = frozen.relabel(mapping)
        oracle = ctx.builder.relabel(mapping).freeze()
        if fast.to_bytes() != oracle.to_bytes():
            return "frozen.relabel disagrees with builder.relabel∘freeze"
        if sorted(fast.degree(v) for v in fast.vertices) != sorted(
            frozen.degree(v) for v in frozen.vertices
        ):
            return "degree histogram not invariant under relabeling"
        if fast.num_edges() != frozen.num_edges():
            return "edge count not invariant under relabeling"
        return None
    table = ctx.get("table")
    if table is not None:
        variables = table.variables
        if not variables or table.num_rows == 0:
            return None
        # Injectively remap every value of the first variable; all
        # information quantities are invariant under value relabeling.
        name = variables[0]
        remapped = table.push_forward(
            variables,
            lambda *row: (("relabeled", row[0]),) + tuple(row[1:]),
        )
        for subset in _variable_subsets(variables):
            before = table.entropy(subset)
            after = remapped.entropy(subset)
            if not math.isclose(before, after, abs_tol=LAW_TOLERANCE):
                return (
                    f"H({subset}) changed under value relabeling of "
                    f"{name!r}: {before} -> {after}"
                )
        return None
    return None


def _variable_subsets(variables: tuple[str, ...]) -> list[list[str]]:
    """All nonempty variable subsets (the domains are tiny: <= 4 vars)."""
    out: list[list[str]] = []
    n = len(variables)
    for mask in range(1, 1 << n):
        out.append([variables[i] for i in range(n) if mask >> i & 1])
    return out


# ----------------------------------------------------------------------
# Infotheory identities
# ----------------------------------------------------------------------
def _law_marginal_condition(ctx: CheckContext) -> str | None:
    for dist_name in ("table", "ref"):
        dist = ctx.get(dist_name)
        if dist is None or len(dist.variables) < 2:
            continue
        first = dist.variables[0]
        rest = list(dist.variables[1:])
        target = dist.marginal(rest)
        values = sorted(
            (o[0] for o in dist.marginal([first]).support()),
            key=repr,
        )
        for outcome in target.support():
            mixture = 0.0
            for value in values:
                weight = float(dist.probability(**{first: value}))
                conditional = dist.condition(**{first: value})
                mixture += weight * float(conditional.get(outcome, 0.0))
            direct = float(target.get(outcome))
            if not math.isclose(direct, mixture, abs_tol=1e-7):
                return (
                    f"{dist_name}: total probability violated at "
                    f"{outcome!r}: marginal {direct} vs mixture {mixture}"
                )
    return None


def _law_chain_rule(ctx: CheckContext) -> str | None:
    for dist_name in ("table", "ref"):
        dist = ctx.get(dist_name)
        if dist is None or len(dist.variables) < 2:
            continue
        first = [dist.variables[0]]
        rest = list(dist.variables[1:])
        joint = dist.entropy(list(dist.variables))
        chained = dist.entropy(first) + dist.entropy(rest, given=first)
        if not math.isclose(joint, chained, abs_tol=1e-7):
            return (
                f"{dist_name}: chain rule violated: H(joint)={joint} vs "
                f"H({first[0]}) + H(rest|{first[0]}) = {chained}"
            )
    return None


# ----------------------------------------------------------------------
# Sketch linearity
# ----------------------------------------------------------------------
def _law_sketch_linearity(ctx: CheckContext) -> str | None:
    family = ctx.get("family")
    states = ctx.get("states")
    frozen = ctx.get("frozen")
    n = ctx.get("n")
    if family is None or states is None or frozen is None:
        return None
    edges = sorted(frozen.edges())
    if len(edges) < 2:
        return None
    from ..graphs import Graph

    def freeze_edges(subset):
        g = Graph(vertices=range(n))
        for u, v in subset:
            g.add_edge(u, v)
        return g.freeze()

    half_a = freeze_edges(edges[0::2])
    half_b = freeze_edges(edges[1::2])
    states_a = family.build_states(half_a, n)
    states_b = family.build_states(half_b, n)
    for v in range(n):
        merged = states_a[v].merge(states_b[v])
        if _states_cells(merged) != _states_cells(states[v]):
            return (
                f"player {v}: merge of edge-disjoint halves differs from "
                "the sketch of the union (linearity broken)"
            )
    return None


def _law_merge_commutativity(ctx: CheckContext) -> str | None:
    family = ctx.get("family")
    states = ctx.get("states")
    if family is None or not states:
        return None
    keys = sorted(states)
    rng = ctx.case.rng("merge-commutativity")
    a = states[rng.choice(keys)]
    b = states[rng.choice(keys)]
    if _states_cells(a.merge(b)) != _states_cells(b.merge(a)):
        return "merge(a, b) != merge(b, a)"
    empty = family.empty_state()
    for s in (a, b):
        if _states_cells(s.merge(empty)) != _states_cells(s):
            return "merging the zero state changed a sketch"
    return None


def _law_sketch_cancellation(ctx: CheckContext) -> str | None:
    family = ctx.get("family")
    states = ctx.get("states")
    frozen = ctx.get("frozen")
    n = ctx.get("n")
    if family is None or not states or frozen is None:
        return None
    from ..model import views_of
    from ..sketches.incidence import incidence_entries

    views = views_of(frozen, n=n)
    rng = ctx.case.rng("cancellation")
    vertex = rng.choice(sorted(states))
    negated = family.empty_state()
    for coord, value in incidence_entries(views[vertex]):
        negated.update(coord, -value)
    if not states[vertex].merge(negated).is_zero():
        return (
            f"player {vertex}: sketch + its negation is not the zero "
            "sketch (cancellation broken)"
        )
    return None


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def _law_determinism(ctx: CheckContext) -> str | None:
    rerun = ctx.get("rerun")
    first = ctx.get("rerun_baseline")
    if rerun is None or first is None:
        return None
    second = rerun()
    if second != first:
        return "repeating the identical run produced different results"
    return None


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
LAWS: tuple[Law, ...] = (
    Law(
        name="roundtrip",
        layers=frozenset({"codec", "graphs", "infotheory", "sketches"}),
        description="serialize/deserialize cycles reproduce the value",
        apply=_law_roundtrip,
    ),
    Law(
        name="charged-bits",
        layers=frozenset({"codec", "sketches"}),
        description="packed payload length equals the charged num_bits",
        apply=_law_charged_bits,
    ),
    Law(
        name="relabel-invariance",
        layers=frozenset({"graphs", "infotheory"}),
        description="relabeling vertices/values preserves every invariant",
        apply=_law_relabel,
    ),
    Law(
        name="marginal-condition",
        layers=frozenset({"infotheory"}),
        description="P(rest) equals the P(x)-weighted mixture of P(rest|x)",
        apply=_law_marginal_condition,
    ),
    Law(
        name="chain-rule",
        layers=frozenset({"infotheory"}),
        description="H(X,Y) = H(X) + H(Y|X)",
        apply=_law_chain_rule,
    ),
    Law(
        name="sketch-linearity",
        layers=frozenset({"sketches"}),
        description="merge of edge-disjoint halves equals sketch of union",
        apply=_law_sketch_linearity,
    ),
    Law(
        name="merge-commutativity",
        layers=frozenset({"sketches"}),
        description="state merge is commutative with the zero state as identity",
        apply=_law_merge_commutativity,
    ),
    Law(
        name="cancellation",
        layers=frozenset({"sketches"}),
        description="a sketch merged with its negation is the zero sketch",
        apply=_law_sketch_cancellation,
    ),
    Law(
        name="determinism",
        layers=frozenset({"sketches", "engine"}),
        description="repeating an identical run reproduces identical results",
        apply=_law_determinism,
    ),
)


def laws_for(layer: str) -> tuple[Law, ...]:
    """Every registered law that applies to ``layer``."""
    return tuple(law for law in LAWS if layer in law.layers)


def all_layers() -> tuple[str, ...]:
    """Every layer named by at least one law."""
    seen: set[str] = set()
    for law in LAWS:
        seen.update(law.layers)
    return tuple(sorted(seen))
