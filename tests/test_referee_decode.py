"""Referee decode contract of every protocol that rebuilds the reported graph.

One-round decoders build no graph.  They read each player's message
into the ids it reports and turn the reports into one ascending edge
list with ``repro.protocols.referee.reported_edges``.  On random graphs
(the sketch-core suite's strategy) the tests watch that call and pin
three rules:

* a full-budget decode of the batch messages reports exactly G's edge
  set on the players;
* reported ids that are not players are dropped;
* a player reporting itself raises ``ValueError("self-loop ...")``, as
  ``FrozenGraph.from_edges`` does.

They also require that no ``FrozenGraph`` is built and that the output
is the greedy scan of the graph on the players.  The adaptive referees
still freeze the reported graph, so their tests watch
``FrozenGraph.from_edges`` itself.
"""

from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.graphs import (
    FrozenGraph,
    greedy_maximal_matching,
    greedy_mis,
    is_maximal_independent_set,
)
from repro.model import (
    BitWriter,
    PublicCoins,
    adjacency_row_message,
    encode_vertex_set,
    id_width_for,
    run_adaptive_protocol,
    vertex_set_message,
    views_of,
)
from repro.protocols import (
    DegreeAdaptiveMatching,
    FilteringMatching,
    FullNeighborhoodMatching,
    FullNeighborhoodMIS,
    HybridMatching,
    LinearL0Matching,
    LowDegreeOnlyMatching,
    PatchedLocalMinMIS,
    PriorityEdgeMatching,
    SampleAndPruneMIS,
    SampledEdgesMatching,
    SampledEdgesMIS,
    edge_priority,
    priority,
    referee,
    two_round,
)

from .test_sketch_core import build_frozen, graph_spec, labels, seeds

#: Player ids are labels 0..9, so n = 10 addresses every one of them
#: and any budget >= 9 is a full neighborhood.
N = 10
silent_players = st.sets(labels, max_size=5)

#: Every module that binds ``reported_edges``: the spy replaces each.
#: The one-round matching referees call it through
#: ``referee.reported_greedy_matching``, which the spy on ``referee``
#: sees.
REFEREE_MODULES = (referee, priority, two_round)


@contextmanager
def rebuilt_graphs():
    """Record every graph built through ``FrozenGraph.from_edges``."""
    graphs: list[FrozenGraph] = []
    build = FrozenGraph.from_edges

    def spy(vertices=(), edges=()):
        graph = build(vertices, edges)
        graphs.append(graph)
        return graph

    with mock.patch.object(FrozenGraph, "from_edges", spy):
        yield graphs


@contextmanager
def built_graphs():
    """Record every ``FrozenGraph`` built, by any constructor."""
    graphs: list[FrozenGraph] = []
    adopt = FrozenGraph._adopt

    def spy(graph, *args):
        adopt(graph, *args)
        graphs.append(graph)

    with mock.patch.object(FrozenGraph, "_adopt", spy):
        yield graphs


@contextmanager
def reported_edge_lists():
    """Record every ``(players, edges)`` the reported-edge helper returns."""
    calls: list[tuple[frozenset[int], list]] = []
    real = referee.reported_edges

    def spy(reports):
        edges = real(reports)
        calls.append((frozenset(reports), edges))
        return edges

    with ExitStack() as stack:
        for module in REFEREE_MODULES:
            stack.enter_context(mock.patch.object(module, "reported_edges", spy))
        yield calls


def row_report(v):
    return adjacency_row_message((v,), N)


def ids_report(v):
    return vertex_set_message((v,), N)


def flagged_ids_report(v):
    writer = BitWriter()
    writer.write_bit(0)
    encode_vertex_set(writer, [v], id_width_for(N))
    return writer.to_message()


def is_greedy_matching(graph, output):
    return output == greedy_maximal_matching(graph)


def is_greedy_mis(graph, output):
    return output == greedy_mis(graph)


#: Every one-round decoder that rebuilds the reported graph, at full
#: budget: the message by which a player reports only itself, and what
#: its output must be on the graph induced on the players.  The patched
#: referee starts from the local minima, so its output is some MIS.
GRAPH_DECODERS = [
    (FullNeighborhoodMatching(), row_report, is_greedy_matching),
    (FullNeighborhoodMIS(), row_report, is_greedy_mis),
    (SampledEdgesMatching(N), ids_report, is_greedy_matching),
    (DegreeAdaptiveMatching(N), ids_report, is_greedy_matching),
    (SampledEdgesMIS(N), ids_report, is_greedy_mis),
    (LowDegreeOnlyMatching(N), ids_report, is_greedy_matching),
    (HybridMatching(N, N), ids_report, is_greedy_matching),
    (PatchedLocalMinMIS(N), flagged_ids_report, is_maximal_independent_set),
]
DECODER_IDS = [protocol.name for protocol, _, _ in GRAPH_DECODERS]


@pytest.mark.parametrize("protocol,_report,rule", GRAPH_DECODERS, ids=DECODER_IDS)
@given(graph_spec, seeds)
@settings(max_examples=15, deadline=None)
def test_full_budget_decode_rebuilds_g(protocol, _report, rule, spec, seed):
    graph = build_frozen(spec)
    coins = PublicCoins(seed=seed)
    sketches = protocol.sketch_batch(graph, N, coins)
    with reported_edge_lists() as calls, built_graphs() as graphs:
        output = protocol.decode(N, sketches, coins)
    assert calls == [(graph.vertices, sorted(graph.edges()))]
    assert graphs == []
    assert rule(graph, output)


@pytest.mark.parametrize("protocol,_report,rule", GRAPH_DECODERS, ids=DECODER_IDS)
@given(graph_spec, seeds, silent_players)
@settings(max_examples=15, deadline=None)
def test_ids_that_are_not_players_are_dropped(
    protocol, _report, rule, spec, seed, silent
):
    graph = build_frozen(spec)
    coins = PublicCoins(seed=seed)
    sketches = protocol.sketch_batch(graph, N, coins)
    players = {v: m for v, m in sketches.items() if v not in silent}
    on_players = graph.induced_subgraph(players)
    with reported_edge_lists() as calls, built_graphs() as graphs:
        output = protocol.decode(N, players, coins)
    assert calls == [(on_players.vertices, sorted(on_players.edges()))]
    assert graphs == []
    assert rule(on_players, output)


@pytest.mark.parametrize("protocol,report,_rule", GRAPH_DECODERS, ids=DECODER_IDS)
@given(graph_spec, seeds, st.data())
@settings(max_examples=10, deadline=None)
def test_self_report_raises(protocol, report, _rule, spec, seed, data):
    graph = build_frozen(spec)
    assume(graph.num_vertices() > 0)
    coins = PublicCoins(seed=seed)
    sketches = dict(protocol.sketch_batch(graph, N, coins))
    v = data.draw(st.sampled_from(graph.sorted_vertices()))
    sketches[v] = report(v)
    with pytest.raises(ValueError, match="self-loop"):
        protocol.decode(N, sketches, coins)


@given(graph_spec, seeds, silent_players)
@settings(max_examples=15, deadline=None)
def test_priority_decode_replays_reported_edges_without_a_graph(spec, seed, silent):
    graph = build_frozen(spec)
    coins = PublicCoins(seed=seed)
    protocol = PriorityEdgeMatching(N)
    sketches = protocol.sketch_batch(graph, N, coins)
    players = {v: m for v, m in sketches.items() if v not in silent}
    with built_graphs() as graphs:
        output = protocol.decode(N, players, coins)
    assert graphs == []
    reported = graph.induced_subgraph(players).edges()
    order = sorted(reported, key=lambda e: edge_priority(coins, e))
    assert output == greedy_maximal_matching(None, order)


@given(graph_spec, seeds, st.data())
@settings(max_examples=10, deadline=None)
def test_priority_self_report_raises(spec, seed, data):
    graph = build_frozen(spec)
    assume(graph.num_vertices() > 0)
    coins = PublicCoins(seed=seed)
    protocol = PriorityEdgeMatching(N)
    sketches = dict(protocol.sketch_batch(graph, N, coins))
    v = data.draw(st.sampled_from(graph.sorted_vertices()))
    sketches[v] = ids_report(v)
    with pytest.raises(ValueError, match="self-loop"):
        protocol.decode(N, sketches, coins)


@given(graph_spec, seeds, silent_players)
@settings(max_examples=10, deadline=None)
def test_linear_decode_keeps_recovered_edges_between_players(spec, seed, silent):
    # L0 samplers recover one edge each, so even a large sampler count
    # need not reveal all of G: the reported edges are a subset of G's
    # on the players.  Recoveries are canonical edge slots (u < w), so
    # a self-loop is never reported.
    graph = build_frozen(spec)
    coins = PublicCoins(seed=seed)
    protocol = LinearL0Matching(3)
    sketches = protocol.sketch_batch(graph, N, coins)
    players = {v: m for v, m in sketches.items() if v not in silent}
    with reported_edge_lists() as calls, built_graphs() as graphs:
        output = protocol.decode(N, players, coins)
    [(reporters, edges)] = calls
    assert graphs == []
    assert reporters == frozenset(players)
    assert set(edges) <= graph.induced_subgraph(players).edge_set()
    assert output == greedy_maximal_matching(None, edges)


#: A cap multiplier at which ceil(c * isqrt(N)) exceeds every degree.
FULL_CAP = float(N)


@given(graph_spec, seeds)
@settings(max_examples=15, deadline=None)
def test_filtering_rounds_rebuild_reported_graph(spec, seed):
    graph = build_frozen(spec)
    protocol = FilteringMatching(num_rounds=2, cap_multiplier=FULL_CAP)
    with rebuilt_graphs() as graphs:
        run = run_adaptive_protocol(graph, protocol, PublicCoins(seed=seed), n=N)
    unmatched = graph.vertices - run.broadcasts[0]
    residual = [(u, v) for u, v in graph.edges() if u in unmatched and v in unmatched]
    assert graphs == [graph, FrozenGraph.from_edges(graph.vertices, residual)]


@given(graph_spec, seeds)
@settings(max_examples=15, deadline=None)
def test_sample_and_prune_rounds_rebuild_reported_graph(spec, seed):
    graph = build_frozen(spec)
    protocol = SampleAndPruneMIS(cap_multiplier=FULL_CAP)
    with rebuilt_graphs() as graphs:
        run = run_adaptive_protocol(graph, protocol, PublicCoins(seed=seed), n=N)
    undominated = run.broadcasts[1]
    assert graphs == [graph, graph.induced_subgraph(undominated)]


ADAPTIVE = [
    FilteringMatching(cap_multiplier=FULL_CAP),
    SampleAndPruneMIS(cap_multiplier=FULL_CAP),
]


@pytest.mark.parametrize("protocol", ADAPTIVE, ids=lambda p: p.name)
@given(graph_spec, seeds, silent_players)
@settings(max_examples=15, deadline=None)
def test_adaptive_first_round_drops_non_players(protocol, spec, seed, silent):
    graph = build_frozen(spec)
    coins = PublicCoins(seed=seed)
    views = views_of(graph, N)
    players = {
        v: protocol.sketch(view, coins, 0, [])
        for v, view in views.items()
        if v not in silent
    }
    with rebuilt_graphs() as graphs:
        protocol.referee_round(N, 0, players, coins, [])
    assert graphs == [graph.induced_subgraph(players)]


@pytest.mark.parametrize("protocol", ADAPTIVE, ids=lambda p: p.name)
@given(graph_spec, seeds, st.data())
@settings(max_examples=10, deadline=None)
def test_adaptive_self_report_raises(protocol, spec, seed, data):
    graph = build_frozen(spec)
    assume(graph.num_vertices() > 0)
    coins = PublicCoins(seed=seed)
    sketches = {
        v: protocol.sketch(view, coins, 0, [])
        for v, view in views_of(graph, N).items()
    }
    v = data.draw(st.sampled_from(graph.sorted_vertices()))
    sketches[v] = ids_report(v)
    with pytest.raises(ValueError, match="self-loop"):
        protocol.referee_round(N, 0, sketches, coins, [])
