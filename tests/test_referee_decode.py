"""Referee decode contract of every protocol that rebuilds the reported graph.

Each such decoder assembles the reported edges in one
``FrozenGraph.from_edges`` call.  On random graphs (the sketch-core
suite's strategy) the tests watch that call and pin three rules:

* a full-budget decode of the batch messages rebuilds exactly G's edge
  set on the players;
* reported ids that are not players are dropped;
* a player reporting itself raises ``ValueError("self-loop ...")``, as
  the builder's ``add_edge`` did.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.graphs import FrozenGraph, greedy_maximal_matching
from repro.model import (
    BitWriter,
    PublicCoins,
    encode_vertex_set,
    id_width_for,
    run_adaptive_protocol,
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
)
from repro.sketches.core import adjacency_row_message, vertex_set_message

from .test_sketch_core import build_frozen, graph_spec, labels, seeds

#: Player ids are labels 0..9, so n = 10 addresses every one of them
#: and any budget >= 9 is a full neighborhood.
N = 10
silent_players = st.sets(labels, max_size=5)


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


def row_report(v):
    return adjacency_row_message((v,), N)


def ids_report(v):
    return vertex_set_message((v,), N)


def flagged_ids_report(v):
    writer = BitWriter()
    writer.write_bit(0)
    encode_vertex_set(writer, [v], id_width_for(N))
    return writer.to_message()


#: Every one-round decoder that rebuilds the reported graph, at full
#: budget, with the message by which a player reports only itself.
GRAPH_DECODERS = [
    (FullNeighborhoodMatching(), row_report),
    (FullNeighborhoodMIS(), row_report),
    (SampledEdgesMatching(N), ids_report),
    (DegreeAdaptiveMatching(N), ids_report),
    (SampledEdgesMIS(N), ids_report),
    (LowDegreeOnlyMatching(N), ids_report),
    (HybridMatching(N, N), ids_report),
    (PatchedLocalMinMIS(N), flagged_ids_report),
]
DECODER_IDS = [protocol.name for protocol, _ in GRAPH_DECODERS]


@pytest.mark.parametrize("protocol,_report", GRAPH_DECODERS, ids=DECODER_IDS)
@given(graph_spec, seeds)
@settings(max_examples=15, deadline=None)
def test_full_budget_decode_rebuilds_g(protocol, _report, spec, seed):
    graph = build_frozen(spec)
    coins = PublicCoins(seed=seed)
    sketches = protocol.sketch_batch(graph, N, coins)
    with rebuilt_graphs() as graphs:
        protocol.decode(N, sketches, coins)
    assert graphs == [graph]


@pytest.mark.parametrize("protocol,_report", GRAPH_DECODERS, ids=DECODER_IDS)
@given(graph_spec, seeds, silent_players)
@settings(max_examples=15, deadline=None)
def test_ids_that_are_not_players_are_dropped(protocol, _report, spec, seed, silent):
    graph = build_frozen(spec)
    coins = PublicCoins(seed=seed)
    sketches = protocol.sketch_batch(graph, N, coins)
    players = {v: m for v, m in sketches.items() if v not in silent}
    with rebuilt_graphs() as graphs:
        protocol.decode(N, players, coins)
    assert graphs == [graph.induced_subgraph(players)]


@pytest.mark.parametrize("protocol,report", GRAPH_DECODERS, ids=DECODER_IDS)
@given(graph_spec, seeds, st.data())
@settings(max_examples=10, deadline=None)
def test_self_report_raises(protocol, report, spec, seed, data):
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
    with rebuilt_graphs() as graphs:
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
    # need not reveal all of G: the rebuilt graph is a subgraph of G on
    # the players.  Recoveries are canonical edge slots (u < w), so a
    # self-loop never reaches the graph.
    graph = build_frozen(spec)
    coins = PublicCoins(seed=seed)
    protocol = LinearL0Matching(3)
    sketches = protocol.sketch_batch(graph, N, coins)
    players = {v: m for v, m in sketches.items() if v not in silent}
    with rebuilt_graphs() as graphs:
        protocol.decode(N, players, coins)
    [candidates] = graphs
    assert candidates.vertices == frozenset(players)
    assert candidates.edge_set() <= graph.induced_subgraph(players).edge_set()


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
