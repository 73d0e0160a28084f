"""The vectorized sketch runtime: linearity, mergeability, bit identity.

Three layers of guarantees, all against executable oracles:

* ``L0FamilyState`` is a *linear* sketch — updates commute, merge equals
  the sketch of the summed input, the whole-graph incidence sum is the
  zero state, and a vertex subset's merged states equal a directly-built
  crossing-edge sketch (the identity the AGM referee relies on).
* ``L0Block`` reads a label's column straight from a player's wire
  word: its sums equal the decoded state's, its recovery agrees with
  the historical per-level ``L0Sampler`` object chain on identical
  update streams, and the AGM referee unpacks only the columns it sums.
* For every protocol in the registry (run through the oracle
  registry's ``sketches`` pair) and every sketch family,
  ``sketch_batch`` on a frozen graph is bit-identical to the per-view
  ``sketch`` oracle, player by player — the wire contract of
  :class:`repro.model.BatchSketchProtocol`.  The eleven
  :class:`repro.model.RowSketchProtocol` classes write their rule once,
  so for them the comparison checks views against CSR rows and that the
  rule reads only each player's own row; a test-local rule that reads
  other rows fails it.

``run_protocol`` picks the batched or the per-view path from its inputs
alone (the mutable builder takes the per-view one); the counting-wrapper
test pins that rule.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.graphs import Graph, cycle_graph, is_spanning_forest
from repro.graphs.builders import erdos_renyi
from repro.model import (
    BatchSketchProtocol,
    Message,
    PublicCoins,
    RowSketchProtocol,
    run_protocol,
    vertex_set_message,
    views_of,
)
from repro.obs import SKETCH_CELLS_PACKED, SKETCH_CELLS_UNPACKED
from repro.protocols import (
    DegreeAdaptiveMatching,
    FullNeighborhoodMatching,
    FullNeighborhoodMIS,
    HybridMatching,
    LowDegreeOnlyMatching,
    SampledEdgesMatching,
    SampledEdgesMIS,
)
from repro.sketches import (
    AGMConnectivity,
    AGMSpanningForest,
    ConnectivityCertificate,
    CrossingEdgeProtocol,
    DegeneracySketch,
    DensestSubgraphSketch,
    L0Block,
    L0Config,
    L0FamilyState,
    L0Sampler,
    PaletteSparsificationColoring,
    PrivateCoinColoring,
    SketchFamily,
    TriangleCountSketch,
    derive_family,
    edge_coordinate,
)

from .pair_runner import check_pair

# Small dense label space so random graphs collide and repeat edges.
labels = st.integers(0, 9)
edge = st.tuples(labels, labels).filter(lambda e: e[0] != e[1])
graph_spec = st.tuples(st.lists(labels, max_size=6), st.lists(edge, max_size=18))
seeds = st.integers(0, 2**16)


def build_frozen(spec):
    vertices, edges = spec
    g = Graph(vertices=vertices)
    for u, v in edges:
        g.add_edge(u, v)
    return g.freeze()


# ----------------------------------------------------------------------
# Linearity / mergeability of the columnar family state
# ----------------------------------------------------------------------
CONFIG = L0Config.for_universe(100)
UPDATES = st.lists(
    st.tuples(st.integers(0, 99), st.integers(-3, 3)), max_size=20
)
#: Encode widths that fit every running sum of one UPDATES stream
#: (|total| <= 20 * 3, |index sum| <= 20 * 3 * 99), so any state built
#: from one stream reaches the wire.
WIDE = 60


def family_for(seed: int, num_labels: int = 2, magnitude: int = 10):
    coins = PublicCoins(seed=seed)
    return derive_family(
        CONFIG,
        coins,
        tuple(f"test/{i}" for i in range(num_labels)),
        magnitude=magnitude,
    )


def word_of(state) -> int:
    """A state's wire word, as a referee reads it."""
    return state.to_message().reader().read_uint(state.params.num_bits)


def state_of(params, updates):
    state = L0FamilyState(params)
    for coord, delta in updates:
        state.update(coord, delta)
    return state


def arrays(state):
    return (
        list(state.totals),
        list(state.index_sums),
        list(state.fingerprints),
    )


@given(seeds, UPDATES, UPDATES)
def test_merge_is_sketch_of_summed_input(seed, ups_a, ups_b):
    params = family_for(seed)
    merged = state_of(params, ups_a).merge(state_of(params, ups_b))
    assert arrays(merged) == arrays(state_of(params, ups_a + ups_b))


@given(seeds, UPDATES)
def test_update_order_is_irrelevant(seed, updates):
    params = family_for(seed)
    shuffled = list(updates)
    random.Random(seed).shuffle(shuffled)
    assert arrays(state_of(params, updates)) == arrays(state_of(params, shuffled))


@given(seeds, UPDATES)
def test_negated_updates_cancel(seed, updates):
    params = family_for(seed)
    state = state_of(params, updates)
    negated = state_of(params, [(c, -d) for c, d in updates])
    assert state.merge(negated).is_zero()


@given(seeds, UPDATES)
def test_encode_decode_roundtrip(seed, updates):
    params = family_for(seed)
    state = state_of(params, updates)
    # magnitude=10 bounds single-update deltas, not the running sums;
    # skip streams that exceed the encodable range (encode refuses them).
    try:
        message = state.to_message()
    except ValueError:
        return
    assert message.num_bits == params.num_bits
    assert arrays(L0FamilyState.decode(message.reader(), params)) == arrays(state)


@given(seeds, UPDATES)
def test_block_recovery_matches_sampler_oracle(seed, updates):
    """L0Block over a family column read from the wire == the L0Sampler
    object chain."""
    coins = PublicCoins(seed=seed)
    params = family_for(seed, magnitude=WIDE)
    word = word_of(state_of(params, updates))
    for index, label in enumerate(params.labels):
        sampler = L0Sampler(CONFIG, coins, label)
        for coord, delta in updates:
            sampler.update(coord, delta)
        block = L0Block(params, index)
        block.accumulate(word)
        assert block.recover() == sampler.recover()


@given(
    seeds,
    st.integers(1, 4),
    st.integers(WIDE, 5000),
    st.lists(UPDATES, min_size=1, max_size=4),
)
def test_block_column_read_matches_decoded_state(
    seed, num_labels, magnitude, streams
):
    """Each label's column summed from the players' wire words equals
    the same column summed from their decoded states, and recovers what
    one sampler chain over every player's updates recovers."""
    coins = PublicCoins(seed=seed)
    params = family_for(seed, num_labels, magnitude)
    states = [state_of(params, updates) for updates in streams]
    words = [word_of(state) for state in states]
    decoded = [
        L0FamilyState.decode(state.to_message().reader(), params)
        for state in states
    ]
    levels = params.num_levels
    for index, label in enumerate(params.labels):
        block = L0Block(params, index)
        for word in words:
            block.accumulate(word)
        cells = slice(index * levels, (index + 1) * levels)
        assert block.totals == [
            sum(column) for column in zip(*(d.totals[cells] for d in decoded))
        ]
        assert block.index_sums == [
            sum(column) for column in zip(*(d.index_sums[cells] for d in decoded))
        ]
        assert block.fingerprints == [
            sum(column) % params.q
            for column in zip(*(d.fingerprints[cells] for d in decoded))
        ]
        sampler = L0Sampler(CONFIG, coins, label)
        for updates in streams:
            for coord, delta in updates:
                sampler.update(coord, delta)
        assert block.recover() == sampler.recover()


@given(graph_spec, seeds)
@settings(max_examples=30)
def test_whole_graph_incidence_sum_is_zero(spec, seed):
    """Each edge contributes +1 to one endpoint and -1 to the other, so
    the merge over all players is the sketch of the zero vector."""
    graph = build_frozen(spec)
    n = max(graph.vertices, default=0) + 1
    family = SketchFamily.incidence(
        L0Config.for_universe(max(n * n, 1)),
        PublicCoins(seed=seed),
        ("sum/0", "sum/1"),
        magnitude=max(n, 1),
    )
    states = list(family.build_states(graph, n).values())
    if not states:
        return
    total = states[0]
    for state in states[1:]:
        total = total.merge(state)
    assert total.is_zero()


@given(graph_spec, seeds, st.sets(labels, max_size=5))
@settings(max_examples=30)
def test_subset_merge_equals_crossing_edge_sketch(spec, seed, subset):
    """Merging a vertex subset's states leaves exactly the signed
    crossing edges — the identity AGM's Borůvka rounds decode with."""
    graph = build_frozen(spec)
    n = max(graph.vertices, default=0) + 1
    members = sorted(subset & graph.vertices)
    family = SketchFamily.incidence(
        L0Config.for_universe(max(n * n, 1)),
        PublicCoins(seed=seed),
        ("cross/0",),
        magnitude=max(n, 1),
    )
    states = family.build_states(graph, n)
    merged = family.empty_state()
    for v in members:
        merged = merged.merge(states[v])
    direct = family.empty_state()
    inside = set(members)
    for u, v in graph.edges():
        if (u in inside) == (v in inside):
            continue
        sign = 1 if u in inside else -1  # +1 was applied at the lower endpoint
        direct.update(edge_coordinate(u, v, n), sign)
    assert arrays(merged) == arrays(direct)


# ----------------------------------------------------------------------
# The referees read columns from the wire
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "protocol", [AGMSpanningForest(), ConnectivityCertificate(k=2)]
)
def test_referee_refuses_a_message_one_bit_short(protocol):
    graph = cycle_graph(8).freeze()
    coins = PublicCoins(seed=1)
    messages = dict(protocol.sketch_batch(graph, 8, coins))
    messages[3] = Message.from_bits(messages[3].bits[:-1])
    with pytest.raises(EOFError):
        protocol.decode(8, messages, coins)


def test_agm_referee_unpacks_only_the_columns_it_sums(monkeypatch):
    n = 24
    graph = cycle_graph(n).freeze()
    coins = PublicCoins(seed=3)
    protocol = AGMSpanningForest()
    family = protocol._family(n, coins)
    summed = []
    accumulate = L0Block.accumulate

    def counting(block, word):
        summed.append(block.label_index)
        accumulate(block, word)

    monkeypatch.setattr(L0Block, "accumulate", counting)
    with obs.recording() as recorder:
        messages = family.fresh_messages(graph, n)
        forest = protocol.decode(n, messages, coins)
    assert is_spanning_forest(graph, forest)
    totals = recorder.totals()
    assert totals[SKETCH_CELLS_UNPACKED] == family.params.num_levels * len(summed)
    assert totals[SKETCH_CELLS_UNPACKED] < totals[SKETCH_CELLS_PACKED]


# ----------------------------------------------------------------------
# Batch construction == per-view oracle, bit for bit
# ----------------------------------------------------------------------
REGISTRY_SPECS = [
    "full",
    "sampled:2",
    "degree-adaptive:2",
    "low-degree:3",
    "hybrid:3,2",
    "priority:1",
    "linear:1",
    "mis-full",
    "mis-sampled:2",
    "mis-local-min",
    "mis-patched:2",
]


def assert_batch_matches_oracle(protocol, graph, coins):
    n = max(graph.vertices, default=-1) + 1
    if n == 0:
        return
    views = views_of(graph, n)
    batch = protocol.sketch_batch(graph, n, coins)
    assert set(batch) == set(graph.vertices)
    for v in graph.sorted_vertices():
        oracle = protocol.sketch(views[v], coins)
        assert batch[v].num_bits == oracle.num_bits, v
        assert batch[v].to_bytes() == oracle.to_bytes(), v


@pytest.mark.parametrize("spec", REGISTRY_SPECS)
def test_registry_batch_bit_identical(spec):
    """The registry's ``sketches`` pair on its cases of ``spec``."""
    check_pair("sketches", 15, "differential", "charged-bits", spec=spec)


FAMILY_PROTOCOLS = [
    lambda g: AGMSpanningForest(),
    lambda g: AGMConnectivity(),
    lambda g: ConnectivityCertificate(k=2),
    lambda g: CrossingEdgeProtocol(samples_per_vertex=3),
    lambda g: PaletteSparsificationColoring(max(g.max_degree(), 1)),
    lambda g: PrivateCoinColoring(max(g.max_degree(), 1)),
    lambda g: DensestSubgraphSketch(0.5),
    lambda g: DegeneracySketch(0.5),
    lambda g: TriangleCountSketch(0.5),
]


@pytest.mark.parametrize("make", FAMILY_PROTOCOLS)
@given(graph_spec, seeds)
@settings(max_examples=10, deadline=None)
def test_family_batch_bit_identical(make, graph_spec_value, seed):
    graph = build_frozen(graph_spec_value)
    assert_batch_matches_oracle(make(graph), graph, PublicCoins(seed=seed))


def test_agm_batch_bit_identical_on_speed_gate_graphs():
    """The graphs ``benchmarks/bench_sketches.py`` times: G(n, p) up to
    n = 96 with hundreds of edges, far beyond the generators above."""
    for n, p in [(32, 0.2), (64, 0.12), (96, 0.1)]:
        graph = erdos_renyi(n, p, random.Random(100 + n)).freeze()
        assert_batch_matches_oracle(
            AGMSpanningForest(), graph, PublicCoins(seed=17)
        )


def test_endpoint_outside_vertex_range_raises_on_both_paths():
    coins = PublicCoins(seed=2)
    protocol = AGMSpanningForest()
    bad = Graph(vertices=range(10))
    bad.add_edge(1, 15)
    frozen = bad.freeze()
    with pytest.raises(ValueError):
        protocol.sketch(views_of(frozen, 10)[1], coins)
    with pytest.raises(ValueError):
        protocol._family(10, coins).build_states(frozen, 10)
    # An isolated vertex >= n has no incidence entries on either path.
    isolated = Graph(vertices=[0, 1, 2, 12])
    isolated.add_edge(0, 1)
    frozen = isolated.freeze()
    batch = protocol._family(10, coins).fresh_messages(frozen, 10)
    views = views_of(frozen, 10)
    assert {v: protocol.sketch(views[v], coins) for v in views} == batch


#: The protocols whose message is a function of the player's own row:
#: each writes its rule once, as ``sketch_rows``.
ROW_RULE_PROTOCOLS = [
    SampledEdgesMatching,
    DegreeAdaptiveMatching,
    SampledEdgesMIS,
    LowDegreeOnlyMatching,
    HybridMatching,
    FullNeighborhoodMatching,
    FullNeighborhoodMIS,
    DensestSubgraphSketch,
    DegeneracySketch,
    TriangleCountSketch,
    PrivateCoinColoring,
]


@pytest.mark.parametrize("cls", ROW_RULE_PROTOCOLS, ids=lambda cls: cls.__name__)
def test_row_rule_is_written_once(cls):
    assert issubclass(cls, RowSketchProtocol)
    assert "sketch" not in vars(cls)
    assert "sketch_batch" not in vars(cls)


def test_incidence_sampler_protocols_share_one_per_view_sketch():
    assert ConnectivityCertificate.sketch is AGMSpanningForest.sketch
    assert ConnectivityCertificate.sketch_batch is AGMSpanningForest.sketch_batch


class RowCountingProtocol(RowSketchProtocol):
    """A non-local rule: each message names the rows read before it."""

    name = "row-counting"

    def sketch_rows(self, rows, n, coins):
        return {v: vertex_set_message(range(i), n) for i, (v, _) in enumerate(rows)}

    def decode(self, n, sketches, coins):
        return None


def test_batch_oracle_catches_a_rule_that_reads_other_rows():
    graph = build_frozen(([0, 1], [(0, 1)]))
    with pytest.raises(AssertionError):
        assert_batch_matches_oracle(
            RowCountingProtocol(), graph, PublicCoins(seed=0)
        )


@given(graph_spec, seeds)
@settings(max_examples=10, deadline=None)
def test_run_protocol_fast_path_matches_slow_path(spec, seed):
    graph = build_frozen(spec)
    if not graph.vertices:
        return
    n = max(graph.vertices) + 1
    coins = PublicCoins(seed=seed)
    protocol = AGMSpanningForest()
    fast = run_protocol(graph, protocol, coins, n=n)
    slow = run_protocol(graph.to_builder(), protocol, coins, n=n)
    assert fast.output == slow.output
    assert fast.max_bits == slow.max_bits
    for v in graph.sorted_vertices():
        assert (
            fast.transcript.sketches[v].to_bytes()
            == slow.transcript.sketches[v].to_bytes()
        )


class CountingProtocol(BatchSketchProtocol):
    """Delegates to a batch protocol, counting calls to each path."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.sketch_calls = 0
        self.batch_calls = 0

    def sketch(self, view, coins):
        self.sketch_calls += 1
        return self.inner.sketch(view, coins)

    def sketch_batch(self, graph, n, coins):
        self.batch_calls += 1
        return self.inner.sketch_batch(graph, n, coins)

    def decode(self, n, sketches, coins):
        return self.inner.decode(n, sketches, coins)


def test_run_protocol_picks_its_path_from_its_inputs():
    builder = Graph(vertices=range(6))
    for u, v in ((0, 1), (1, 2), (3, 4)):
        builder.add_edge(u, v)
    frozen = builder.freeze()
    coins = PublicCoins(seed=7)
    # (batch calls, per-view calls) for each form of the graph.
    for graph, expected in (
        (frozen, (1, 0)),
        (builder, (0, 6)),
        (frozen.to_builder(), (0, 6)),
    ):
        protocol = CountingProtocol(AGMSpanningForest())
        run_protocol(graph, protocol, coins, n=6)
        assert (protocol.batch_calls, protocol.sketch_calls) == expected


# ----------------------------------------------------------------------
# Satellite plumbing: coins bulk draws and view memoization
# ----------------------------------------------------------------------
def test_uniform_ints_is_the_single_stream():
    coins = PublicCoins(seed=5)
    values = coins.uniform_ints("bulk", 50, 17)
    assert len(values) == 50 and all(0 <= v < 17 for v in values)
    rng = coins.rng("bulk")
    assert values == [rng.randrange(17) for _ in range(50)]
    # Deterministic, and distinct labels give distinct streams.
    assert values == coins.uniform_ints("bulk", 50, 17)
    assert values != coins.uniform_ints("bulk2", 50, 17)


def test_uniform_ints_validates_arguments():
    coins = PublicCoins(seed=5)
    with pytest.raises(ValueError):
        coins.uniform_ints("x", 3, 0)
    with pytest.raises(ValueError):
        coins.uniform_ints("x", -1, 5)


def test_views_of_memoizes_frozen_graphs():
    g = Graph(vertices=range(5))
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    frozen = g.freeze()
    first = views_of(frozen, 5)
    assert views_of(frozen, 5) is first
    assert views_of(frozen, 6) is not first  # distinct player count
    view = first[1]
    assert view.sorted_neighbors == (0, 2)
    assert view.sorted_neighbors is view.sorted_neighbors  # cached
