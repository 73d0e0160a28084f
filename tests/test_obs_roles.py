"""Transcript telemetry by player role, not by vertex.

``charge_transcript`` groups a delivery's players by the role the caller
names (``DMMInstance.player_roles`` on the hard distribution, a table
indexed by label: public, unique, special; ``all`` without an instance)
and records, per
(protocol, role[, round]) key, the message count, the bit sum, and one
:class:`~repro.obs.Summary` entry: the exact max and a log2-bucket
histogram.  So a run's telemetry has one series per protocol × role ×
round, however many players the graph has.
"""

import dataclasses
import functools
import json
import random

import pytest

from repro import obs
from repro.engine import ExecutionEngine
from repro.graphs import FrozenGraph
from repro.lowerbound import (
    attack_with_adaptive_matching,
    sample_dmm,
    scaled_distribution,
)
from repro.model import PublicCoins, run_adaptive_protocol, run_protocol
from repro.obs import (
    TRANSCRIPT_BITS,
    TRANSCRIPT_MESSAGES,
    Summary,
    TelemetryRecorder,
    bucket_quantile,
    recording,
    telemetry_summary,
    to_jsonl,
    transcript_rows,
)
from repro.lowerbound.adversary import _attack_trial
from repro.protocols import FilteringMatching, make_protocol
from repro.runs import execute_run


class TestSummary:
    def test_buckets_are_bit_lengths(self):
        summary = Summary.of([0, 1, 2, 3, 4, 7, 8])
        assert summary.max == 8
        # bucket 0: {0}; 1: {1}; 2: {2,3}; 3: {4..7}; 4: {8..15}
        assert summary.buckets == (1, 1, 2, 2, 1)

    def test_quantiles_read_bucket_upper_edges_capped_at_max(self):
        summary = Summary.of([5] * 60 + [40] * 40)
        assert bucket_quantile(summary.buckets, summary.max, 50) == 7
        assert bucket_quantile(summary.buckets, summary.max, 99) == 40
        assert bucket_quantile([], 0, 50) == 0
        assert bucket_quantile([0, 0, 3], 2, 99) == 2

    def test_quantile_rank_is_exact_at_the_boundary(self):
        # 99 values of 1 and one of 100: p99 is the 99th value, p100 the max.
        summary = Summary.of([1] * 99 + [100])
        assert bucket_quantile(summary.buckets, summary.max, 99) == 1
        assert bucket_quantile(summary.buckets, summary.max, 100) == 100

    def test_merge_adds_buckets_and_takes_the_max(self):
        a, b = Summary.of([1, 2, 3]), Summary.of([0, 70])
        assert a.merged(b) == b.merged(a) == Summary.of([1, 2, 3, 0, 70])
        assert a == Summary.of([1, 2, 3]) and b == Summary.of([0, 70])

    def test_observe_adds_the_sum_and_one_summary_entry(self):
        rec = TelemetryRecorder()
        labels = (("protocol", "p"), ("role", "public"))
        rec.observe(TRANSCRIPT_BITS, [3, 9], labels)
        rec.observe(TRANSCRIPT_BITS, [1], labels)
        assert rec.counters[(TRANSCRIPT_BITS, labels)] == 13
        assert rec.summaries == {(TRANSCRIPT_BITS, labels): Summary.of([3, 9, 1])}
        with pytest.raises(KeyError, match="undeclared counter"):
            rec.observe("no.such.counter", [1])

    def test_in_place_entries_equal_the_reference_summaries(self):
        rng = random.Random(7)
        batches = [
            [rng.randrange(1 << rng.randrange(12)) for _ in range(rng.randrange(1, 9))]
            for _ in range(60)
        ]
        rec, merged = TelemetryRecorder(), TelemetryRecorder()
        labels = (("role", "public"),)
        for batch in batches:
            rec.observe(TRANSCRIPT_BITS, batch, labels)
            child = TelemetryRecorder()
            child.observe(TRANSCRIPT_BITS, batch, labels)
            merged.merge_snapshot(child.snapshot())
        reference = functools.reduce(Summary.merged, map(Summary.of, batches))
        assert reference == Summary.of([v for batch in batches for v in batch])
        assert rec.summaries == merged.summaries == {(TRANSCRIPT_BITS, labels): reference}

    def test_snapshots_copy_and_merges_combine_summaries(self):
        labels = (("role", "unique"),)
        parts = []
        for values in ([4, 4], [30], [0]):
            child = TelemetryRecorder()
            child.observe(TRANSCRIPT_BITS, values, labels)
            parts.append(child.snapshot())
            child.observe(TRANSCRIPT_BITS, [1000], labels)  # after the snapshot
        forward, backward = TelemetryRecorder(), TelemetryRecorder()
        for snap in parts:
            forward.merge_snapshot(snap)
        for snap in reversed(parts):
            backward.merge_snapshot(snap)
        expected = Summary.of([4, 4, 30, 0])
        assert forward.summaries == backward.summaries
        assert forward.summaries[(TRANSCRIPT_BITS, labels)] == expected
        assert forward.totals() == {TRANSCRIPT_BITS: 38}

    def test_jsonl_carries_summary_events(self):
        rec = TelemetryRecorder()
        rec.observe(TRANSCRIPT_BITS, [2, 5], (("role", "all"),))
        events = [json.loads(line) for line in to_jsonl(rec).splitlines()]
        assert events[0]["summaries"] == 1
        (summary,) = [e for e in events if e["type"] == "summary"]
        assert summary == {
            "type": "summary",
            "name": TRANSCRIPT_BITS,
            "labels": {"role": "all"},
            "max": 5,
            "buckets": [0, 0, 1, 1],
        }


@pytest.fixture(scope="module")
def instance():
    return sample_dmm(scaled_distribution(m=8, k=2), random.Random(3))


def _labels_by_role(table) -> dict[str, set[int]]:
    """Invert a role table: each role's labels."""
    out: dict[str, set[int]] = {}
    for label, role in enumerate(table):
        out.setdefault(role, set()).add(label)
    return out


class TestRoles:
    def test_player_roles_partition_the_labels(self, instance):
        table = instance.player_roles()
        assert len(table) == instance.hard.n
        roles = _labels_by_role(table)
        special = {v for e in instance.union_special_matching for v in e}
        assert special, "the fixture instance must have a surviving special edge"
        assert roles["special"] == special
        assert roles["unique"] == set(instance.all_unique_labels) - special
        assert roles["public"] == set(instance.public_labels)
        assert sum(map(len, roles.values())) == instance.hard.n
        assert set().union(*roles.values()) == set(range(instance.hard.n))

    def test_one_key_per_role_matches_the_transcript(self, instance):
        protocol = make_protocol("sampled:2")
        with recording(TelemetryRecorder()) as rec:
            run = run_protocol(
                instance.graph,
                protocol,
                PublicCoins(seed=1),
                n=instance.hard.n,
                roles=instance.player_roles,
            )
        role_of = instance.player_roles()
        bits_by_role: dict[str, list[int]] = {}
        for player, message in run.transcript.sketches.items():
            bits_by_role.setdefault(role_of[player], []).append(message.num_bits)
        assert set(bits_by_role) == {"public", "unique", "special"}
        for role, bits in bits_by_role.items():
            labels = (("protocol", protocol.name), ("role", role))
            assert rec.counters[(TRANSCRIPT_BITS, labels)] == sum(bits)
            assert rec.counters[(TRANSCRIPT_MESSAGES, labels)] == len(bits)
            assert rec.summaries[(TRANSCRIPT_BITS, labels)] == Summary.of(bits)
        assert len(rec.summaries) == 3
        assert rec.totals()[TRANSCRIPT_BITS] == run.transcript.total_bits
        assert max(s.max for s in rec.summaries.values()) == run.max_bits

    def test_without_roles_every_player_is_all(self, instance):
        protocol = make_protocol("sampled:1")
        with recording(TelemetryRecorder()) as rec:
            run = run_protocol(
                instance.graph, protocol, PublicCoins(seed=1), n=instance.hard.n
            )
        labels = (("protocol", protocol.name), ("role", "all"))
        assert rec.counters[(TRANSCRIPT_MESSAGES, labels)] == instance.hard.n
        assert rec.summaries[(TRANSCRIPT_BITS, labels)].max == run.max_bits

    def test_roles_that_miss_a_player_are_refused(self, instance):
        def public_only():
            # A table that stops before the last label misses that player.
            return ("public",) * (instance.hard.n - 1)

        with recording(TelemetryRecorder()):
            with pytest.raises(ValueError, match="exactly one role"):
                run_protocol(
                    instance.graph,
                    make_protocol("sampled:1"),
                    PublicCoins(seed=1),
                    n=instance.hard.n,
                    roles=public_only,
                )

    def test_roles_are_never_called_without_a_recorder(self, instance):
        def refuse():
            raise AssertionError("roles called with telemetry off")

        assert obs.active() is None
        run_protocol(
            instance.graph,
            make_protocol("sampled:1"),
            PublicCoins(seed=1),
            n=instance.hard.n,
            roles=refuse,
        )
        run_adaptive_protocol(
            instance.graph,
            FilteringMatching(num_rounds=2),
            PublicCoins(seed=1),
            n=instance.hard.n,
            roles=refuse,
        )

    def test_a_recorded_attack_trial_keeps_the_instance_compact(
        self, monkeypatch
    ):
        """Charging the roles and scoring the output read the CSR graph
        and the role table: no frozenset adjacency view is built, and
        the instance caches nothing beside its graph and role table."""
        instance = sample_dmm(scaled_distribution(m=8, k=2), random.Random(11))
        built = []
        adjacency = FrozenGraph.adjacency

        def spy(graph):
            built.append(graph)
            return adjacency(graph)

        monkeypatch.setattr(FrozenGraph, "adjacency", spy)
        with recording(TelemetryRecorder()) as rec:
            strict, *_ = _attack_trial(
                (instance, 5, make_protocol("full"), False)
            )
        assert strict  # a maximal matching: the cover test read its rows
        assert built == []
        assert len(rec.summaries) == 3  # public, unique, special
        assert "_copy_labels" not in vars(instance)
        fields = {f.name for f in dataclasses.fields(instance)}
        assert set(vars(instance)) - fields == {"graph", "_roles"}

    def test_adaptive_rounds_get_their_own_keys(self):
        hard = scaled_distribution(m=8, k=2)
        protocol = FilteringMatching(num_rounds=2)
        with recording(TelemetryRecorder()) as rec:
            attack_with_adaptive_matching(
                hard, protocol, trials=2, seed=0, engine=ExecutionEngine()
            )
        rows = transcript_rows(rec)
        assert {row[2] for row in rows} == {0, 1}
        assert {row[1] for row in rows} == {"public", "unique", "special"}
        for round_index in (0, 1):
            messages = sum(row[3] for row in rows if row[2] == round_index)
            assert messages == 2 * hard.n


def _t1b_telemetry(m: int) -> dict:
    record = execute_run(
        "T1b", {"m": m, "k": 2, "trials": 4, "seed": 0}, engine=ExecutionEngine()
    ).record
    return record.telemetry


class TestBoundedCardinality:
    def test_series_do_not_grow_with_n(self):
        small, large = _t1b_telemetry(8), _t1b_telemetry(12)
        series = [
            len(block["detail"]) + len(block["transcript"])
            for block in (small, large)
        ]
        assert series[0] == series[1] == 7 * 3  # knobs x roles
        for block in (small, large):
            assert "player" not in json.dumps(block)
            assert block["detail"] == {}

    def test_rows_add_up_to_the_totals(self):
        block = _t1b_telemetry(8)
        rows = block["transcript"]
        assert sum(row[4] for row in rows) == block["counters"][TRANSCRIPT_BITS]
        assert sum(row[3] for row in rows) == block["counters"][TRANSCRIPT_MESSAGES]
        for row in rows:
            assert sum(row[6]) == row[3]  # one bucket entry per message


class TestMergedRunSpans:
    def test_every_merged_span_lies_inside_its_parent(self):
        """A run's spans merge onto the outer timeline where the run
        started, not after it ended."""
        with recording(TelemetryRecorder()) as outer:
            with obs.span("outer"):
                execute_run(
                    "T1b",
                    {"m": 8, "k": 2, "trials": 2},
                    engine=ExecutionEngine(),
                )
        by_id = {s.span_id: s for s in outer.spans}
        run = next(s for s in outer.spans if s.name == "run")
        assert by_id[run.parent_id].name == "outer"
        slack = 1e-9
        for span in outer.spans:
            if span.parent_id is None:
                continue
            parent = by_id[span.parent_id]
            assert parent.start <= span.start + slack, (parent.name, span.name)
            assert span.start + span.duration <= (
                parent.start + parent.duration + slack
            ), (parent.name, span.name)

    def test_outer_trace_and_record_agree_on_the_roles(self):
        with recording(TelemetryRecorder()) as outer:
            record = execute_run(
                "T1b", {"m": 8, "k": 2, "trials": 2}, engine=ExecutionEngine()
            ).record
        assert telemetry_summary(outer)["transcript"] == record.telemetry[
            "transcript"
        ]
