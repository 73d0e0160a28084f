"""Tests for the content-addressed run store and its JSONL framing."""

import json

import pytest

from repro.runs import (
    RunRecord,
    RunStore,
    execute_run,
    payload_checksum,
    run_key,
)


def make_record(experiment_id="F1", params=None, seed=0, **over) -> RunRecord:
    """A small synthetic record for store tests."""
    params = dict(params or {"m": 8, "k": 2, "seed": seed})
    fields = dict(
        key=run_key(experiment_id, params, seed=seed),
        experiment_id=experiment_id,
        title="synthetic",
        params=params,
        seed=seed,
        exact=False,
        engine={"backend": "serial"},
        version="1.0.0",
        wall_time=0.01,
        cache_hits=0,
        cache_misses=1,
        lines=("row 1", "row 2"),
        data={"rows": [1, 2]},
        created=1_700_000_000.0,
    )
    fields.update(over)
    return RunRecord(**fields)


class TestRunRecord:
    def test_payload_roundtrip(self):
        record = make_record()
        again = RunRecord.from_payload(record.to_payload())
        assert again == record

    def test_payload_is_json_safe(self):
        payload = make_record().to_payload()
        assert json.loads(json.dumps(payload)) == payload

    def test_render_matches_report_shape(self):
        text = make_record().render()
        assert text.startswith("[F1] synthetic")
        assert text.endswith("row 1\nrow 2")


class TestRunStore:
    def test_put_get_has(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        record = make_record()
        assert not store.has(record.key)
        store.put(record)
        assert store.has(record.key)
        assert store.get(record.key) == record

    def test_persists_across_reopen(self, tmp_path):
        root = tmp_path / "runs"
        RunStore(root).put(make_record())
        reopened = RunStore(root)
        assert len(reopened) == 1
        assert reopened.get(make_record().key) == make_record()

    def test_one_manifest_per_experiment(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        store.put(make_record("F1"))
        store.put(make_record("UB-SF", params={"ns": [16]}, seed=None))
        assert store.path_for("F1").exists()
        assert store.path_for("UB-SF").exists()
        assert len(store) == 2

    def test_last_record_per_key_wins(self, tmp_path):
        root = tmp_path / "runs"
        store = RunStore(root)
        store.put(make_record(wall_time=0.01))
        store.put(make_record(wall_time=0.99))
        assert RunStore(root).get(make_record().key).wall_time == 0.99

    def test_corrupt_line_reads_as_missing(self, tmp_path):
        root = tmp_path / "runs"
        store = RunStore(root)
        store.put(make_record())
        manifest = store.path_for("F1")
        text = manifest.read_text()
        assert '"m": 8' in text
        manifest.write_text(text.replace('"m": 8', '"m": 9'))
        reopened = RunStore(root)
        assert len(reopened) == 0
        assert reopened.corrupt_entries == 1

    def test_truncated_line_skipped(self, tmp_path):
        root = tmp_path / "runs"
        store = RunStore(root)
        store.put(make_record())
        store.put(make_record(seed=1, params={"m": 8, "k": 2, "seed": 1}))
        manifest = store.path_for("F1")
        lines = manifest.read_text().splitlines()
        manifest.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        reopened = RunStore(root)
        assert len(reopened) == 1
        assert reopened.corrupt_entries == 1

    def test_put_after_torn_write_keeps_both_records(self, tmp_path):
        # A kill mid-append can cut the manifest anywhere inside the last
        # record.  At every cut, the record before it and a record put
        # afterwards must both read back.
        root = tmp_path / "runs"
        first = make_record()
        second = make_record(seed=1, params={"m": 8, "k": 2, "seed": 1})
        third = make_record(seed=2, params={"m": 10, "k": 2, "seed": 2})
        store = RunStore(root)
        store.put(first)
        manifest = store.path_for("F1")
        intact = manifest.read_bytes()
        store.put(second)
        full = manifest.read_bytes()
        for cut in range(len(intact), len(full)):
            manifest.write_bytes(full[:cut])
            RunStore(root).put(third)
            reopened = RunStore(root)
            assert reopened.get(first.key) == first, cut
            assert reopened.get(third.key) == third, cut

    def test_checksum_covers_payload(self):
        payload = make_record().to_payload()
        checksum = payload_checksum(payload)
        payload["wall_time"] = 123.0
        assert payload_checksum(payload) != checksum

    def test_resolve_key_prefix(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        record = make_record()
        store.put(record)
        assert store.resolve_key(record.key[:8]) == record.key
        with pytest.raises(KeyError, match="no stored run"):
            store.resolve_key("ffff")

    def test_records_filter_and_order(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        store.put(make_record(created=2.0))
        store.put(
            make_record(
                seed=1, params={"m": 8, "k": 2, "seed": 1}, created=1.0
            )
        )
        records = store.records("F1")
        assert [r.created for r in records] == [1.0, 2.0]
        assert store.records("NOPE") == []


class TestExecuteRun:
    def test_executes_and_stores(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        outcome = execute_run("F1", {"m": 8, "k": 2}, store=store)
        assert outcome.executed and not outcome.cached
        record = outcome.record
        assert record.experiment_id == "F1"
        assert record.params == {"m": 8, "k": 2, "seed": 0}
        assert record.seed == 0
        assert store.get(record.key) == record

    def test_reuses_stored_record(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        first = execute_run("F1", {"m": 8, "k": 2}, store=store)
        second = execute_run("F1", {"m": 8, "k": 2}, store=store)
        assert second.cached
        assert second.record == first.record
        assert len(store) == 1

    def test_record_matches_live_report(self, tmp_path):
        from repro.experiments import run_experiment

        store = RunStore(tmp_path / "runs")
        record = execute_run("F1", {"m": 8, "k": 2}, store=store).record
        live = run_experiment("F1", m=8, k=2)
        assert record.lines == live.lines
        assert record.data == live.data
        assert record.render() == live.render()

    def test_object_overrides_cannot_be_stored(self, tmp_path):
        from repro.lowerbound import scaled_distribution

        configs = [("tiny", scaled_distribution(m=8, k=2))]
        with pytest.raises(TypeError, match="configs"):
            execute_run(
                "C31",
                {"configs": configs, "trials": 2},
                store=RunStore(tmp_path / "runs"),
            )
