"""Tests for the content-addressed run store: one checksum-framed file
per run key, and each failure mode it survives, by fault injection."""

import json
import multiprocessing
import os
import signal

import pytest

from repro.engine import framing
from repro.runs import (
    RunRecord,
    RunStore,
    canonical_json,
    execute_run,
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


def seeded(seed: int, **over) -> RunRecord:
    """A synthetic F1 record whose key is set by ``seed``."""
    params = {"m": 8, "k": 2, "seed": seed}
    return make_record(params=params, seed=seed, **over)


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
        """One record file per run key.  The name dates from the layout
        with one manifest per experiment: records of two experiments now
        land in two files, each named by its run key."""
        store = RunStore(tmp_path / "runs")
        f1 = make_record("F1")
        ubsf = make_record("UB-SF", params={"ns": [16]}, seed=None)
        store.put(f1)
        store.put(ubsf)
        assert sorted(p.name for p in store.root.iterdir()) == sorted(
            store.path_for(r.key).name for r in (f1, ubsf)
        )
        assert store.path_for(f1.key).name == f"{f1.key}.run"
        assert len(store) == 2

    def test_last_record_per_key_wins(self, tmp_path):
        root = tmp_path / "runs"
        store = RunStore(root)
        store.put(make_record(wall_time=0.01))
        store.put(make_record(wall_time=0.99))
        assert RunStore(root).get(make_record().key).wall_time == 0.99

    def test_corrupt_line_reads_as_missing(self, tmp_path):
        """An edited record file fails its checksum and reads as missing.
        The name dates from the manifest layout, where a record was one
        line."""
        root = tmp_path / "runs"
        store = RunStore(root)
        record = make_record()
        store.put(record)
        path = store.path_for(record.key)
        blob = path.read_bytes()
        assert b'"m":8' in blob
        path.write_bytes(blob.replace(b'"m":8', b'"m":9'))
        reopened = RunStore(root)
        assert len(reopened) == 0
        assert reopened.corrupt_entries == 1

    def test_truncated_line_skipped(self, tmp_path):
        """A truncated record file reads as missing and the other keys
        still read.  The name dates from the manifest layout, where a
        record was one line."""
        root = tmp_path / "runs"
        store = RunStore(root)
        first, second = seeded(0), seeded(1)
        store.put(first)
        store.put(second)
        path = store.path_for(second.key)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        reopened = RunStore(root)
        assert len(reopened) == 1
        assert reopened.corrupt_entries == 1
        assert reopened.get(first.key) == first

    def test_put_after_torn_write_keeps_both_records(self, tmp_path):
        """A record file torn at any byte costs only its own key.  The
        name dates from the manifest layout, where a kill mid-append
        could cut the shared file inside the last record.  At every cut,
        the record stored before and a record put afterwards both read
        back, and putting the torn record again restores it."""
        root = tmp_path / "runs"
        first, second, third = seeded(0), seeded(1), seeded(2)
        store = RunStore(root)
        store.put(first)
        store.put(second)
        torn = store.path_for(second.key)
        full = torn.read_bytes()
        for cut in range(len(full)):
            torn.write_bytes(full[:cut])
            RunStore(root).put(third)
            reopened = RunStore(root)
            assert reopened.get(first.key) == first, cut
            assert reopened.get(third.key) == third, cut
            assert reopened.get(second.key) is None, cut
        store.put(second)
        assert RunStore(root).get(second.key) == second

    def test_checksum_covers_payload(self, tmp_path):
        """The frame's SHA-256 covers every payload byte: changing any
        one of them fails the read.  The name dates from the manifest
        layout, where each line carried a checksum of its payload."""
        path = tmp_path / "entry"
        payload = canonical_json(make_record().to_payload()).encode()
        written = framing.write_framed(path, b"MAGIC\n", payload)
        blob = path.read_bytes()
        assert written == len(blob)
        assert framing.read_framed(path, b"MAGIC\n") == payload
        for i in range(len(blob) - len(payload), len(blob)):
            flipped = blob[:i] + bytes([blob[i] ^ 0x20]) + blob[i + 1 :]
            path.write_bytes(flipped)
            assert framing.read_framed(path, b"MAGIC\n") is None, i

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


# ----------------------------------------------------------------------
# Fault injection: other writers, kills, corruption, hostile keys
# ----------------------------------------------------------------------
def _put_rounds(root: str, writer: int, keys: int, rounds: int, start) -> None:
    """Once every writer is up, put records at ``keys`` shared keys,
    tagged by ``writer``, again and again, from a different first key
    per writer.  Each put is read back while the others write: a reader
    must never meet a half-written file."""
    store = RunStore(root)
    start.wait(timeout=60)
    for _ in range(rounds):
        for i in range(keys):
            record = seeded((i + writer) % keys, wall_time=float(writer))
            store.put(record)
            assert store.get(record.key) is not None
    assert store.corrupt_entries == 0


def _put_killed_before_rename(root: str) -> None:
    """Put one record, SIGKILLed where the rename onto its path would run."""
    os.replace = lambda src, dst: os.kill(os.getpid(), signal.SIGKILL)
    RunStore(root).put(make_record())


def _run_in_spawned(targets) -> list:
    """Start one spawned process per ``(fn, args)``, all at once, and
    join each with a timeout; the finished processes."""
    ctx = multiprocessing.get_context("spawn")
    procs = [ctx.Process(target=fn, args=args) for fn, args in targets]
    try:
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert not proc.is_alive()
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.kill()
    return procs


def _flip(path, position: int) -> None:
    """Flip the low bit of one byte of a file."""
    blob = bytearray(path.read_bytes())
    blob[position] ^= 1
    path.write_bytes(bytes(blob))


class TestStoreFaults:
    def test_store_sees_another_writers_put(self, tmp_path):
        a = RunStore(tmp_path / "runs")
        b = RunStore(tmp_path / "runs")
        record = make_record()
        assert not a.has(record.key)
        b.put(record)
        assert a.get(record.key) == record
        assert a.keys() == [record.key]

    def test_concurrent_writers_on_overlapping_keys(self, tmp_path):
        root = tmp_path / "runs"
        writers, keys, rounds = max(4, (os.cpu_count() or 1) + 1), 12, 25
        start = multiprocessing.get_context("spawn").Barrier(writers)
        procs = _run_in_spawned(
            (_put_rounds, (str(root), w, keys, rounds, start))
            for w in range(writers)
        )
        assert [p.exitcode for p in procs] == [0] * writers
        store = RunStore(root)
        for i in range(keys):
            record = store.get(seeded(i).key)
            assert record is not None, i
            assert record.wall_time in range(writers)
            assert record == seeded(i, wall_time=record.wall_time)
        assert len(store) == keys
        assert store.corrupt_entries == 0
        assert list(root.glob("*.tmp")) == []

    def test_writer_killed_before_rename(self, tmp_path):
        root = tmp_path / "runs"
        survivor = seeded(1)
        RunStore(root).put(survivor)
        (child,) = _run_in_spawned([(_put_killed_before_rename, (str(root),))])
        assert child.exitcode == -signal.SIGKILL
        assert len(list(root.glob("*.tmp"))) == 1
        store = RunStore(root)
        record = make_record()
        assert not store.has(record.key)
        assert store.keys() == [survivor.key]
        assert len(store) == 1
        assert store.records() == [survivor]
        assert store.corrupt_entries == 0
        store.put(record)
        assert RunStore(root).get(record.key) == record

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        store = RunStore(tmp_path / "runs")
        record = make_record()
        monkeypatch.setattr(framing.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            store.put(record)
        monkeypatch.undo()
        assert list(store.root.iterdir()) == []
        assert not store.has(record.key)
        store.put(record)
        assert store.get(record.key) == record

    def test_truncation_at_every_offset_reads_as_missing(self, tmp_path):
        root = tmp_path / "runs"
        record, other = seeded(0), seeded(1)
        RunStore(root).put(record)
        RunStore(root).put(other)
        path = RunStore(root).path_for(record.key)
        full = path.read_bytes()
        for cut in range(len(full)):
            path.write_bytes(full[:cut])
            store = RunStore(root)
            assert not store.has(record.key), cut
            assert store.get(record.key) is None, cut
            assert store.corrupt_entries == 2, cut
            assert store.get(other.key) == other, cut
        RunStore(root).put(record)
        assert RunStore(root).get(record.key) == record

    def test_bit_flips_read_as_missing(self, tmp_path):
        root = tmp_path / "runs"
        record, other = seeded(0), seeded(1)
        store = RunStore(root)
        store.put(other)
        path = store.path_for(record.key)
        # In the magic, the digest, the key line, and the JSON payload.
        for position in (0, 8, 9, 40, 41, 104, 106, 300, -1):
            store.put(record)
            _flip(path, position)
            reader = RunStore(root)
            assert not reader.has(record.key), position
            assert reader.get(record.key) is None, position
            assert reader.corrupt_entries == 2, position
            assert reader.get(other.key) == other, position
            assert reader.keys() == [other.key], position
        store.put(record)
        assert RunStore(root).get(record.key) == record

    def test_other_schema_reads_as_missing(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        record = make_record()
        path = store.path_for(record.key)
        body = f"{record.key}\n{canonical_json(record.to_payload())}".encode()
        framing.write_framed(path, b"RPRORUN0\n", body)
        assert not store.has(record.key)
        assert store.corrupt_entries == 1
        store.put(record)
        assert store.get(record.key) == record

    def test_record_under_another_keys_name_reads_as_missing(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        record, other = seeded(0), seeded(1)
        store.put(record)
        store.path_for(other.key).write_bytes(
            store.path_for(record.key).read_bytes()
        )
        assert not store.has(other.key)
        assert store.get(other.key) is None
        assert store.corrupt_entries == 2
        assert store.keys() == [record.key]

    @pytest.mark.parametrize(
        "key",
        ["abc", "A" * 64, "a" * 63, "a" * 65, "../" + "a" * 61, "g" * 64, ""],
    )
    def test_put_rejects_malformed_key(self, tmp_path, key):
        store = RunStore(tmp_path / "runs")
        with pytest.raises(ValueError, match="64 lowercase hex"):
            store.put(make_record(key=key))
        assert not store.root.exists()

    def test_path_like_key_reads_as_missing(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        record = make_record()
        store.put(record)
        # A valid record file one level up must not be reachable by "../x".
        intact = store.path_for(record.key).read_bytes()
        (tmp_path / "x.run").write_bytes(intact)
        assert not store.has("../x")
        assert store.get("../x") is None
        assert store.corrupt_entries == 0


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
