"""Run-pipeline micro-bench: store throughput and dispatch overhead.

Times the ``repro.runs`` layer's hot paths:

* store write throughput: ``RunStore.put`` of realistic records
  (checksum framing + atomic rename, one file per record);
* store lookup throughput: ``get`` on an open store and on a freshly
  opened one (each reads and verifies one record file; the store keeps
  no index, so the two cost the same);
* sweep-dispatch overhead: ``run_sweep`` over an already-stored grid
  (pure skip path) and ``execute_run`` reuse vs a bare
  ``run_experiment`` call — the per-run tax of content addressing;
* key derivation: ``run_key`` over resolved parameter dicts.

Two entry points:

* ``pytest benchmarks/bench_runs.py --benchmark-only`` — the usual
  pytest-benchmark harness (part of ``make bench``);
* ``python benchmarks/bench_runs.py [--out BENCH_runs.json]`` — smoke
  mode: runs every section with ``time.perf_counter``, prints a table,
  and emits a JSON artifact seeding the perf trajectory.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.runs import RunRecord, RunStore, execute_run, run_key, run_sweep

#: The benchmark workload: a small F1 grid (sub-millisecond per run).
_GRID = {"m": [8, 10], "k": [2, 3]}
_PARAMS = {"m": 8, "k": 2, "seed": 0}
_N_RECORDS = 200


def _record(i: int) -> RunRecord:
    """A realistic synthetic record (distinct key per ``i``)."""
    params = {"m": 8, "k": 2, "seed": i}
    return RunRecord(
        key=run_key("F1", params, seed=i),
        experiment_id="F1",
        title="Hard distribution D_MM (Figure 1)",
        params=params,
        seed=i,
        exact=False,
        engine={"backend": "serial"},
        version="1.0.0",
        wall_time=0.01,
        cache_hits=3,
        cache_misses=1,
        lines=tuple(f"row {j}: value {i * j}" for j in range(20)),
        data={"rows": [[i, j, i * j] for j in range(20)]},
        created=1_700_000_000.0 + i,
    )


_RECORDS = [_record(i) for i in range(_N_RECORDS)]


def _fresh_root() -> Path:
    return Path(tempfile.mkdtemp(prefix="bench_runs_"))


def _write_records(root: Path) -> RunStore:
    store = RunStore(root)
    for record in _RECORDS:
        store.put(record)
    return store


def _warm_lookups(store: RunStore) -> int:
    hits = 0
    for record in _RECORDS:
        hits += store.get(record.key).seed == record.seed
    return hits


def _cold_reopen_lookup(root: Path) -> RunRecord:
    return RunStore(root).get(_RECORDS[0].key)


def _key_derivation() -> str:
    return run_key("F1", _PARAMS, seed=0)


def _bare_run():
    from repro.experiments import run_experiment

    return run_experiment("F1", **_PARAMS)


def _stored_reuse(store: RunStore):
    return execute_run("F1", _PARAMS, store=store)


def _skip_only_sweep(store: RunStore):
    return run_sweep("F1", _GRID, store=store)


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------


def test_bench_store_writes(benchmark, tmp_path):
    """Write _N_RECORDS checksum-framed record files into a fresh root."""
    counter = {"i": 0}

    def setup():
        counter["i"] += 1
        return (tmp_path / f"w{counter['i']}",), {}

    store = benchmark.pedantic(_write_records, setup=setup, rounds=10)
    assert len(store) == _N_RECORDS


def test_bench_store_warm_lookups(benchmark, tmp_path):
    store = _write_records(tmp_path / "runs")
    assert benchmark(_warm_lookups, store) == _N_RECORDS


def test_bench_store_cold_reopen(benchmark, tmp_path):
    _write_records(tmp_path / "runs")
    record = benchmark(_cold_reopen_lookup, tmp_path / "runs")
    assert record.experiment_id == "F1"


def test_bench_run_key(benchmark):
    assert len(benchmark(_key_derivation)) == 64


def test_bench_bare_run_baseline(benchmark):
    report = benchmark(_bare_run)
    assert report.experiment_id == "F1"


def test_bench_stored_reuse(benchmark, tmp_path):
    store = RunStore(tmp_path / "runs")
    _stored_reuse(store)  # record once
    outcome = benchmark(_stored_reuse, store)
    assert outcome.cached


def test_bench_skip_only_sweep(benchmark, tmp_path):
    store = RunStore(tmp_path / "runs")
    _skip_only_sweep(store)  # fill the grid
    result = benchmark(_skip_only_sweep, store)
    assert len(result.skipped) == 4 and not result.executed


# ----------------------------------------------------------------------
# Smoke-mode runner (CI artifact)
# ----------------------------------------------------------------------


def _time_ops(fn, *args, min_seconds: float = 0.3) -> float:
    """Run ``fn`` repeatedly for >= min_seconds; return seconds/call."""
    fn(*args)  # warm up
    calls = 0
    start = time.perf_counter()
    while True:
        fn(*args)
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / calls


def run_smoke() -> dict:
    """Time every section; returns the JSON-ready report dict."""
    roots: list[Path] = []

    def fresh_write():
        root = _fresh_root()
        roots.append(root)
        return _write_records(root)

    sections: dict = {}
    try:
        write_s = _time_ops(fresh_write)
        sections["store_write"] = {
            "records": _N_RECORDS,
            "records_per_s": _N_RECORDS / write_s,
        }

        root = _fresh_root()
        roots.append(root)
        store = _write_records(root)
        warm_s = _time_ops(_warm_lookups, store)
        cold_s = _time_ops(_cold_reopen_lookup, root)
        sections["store_lookup"] = {
            "records": _N_RECORDS,
            "warm_lookups_per_s": _N_RECORDS / warm_s,
            "cold_reopens_per_s": 1 / cold_s,
        }
        sections["run_key"] = {"keys_per_s": 1 / _time_ops(_key_derivation)}

        bare_s = _time_ops(_bare_run)
        reuse_root = _fresh_root()
        roots.append(reuse_root)
        reuse_store = RunStore(reuse_root)
        _stored_reuse(reuse_store)
        reuse_s = _time_ops(_stored_reuse, reuse_store)
        _skip_only_sweep(reuse_store)
        sweep_s = _time_ops(_skip_only_sweep, reuse_store)
        sections["dispatch_overhead"] = {
            "bare_run_s": bare_s,
            "stored_reuse_s": reuse_s,
            "reuse_vs_bare": reuse_s / bare_s,
            "skip_only_sweep_s": sweep_s,
            "skipped_points_per_s": 4 / sweep_s,
        }
    finally:
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)
    return {
        "unit": "operations per second (per-call seconds where noted)",
        "workload": {"records": _N_RECORDS, "grid_points": 4},
        "sections": sections,
    }


def main(argv: list[str]) -> int:
    """Smoke entry point: print the table, optionally write the JSON."""
    out = None
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
    report = run_smoke()
    s = report["sections"]
    print(
        f"store_write            {s['store_write']['records_per_s']:>12.0f} records/s"
    )
    print(
        f"store_lookup (warm)    {s['store_lookup']['warm_lookups_per_s']:>12.0f} lookups/s"
    )
    print(
        f"store_reopen (cold)    {s['store_lookup']['cold_reopens_per_s']:>12.2f} reopens/s"
    )
    print(f"run_key                {s['run_key']['keys_per_s']:>12.0f} keys/s")
    d = s["dispatch_overhead"]
    print(
        f"dispatch: bare run {d['bare_run_s'] * 1e3:.2f}ms, stored reuse "
        f"{d['stored_reuse_s'] * 1e3:.2f}ms ({d['reuse_vs_bare']:.2f}x), "
        f"skip-only sweep {d['skipped_points_per_s']:.0f} points/s"
    )
    if out is not None:
        out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
