"""Tests for grid expansion and the resumable sweep orchestrator."""

import pytest

from repro.engine import ExecutionEngine
from repro.runs import RunStore, expand_grid, plan_sweep, run_sweep
from repro.runs import sweep as sweep_module


class TestExpandGrid:
    def test_cartesian_product_deterministic(self):
        points = expand_grid({"k": [2, 4], "m": [8, 12]})
        assert points == [
            {"k": 2, "m": 8},
            {"k": 2, "m": 12},
            {"k": 4, "m": 8},
            {"k": 4, "m": 12},
        ]

    def test_empty_grid_is_one_point(self):
        assert expand_grid({}) == [{}]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            expand_grid({"m": []})


class TestPlanSweep:
    def test_points_are_content_addressed(self):
        points = plan_sweep("F1", {"m": [8, 10]}, {"k": 2})
        assert len(points) == 2
        assert len({p.key for p in points}) == 2
        assert all(p.overrides["k"] == 2 for p in points)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="declared"):
            plan_sweep("F1", {"bogus": [1]})

    def test_unsweepable_axis_rejected(self):
        with pytest.raises(ValueError, match="not sweepable"):
            plan_sweep("T1a", {"ns": [[10]]})

    def test_axis_set_overlap_rejected(self):
        with pytest.raises(ValueError, match="axis and --set"):
            plan_sweep("F1", {"m": [8]}, {"m": 10})

    def test_grid_values_coerced(self):
        with pytest.raises(ValueError, match="expected int"):
            plan_sweep("F1", {"m": ["eight"]})


class TestResume:
    """The acceptance property: relaunching re-executes only missing points."""

    GRID = {"m": [8, 10], "k": [2, 3]}  # 4 points

    def _counting(self, monkeypatch):
        """Count actual per-point executions (serial engine: countable)."""
        counter = {"executed": 0}
        real = sweep_module._execute_point

        def counted(task):
            counter["executed"] += 1
            return real(task)

        monkeypatch.setattr(sweep_module, "_execute_point", counted)
        return counter

    def _serial(self):
        """An explicitly serial engine so the counter wrapper stays local."""
        return ExecutionEngine(workers=None)

    def test_interrupted_sweep_resumes_without_rework(self, tmp_path, monkeypatch):
        counter = self._counting(monkeypatch)
        store = RunStore(tmp_path / "runs")

        # First launch dies after 1 of 4 points (max_points simulates the kill).
        first = run_sweep(
            "F1", self.GRID, store=store, engine=self._serial(), max_points=1
        )
        assert len(first.points) == 4
        assert len(first.executed) == 1
        assert len(first.skipped) == 0
        assert len(first.remaining) == 3
        assert counter["executed"] == 1

        # Relaunch with the same grid: only the 3 missing points run.
        second = run_sweep("F1", self.GRID, store=store, engine=self._serial())
        assert len(second.executed) == 3
        assert len(second.skipped) == 1
        assert len(second.remaining) == 0
        assert counter["executed"] == 4
        assert set(second.skipped) == set(first.executed)

        # A third launch finds everything stored: zero re-executed points.
        third = run_sweep("F1", self.GRID, store=store, engine=self._serial())
        assert len(third.executed) == 0
        assert len(third.skipped) == 4
        assert counter["executed"] == 4

    def test_resume_across_store_reopen(self, tmp_path, monkeypatch):
        counter = self._counting(monkeypatch)
        root = tmp_path / "runs"
        run_sweep(
            "F1", self.GRID, store=RunStore(root), engine=self._serial(),
            max_points=2,
        )
        assert counter["executed"] == 2
        result = run_sweep(
            "F1", self.GRID, store=RunStore(root), engine=self._serial()
        )
        assert len(result.executed) == 2
        assert len(result.skipped) == 2
        assert counter["executed"] == 4

    def test_corrupt_point_is_re_executed(self, tmp_path, monkeypatch):
        counter = self._counting(monkeypatch)
        root = tmp_path / "runs"
        first = run_sweep(
            "F1", self.GRID, store=RunStore(root), engine=self._serial()
        )
        assert counter["executed"] == 4
        victim = first.executed[2]
        path = RunStore(root).path_for(victim)
        path.write_bytes(path.read_bytes()[:-1])
        again = run_sweep(
            "F1", self.GRID, store=RunStore(root), engine=self._serial()
        )
        assert again.executed == (victim,)
        assert set(again.skipped) == set(first.executed) - {victim}
        assert counter["executed"] == 5
        assert RunStore(root).has(victim)

    def test_each_point_asked_once(self, tmp_path, monkeypatch):
        # As if another writer stored every point right after this sweep
        # first asked for it: a second ask would say "stored".
        store = RunStore(tmp_path / "runs")
        asked = set()

        def has(key):
            seen = key in asked
            asked.add(key)
            return seen

        monkeypatch.setattr(store, "has", has)
        result = run_sweep(
            "F1", self.GRID, store=store, engine=self._serial(), max_points=1
        )
        parts = result.executed + result.skipped + result.remaining
        assert sorted(parts) == sorted(p.key for p in result.points)
        assert len(result.executed) == 1 and len(result.remaining) == 3

    def test_summary_line(self, tmp_path):
        result = run_sweep(
            "F1", {"m": [8]}, store=RunStore(tmp_path / "runs"),
            engine=ExecutionEngine(),
        )
        assert result.summary() == "executed 1, skipped 0, remaining 0"


class TestSweepRecords:
    def test_records_match_direct_execution(self, tmp_path):
        from repro.runs import execute_run

        store = RunStore(tmp_path / "runs")
        result = run_sweep("F1", {"m": [8]}, {"k": 2}, store=store)
        record = store.get(result.executed[0])
        direct = execute_run("F1", {"m": 8, "k": 2}).record
        assert record.key == direct.key
        assert record.lines == direct.lines
        assert record.data == direct.data

    def test_parallel_dispatch_matches_serial(self, tmp_path):
        serial_store = RunStore(tmp_path / "serial")
        pool_store = RunStore(tmp_path / "pool")
        grid = {"m": [8, 10]}
        run_sweep("F1", grid, store=serial_store)
        engine = ExecutionEngine(workers=2)
        try:
            run_sweep("F1", grid, store=pool_store, engine=engine)
        finally:
            engine.close()
        assert serial_store.keys() == pool_store.keys()
        for key in serial_store.keys():
            assert serial_store.get(key).data == pool_store.get(key).data
            assert serial_store.get(key).lines == pool_store.get(key).lines
