"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_kwargs, main
from repro.runs import parse_value


class TestParsing:
    def test_parse_value_int(self):
        assert parse_value("12") == 12
        assert isinstance(parse_value("12"), int)

    def test_parse_value_float(self):
        assert parse_value("0.5") == 0.5

    def test_parse_value_string(self):
        assert parse_value("hello") == "hello"

    def test_parse_value_booleans(self):
        """Regression: 'true'/'false' parse to bools, not strings."""
        assert parse_value("true") is True
        assert parse_value("false") is False
        assert parse_value("True") is True
        assert parse_value("FALSE") is False

    def test_parse_value_none(self):
        """Regression: 'none' parses to None, not the string 'none'."""
        assert parse_value("none") is None
        assert parse_value("None") is None

    def test_parse_value_near_misses_stay_strings(self):
        assert parse_value("truely") == "truely"
        assert parse_value("nonempty") == "nonempty"

    def test_parse_kwargs_booleans(self):
        assert _parse_kwargs(["information=true"]) == {"information": True}

    def test_parse_kwargs(self):
        assert _parse_kwargs(["m=8", "k=2", "tag=x"]) == {"m": 8, "k": 2, "tag": "x"}

    def test_parse_kwargs_rejects_bare(self):
        with pytest.raises(SystemExit):
            _parse_kwargs(["m"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "T1b" in out and "F1" in out

    def test_run_with_overrides(self, capsys):
        assert main(["run", "F1", "--kw", "m=8", "k=2"]) == 0
        out = capsys.readouterr().out
        assert "[F1]" in out
        assert "ran in" in out

    def test_run_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["run", "NOPE"])

    def test_info(self, capsys):
        assert main(["info"]) == 0
        assert "PODC 2020" in capsys.readouterr().out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_executes_and_resumes(self, tmp_path, capsys):
        store = str(tmp_path / "runs")
        args = ["sweep", "F1", "--grid", "m=8,10", "--store", store]
        assert main(args + ["--max-points", "1"]) == 0
        out = capsys.readouterr().out
        assert "sweep F1: 2 points (grid m=8,10)" in out
        assert "executed 1, skipped 0, remaining 1" in out
        # Relaunch: the stored point is skipped, the missing one runs.
        assert main(args) == 0
        assert "executed 1, skipped 1, remaining 0" in capsys.readouterr().out
        # Third launch: everything stored, nothing re-executes.
        assert main(args) == 0
        assert "executed 0, skipped 2, remaining 0" in capsys.readouterr().out

    def test_sweep_trials_shorthand_conflict(self, tmp_path):
        with pytest.raises(SystemExit, match="trials"):
            main([
                "sweep", "T1b", "--grid", "trials=2,4", "--trials", "8",
                "--store", str(tmp_path / "runs"),
            ])

    def test_sweep_unknown_axis(self, tmp_path):
        with pytest.raises(ValueError, match="declared"):
            main([
                "sweep", "F1", "--grid", "bogus=1,2",
                "--store", str(tmp_path / "runs"),
            ])


class TestReportCommand:
    def test_report_from_store(self, tmp_path, capsys):
        store = str(tmp_path / "runs")
        out_md = str(tmp_path / "REPORT.md")
        args = ["report", "T1a", "F1", "--out", out_md, "--store", store]
        assert main(args) == 0
        assert "2 sections; 0 from store, 2 executed" in capsys.readouterr().out
        first = (tmp_path / "REPORT.md").read_text()
        assert "## T1a" in first and "## F1" in first
        # Regeneration serves both sections from the store, bit-for-bit.
        assert main(args) == 0
        assert "2 from store, 0 executed" in capsys.readouterr().out
        assert (tmp_path / "REPORT.md").read_text() == first


class TestRunsCommand:
    def _store_with_runs(self, tmp_path):
        from repro.runs import RunStore, execute_run

        store = RunStore(tmp_path / "runs")
        a = execute_run("F1", {"m": 8, "k": 2}, store=store).record
        b = execute_run("F1", {"m": 10, "k": 2}, store=store).record
        return str(store.root), a, b

    def test_runs_list(self, tmp_path, capsys):
        store, a, _ = self._store_with_runs(tmp_path)
        assert main(["runs", "list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert a.key[:12] in out and "experiment" in out

    def test_runs_show_by_prefix(self, tmp_path, capsys):
        store, a, _ = self._store_with_runs(tmp_path)
        assert main(["runs", "show", a.key[:10], "--store", store]) == 0
        out = capsys.readouterr().out
        assert a.key in out and "[F1]" in out

    def test_runs_diff(self, tmp_path, capsys):
        store, a, b = self._store_with_runs(tmp_path)
        assert main(
            ["runs", "diff", a.key[:10], b.key[:10], "--store", store]
        ) == 0
        assert "param m: 8 -> 10" in capsys.readouterr().out

    def test_runs_without_subcommand_prints_help(self, capsys):
        assert main(["runs"]) == 2
        assert "usage" in capsys.readouterr().out

    def test_run_with_store_records_and_reuses(self, tmp_path, capsys):
        store = str(tmp_path / "runs")
        args = ["run", "F1", "--kw", "m=8", "k=2", "--store", store]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "(recorded " in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "(stored record " in second


class TestProtocolRegistry:
    def test_available_protocols(self):
        from repro.protocols import available_protocols

        names = available_protocols()
        assert "sampled" in names and "mis-full" in names

    def test_make_protocol_specs(self):
        from repro.protocols import make_protocol

        assert make_protocol("full").name == "full-neighborhood-matching"
        assert make_protocol("sampled:3").name == "sampled-edges-matching(3)"
        assert make_protocol("hybrid:3,2").name == "hybrid-matching(3,2)"

    def test_make_protocol_rejects_unknown(self):
        from repro.protocols import make_protocol

        with pytest.raises(ValueError):
            make_protocol("nope")

    def test_make_protocol_rejects_bad_arity(self):
        from repro.protocols import make_protocol

        with pytest.raises(ValueError):
            make_protocol("sampled")
        with pytest.raises(ValueError):
            make_protocol("full:3")

    def test_is_mis_spec(self):
        from repro.protocols import is_mis_spec

        assert is_mis_spec("mis-sampled:1")
        assert not is_mis_spec("sampled:1")


class TestAttackCommand:
    def test_attack_matching(self, capsys):
        assert main(["attack", "sampled:2", "--m", "8", "--k", "2", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "strict" in out and "sampled-edges-matching(2)" in out

    def test_attack_mis(self, capsys):
        assert main(["attack", "mis-full", "--m", "8", "--k", "2", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "full-neighborhood-mis" in out
        assert "strict       : 1.00" in out


class TestJsonOutput:
    def test_run_json(self, capsys):
        import json

        assert main(["run", "XCC", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "XCC"
        assert payload["data"]["rows"]


class TestEngineFlags:
    def test_run_with_workers(self, capsys):
        assert main(["run", "F1", "--kw", "m=8", "k=2", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "backend process-pool(2, fixed)" in out

    def test_run_serial_summary(self, capsys, monkeypatch):
        # The no-flag default is serial; an inherited REPRO_WORKERS
        # would replace it.
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert main(["run", "F1", "--kw", "m=8", "k=2"]) == 0
        out = capsys.readouterr().out
        assert "backend serial" in out
        assert "cache" in out

    def test_run_no_cache(self, capsys):
        assert main(["run", "F1", "--kw", "m=8", "k=2", "--no-cache"]) == 0
        assert "cache off" in capsys.readouterr().out

    def test_run_cache_dir_persists(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["run", "F1", "--kw", "m=8", "k=2", "--cache-dir", cache_dir]
        ) == 0
        first = capsys.readouterr().out
        assert list((tmp_path / "cache").glob("*.pkl"))
        # A second run loads the constructions from disk: all hits.
        assert main(
            ["run", "F1", "--kw", "m=8", "k=2", "--cache-dir", cache_dir]
        ) == 0
        second = capsys.readouterr().out
        assert "0 misses" in second
        # Outputs identical either way — only the cache line may differ.
        strip = lambda s: [l for l in s.splitlines() if "ran in" not in l]
        assert strip(first) == strip(second)

    def test_attack_with_workers_matches_serial(self, capsys):
        args = ["attack", "sampled:1", "--m", "8", "--k", "2", "--trials", "4"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        strip = lambda s: [
            l for l in s.splitlines() if not l.startswith("(ran in")
        ]
        assert strip(serial_out) == strip(parallel_out)

    def test_invalid_workers_rejected(self, capsys):
        for bad in ("0", "abc", ""):
            with pytest.raises(SystemExit) as exc:
                main(["run", "F1", "--workers", bad])
            assert exc.value.code == 2
        assert "positive" in capsys.readouterr().err
