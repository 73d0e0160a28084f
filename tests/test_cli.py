"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_kwargs, main
from repro.experiments import Experiment
from repro.obs import validate_chrome_trace
from repro.runs import parse_value


def _refuse_to_run(monkeypatch):
    """Make any experiment run fail the test."""

    def refuse(self, **kwargs):
        raise AssertionError(f"{self.experiment_id} ran")

    monkeypatch.setattr(Experiment, "run", refuse)


def _without_timings(text: str) -> list[str]:
    return [line for line in text.splitlines() if "ran in" not in line]


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

    def test_run_unknown_experiment(self, capsys):
        """A usage error naming the known ids, not a ``KeyError``."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "NOPE"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'NOPE'" in err and "'T1b'" in err

    def test_info(self, capsys):
        assert main(["info"]) == 0
        assert "PODC 2020" in capsys.readouterr().out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out


class TestRunAllCommand:
    def test_subset_prints_what_run_prints(self, capsys):
        assert main(["run-all", "F1", "P21"]) == 0
        out = capsys.readouterr().out
        assert "[F1] (ran in" in out and "[P21] (ran in" in out
        assert main(["run", "F1"]) == 0
        single = capsys.readouterr().out
        assert _without_timings(out)[: len(_without_timings(single))] == (
            _without_timings(single)
        )

    def test_second_stored_run_executes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        args = ["run-all", "F1", "P21", "--store", str(tmp_path / "runs")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "[F1] (recorded" in first and "[P21] (recorded" in first
        _refuse_to_run(monkeypatch)
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "[F1] (stored record" in second
        assert "[P21] (stored record" in second
        assert _without_timings(first) == _without_timings(second)

    def test_trace_exports_a_valid_chrome_trace(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert main(["run-all", "F1", "P21", "--trace", str(out_path)]) == 0
        assert "(trace:" in capsys.readouterr().out
        info = validate_chrome_trace(out_path)
        assert info["events"] > 0

    def test_unknown_id_is_a_usage_error(self, capsys, monkeypatch):
        _refuse_to_run(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(["run-all", "F1", "NOPE"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown experiment 'NOPE'" in captured.err
        assert "'F1'" in captured.err


class TestUnknownIds:
    """Every command that names experiments refuses an unknown id with a
    usage error, before anything runs or any store is opened."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "NOPE"],
            ["sweep", "NOPE", "--grid", "m=8"],
            ["report", "F1", "NOPE"],
        ],
        ids=["trace", "sweep", "report"],
    )
    def test_unknown_id_is_a_usage_error(self, argv, tmp_path, capsys, monkeypatch):
        _refuse_to_run(monkeypatch)
        store = tmp_path / "runs"
        if argv[0] != "trace":
            argv = [*argv, "--store", str(store)]
        if argv[0] == "report":
            argv = [*argv, "--out", str(tmp_path / "REPORT.md")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown experiment 'NOPE'; known: " in captured.err
        assert "'F1'" in captured.err and "'T1b'" in captured.err
        assert list(tmp_path.iterdir()) == []


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

    def test_sweep_prints_each_points_verdicts(self, tmp_path, capsys):
        """One line per point: axis values and N of M checks held on the
        stored record, naming a failed check; deferred points read
        ``not run``."""
        import dataclasses

        from repro.experiments import get_experiment
        from repro.runs import RunStore

        store = str(tmp_path / "runs")
        args = ["sweep", "F1", "--grid", "m=8,10", "--store", store]
        total = len(get_experiment("F1").checks)
        assert main(args + ["--max-points", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:3] == [f"  m=8: {total} of {total} held", "  m=10: not run"]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:3] == [
            f"  m=8: {total} of {total} held",
            f"  m=10: {total} of {total} held",
        ]
        # Break one claim in the stored m=10 record: the relaunch executes
        # nothing and names the failed check.
        runs = RunStore(store)
        record = next(r for r in runs.records("F1") if r.params["m"] == 10)
        kr = record.data["k"] * record.data["r"]
        runs.put(dataclasses.replace(
            record, data=dict(record.data, union_special_size=kr + 1)
        ))
        assert main(args) == 0
        out = capsys.readouterr().out
        assert (
            f"  m=10: {total - 1} of {total} held; FAILED special_union_at_most_kr"
            in out.splitlines()
        )
        assert "executed 0, skipped 2, remaining 0" in out

    def test_sweep_trials_shorthand_conflict(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", "T1b", "--grid", "trials=2,4", "--trials", "8",
                "--store", str(tmp_path / "runs"),
            ])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "repro: error: --trials conflicts with a trials axis/--set\n"
        )

    def test_sweep_unknown_axis(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", "F1", "--grid", "bogus=1,2",
                "--store", str(tmp_path / "runs"),
            ])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "repro: error: F1: unknown param 'bogus'; declared: ['m', 'k', 'seed']\n"
        )


class TestOverrides:
    """A malformed experiment override is a usage error: exit 2, one
    ``repro: error:`` line, nothing on stdout, before anything runs or
    any store is opened."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "F1", "--kw", "m=abc"], "F1: param 'm': expected int, got 'abc'"),
            (["run", "F1", "--kw", "nope=3"], "F1: unknown param 'nope'; declared: "),
            (["run", "F1", "--kw", "m"], "expected key=value, got 'm'"),
            (["trace", "F1", "--kw", "m=abc"], "F1: param 'm': expected int, got 'abc'"),
            (["sweep", "F1", "--grid", "nope=1"], "F1: unknown param 'nope'; declared: "),
            (["sweep", "F1", "--grid", "m=8,x"], "F1: param 'm': expected int, got 'x'"),
            (["sweep", "F1", "--grid", "m=8", "--set", "zz=1"],
             "F1: unknown param 'zz'; declared: "),
            (["sweep", "F1", "--grid", "m="], "empty grid axis 'm'"),
            (["sweep", "T1b", "--grid", "trials=2,4", "--trials", "8"],
             "--trials conflicts with a trials axis/--set"),
            (["run", "C31", "--kw", "configs=x"],
             "C31: param 'configs' takes a Python object, not a command-line value"),
            (["trace", "C31", "--kw", "configs=x"],
             "C31: param 'configs' takes a Python object, not a command-line value"),
            (["sweep", "C31", "--grid", "seed=0", "--set", "configs=x"],
             "C31: param 'configs' takes a Python object, not a command-line value"),
            (["sweep", "C31", "--grid", "configs=x"],
             "C31: param 'configs' is not sweepable"),
        ],
        ids=[
            "run-mistyped", "run-unknown", "run-bare", "trace-mistyped",
            "sweep-unknown-axis", "sweep-mistyped-axis", "sweep-unknown-set",
            "sweep-empty-axis", "sweep-trials-conflict", "run-object",
            "trace-object", "sweep-object-set", "sweep-object-axis",
        ],
    )
    def test_malformed_override_is_a_usage_error(
        self, argv, message, tmp_path, capsys, monkeypatch
    ):
        _refuse_to_run(monkeypatch)
        if argv[0] == "sweep":
            argv = [*argv, "--store", str(tmp_path / "runs")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("repro: error: " + message)
        assert list(tmp_path.iterdir()) == []


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
        # Each argument is one or more ASCII digits: an empty one is an
        # error, not dropped.
        for spec in (
            "sampled:9,,",
            "sampled:2,",
            "sampled:,2",
            "hybrid:3,,2",
            "sampled:x",
            "sampled:-1",
            "sampled: 2",
            "sampled:\u0662",
            "full:",
        ):
            with pytest.raises(ValueError):
                make_protocol(spec)

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

    @pytest.mark.parametrize(
        "spec", ["nope", "sampled", "sampled:x", "sampled:2,", "hybrid:3,,2"]
    )
    def test_bad_spec_is_a_usage_error(self, spec, capsys, monkeypatch):
        import repro.lowerbound

        def refuse(**kwargs):
            raise AssertionError("the distribution was built")

        monkeypatch.setattr(repro.lowerbound, "scaled_distribution", refuse)
        with pytest.raises(SystemExit) as exc:
            main(["attack", spec, "--m", "8", "--k", "2", "--trials", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("repro: error: ")


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

    @pytest.mark.parametrize("raw", ["0", "-3", "abc"])
    @pytest.mark.parametrize("command", ["run", "run-all"])
    def test_malformed_repro_workers_is_a_usage_error(
        self, command, raw, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        _refuse_to_run(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main([command, "F1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"repro: error: REPRO_WORKERS={raw!r}: ")
        assert "positive" in err[0]

    def test_workers_flag_overrides_a_malformed_repro_workers(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        assert main(["run", "F1", "--kw", "m=8", "k=2", "--workers", "2"]) == 0
        assert "backend process-pool(2, fixed)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "raw, policy",
        [("2", "backend process-pool(2, fixed)"), ("auto", ", auto);")],
    )
    def test_valid_repro_workers_is_accepted(
        self, raw, policy, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        assert main(["run", "F1", "--kw", "m=8", "k=2"]) == 0
        assert policy in capsys.readouterr().out
