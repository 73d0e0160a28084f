"""Unit tests for the benchmark harness and the comparison script.

    PYTHONPATH=src python -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import signal
import statistics
import sys
import time
import types

import pytest

import compare
import harness
from harness import Boundary, BoundaryTimer, check_samples, digest, summarize, tail

if str(harness.SRC) not in sys.path:
    sys.path.insert(0, str(harness.SRC))


# ----------------------------------------------------------------------
# Quartiles and the tail rule
# ----------------------------------------------------------------------
def test_summarize_matches_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    s = summarize(values)
    q1, median, q3 = statistics.quantiles(sorted(values), n=4)
    assert (s["q1"], s["median"], s["q3"]) == (q1, median, q3)
    assert (s["min"], s["max"], s["n"]) == (1.0, 9.0, 7)
    assert s["values"] == values


def test_summarize_single_value():
    s = summarize([2.5])
    assert (s["q1"], s["median"], s["q3"], s["n"]) == (2.5, 2.5, 2.5, 1)


@pytest.mark.parametrize(
    "n, label",
    [(99, None), (100, "p90"), (999, "p90"), (1000, "p99"), (9999, "p99"), (10000, "p99.9")],
)
def test_tail_is_highest_percentile_with_ten_values_beyond(n, label):
    values = list(range(n, 0, -1))  # each value equals its rank
    found = tail(values)
    if label is None:
        assert found is None
        return
    assert found[0] == label
    assert n - found[1] >= 10


# ----------------------------------------------------------------------
# Boundary timing: self time and patching
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(time, "perf_counter", fake)
    return fake


@pytest.fixture
def fakepkg(monkeypatch, clock):
    """``fakepkg.lib`` with two functions and a class, aliased in ``user``."""
    lib = types.ModuleType("fakepkg.lib")

    def inner():
        clock.advance(2.0)

    def helper():  # not a boundary: counts toward its caller
        clock.advance(0.25)

    def outer():
        clock.advance(1.0)
        lib.inner()
        helper()
        clock.advance(2.75)

    class Box:
        def work(self):
            clock.advance(0.5)
            lib.inner()

    lib.inner, lib.outer, lib.Box = inner, outer, Box
    user = types.ModuleType("fakepkg.user")
    user.inner = inner  # as ``from fakepkg.lib import inner`` binds it
    for module in (types.ModuleType("fakepkg"), lib, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return lib, user


FAKE_BOUNDARIES = (
    Boundary("lib", "fakepkg.lib", "outer"),
    Boundary("lib", "fakepkg.lib", "inner", tail=True),
    Boundary("lib", "fakepkg.lib", "Box.work"),
)


def test_self_time_excludes_nested_boundaries(fakepkg):
    lib, _ = fakepkg
    with BoundaryTimer(FAKE_BOUNDARIES, package="fakepkg") as timer:
        lib.outer()
        lib.Box().work()
    m = timer.metrics(wall_s=10.0)
    assert (m["lib.outer.calls"], m["lib.outer.total_s"], m["lib.outer.self_s"]) == (1, 6.0, 4.0)
    assert (m["lib.inner.calls"], m["lib.inner.total_s"], m["lib.inner.self_s"]) == (2, 4.0, 4.0)
    assert (m["lib.Box.work.total_s"], m["lib.Box.work.self_s"]) == (2.5, 0.5)
    assert m["lib.inner.p50_us"] == 2e6
    assert "lib.inner.tail_us" not in m  # two calls: no percentile qualifies
    assert m["other.self_s"] == 10.0 - 8.5


def test_aliases_are_patched_and_every_original_restored(fakepkg, monkeypatch):
    lib, user = fakepkg
    inner, outer = lib.inner, lib.outer
    work = lib.Box.__dict__["work"]
    late = types.ModuleType("fakepkg.late")
    with BoundaryTimer(FAKE_BOUNDARIES, package="fakepkg") as timer:
        assert user.inner is lib.inner is not inner
        user.inner()
        # A module imported while the patch is on binds the wrapper.
        late.inner = lib.inner
        monkeypatch.setitem(sys.modules, "fakepkg.late", late)
    assert timer.stats["lib.inner"].calls == 1
    assert lib.inner is inner and user.inner is inner and late.inner is inner
    assert lib.outer is outer
    assert lib.Box.__dict__["work"] is work


def _repro_attributes() -> dict:
    return {
        (name, key): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
        for key, value in vars(module).items()
    }


def test_no_wrapper_survives_a_traced_sample():
    import repro.arithmetic
    import repro.experiments  # noqa: F401  (loads every experiment module)
    from repro.graphs.graph import Graph

    before = _repro_attributes()
    freeze = Graph.__dict__["freeze"]
    with BoundaryTimer() as timer:
        repro.arithmetic.behrend_set(10)  # through the package's re-export
        Graph().freeze()
    assert timer.stats["arithmetic.behrend_set"].calls == 1
    assert timer.stats["graphs.Graph.freeze"].calls == 1
    after = _repro_attributes()
    assert [k for k, v in before.items() if after[k] is not v] == []
    assert Graph.__dict__["freeze"] is freeze


# ----------------------------------------------------------------------
# Speed calibration
# ----------------------------------------------------------------------
def test_reference_kernel_is_deterministic():
    assert harness.reference_kernel() == harness.reference_kernel()


def test_reference_startup_imports_only_the_standard_library():
    assert 0 < harness.reference_startup() < harness.CHILD_TIMEOUT_S


def _busy(cpu_seconds: float) -> None:
    end = time.process_time() + cpu_seconds
    while time.process_time() < end:
        pass


def test_speed_sampling_runs_the_kernel_on_cpu_time_and_stops_the_clock():
    sample = harness.Sample()
    with sample.sampling_speed():
        raw_start, start = time.perf_counter(), sample.clock()
        _busy(20 * harness.CAL_INTERVAL_S)
        elapsed = sample.clock() - start
        raw = time.perf_counter() - raw_start
    assert len(sample.cal_walls) == len(sample.cal_cpus) >= 5
    assert raw - elapsed == pytest.approx(sum(sample.cal_walls), abs=1e-3)
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL


def test_speed_sampling_measures_a_pass_shorter_than_one_interval():
    sample = harness.Sample()
    with sample.sampling_speed():
        pass
    assert len(sample.cal_walls) == 1


def test_e2e_values_are_scaled_to_reference_speed():
    ref = harness.CAL_REFERENCE_S
    sample = {
        "setup_s": 0.5, "wall_s": 4.0, "cpu_s": 3.0, "peak_rss_mb": 40.0,
        "startup_ref_s": 4 * harness.STARTUP_REFERENCE_S,
        "cal_wall_s": 2 * ref, "cal_cpu_s": 3 * ref,  # a host at half speed
        "phases": {"sweep_read_s": 1.0}, "experiments": {"T1b": 2.0},
    }
    v = harness.e2e_values(sample)
    assert (v["setup_s"], v["wall_s"], v["cpu_s"]) == (0.125, 2.0, 1.0)
    assert (v["sweep_read_s"], v["experiments.T1b.s"]) == (0.5, 1.0)
    assert v["peak_rss_mb"] == 40.0
    assert (v["measured.wall_s"], v["measured.cal_wall_s"]) == (4.0, 2 * ref)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def test_digest_masks_only_wall_clock_keys():
    row = {"kernel": "table", "seconds": 0.1, "speedup_vs_reference": 3.0, "h": 1.5}
    slower = dict(row, seconds=9.9, speedup_vs_reference=1.0)
    changed = dict(row, h=1.25)
    assert digest({"rows": [row]}) == digest({"rows": [slower]})
    assert digest({"rows": [row]}) != digest({"rows": [changed]})
    assert digest({"a": 1, "b": (2, 3)}) == digest({"b": [2, 3], "a": 1})


def test_check_samples_counts_mismatches_and_errors():
    good = {"digests": {"T1b": "aa"}, "checks": {"cold": True}}
    samples = [
        good,
        good,
        {"digests": {"T1b": "bb"}, "checks": {"cold": False}},
        {"error": "boom"},
    ]
    pinned = {"dmm_trials": {"T1b": "aa"}}
    unpinned = check_samples("dmm_trials", 1, samples, {"dmm_trials": {"T1b": "zz"}})
    assert (unpinned["attempted"], unpinned["failed"]) == (7, 3)
    assert check_samples("dmm_trials", 0, samples[:2], pinned)["failed"] == 0
    assert check_samples("dmm_trials", 0, samples[:2], {"dmm_trials": {"T1b": "zz"}})["failed"] == 2
    missing = check_samples("dmm_trials", 0, [good], {"dmm_trials": {"T1b": "aa", "T2": "cc"}})
    assert missing["failed"] == 1


# ----------------------------------------------------------------------
# Compare verdicts
# ----------------------------------------------------------------------
def s(*values):
    return summarize(values)


BASE = s(1.00, 1.01, 0.99, 1.00, 1.02)


@pytest.mark.parametrize(
    "cand, better, expected",
    [
        (s(1.01, 1.00, 1.02, 0.99, 1.00), "lower", "same"),
        (s(1.20, 1.21, 1.19, 1.20, 1.22), "lower", "worse"),
        (s(0.80, 0.81, 0.79, 0.80, 0.82), "lower", "better"),
        (s(1.20, 1.21, 1.19, 1.20, 1.22), "higher", "better"),
        (s(0.80, 1.20, 1.00, 0.90, 1.10), "lower", "unresolved"),
    ],
)
def test_verdicts(cand, better, expected):
    assert compare.verdict(BASE, cand, better, 0.05) == expected


def test_wide_spread_resolves_when_one_side_wins_every_sample():
    slow = s(2.0, 2.6, 2.2, 2.4, 2.8)
    fast = s(1.0, 1.6, 1.2, 1.4, 1.8)
    assert compare.verdict(slow, fast, "lower", 0.05) == "better"
    assert compare.verdict(fast, slow, "lower", 0.05) == "worse"


def test_compare_flags_a_rise_in_failures():
    def result(failed):
        e2e = {"wall_s": BASE}
        return {"workloads": {"report": {"e2e": e2e, "attempted": 10, "failed": failed}}}

    rows = {(w, m): v for w, m, v, *_ in compare.compare(result(0), result(1))}
    assert rows[("report", "wall_s")] == "same"
    assert rows[("report", "failed_ratio")] == "worse"
