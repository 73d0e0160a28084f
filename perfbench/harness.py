#!/usr/bin/env python3
"""The reproduction's benchmark: fresh-process workloads, checked outputs.

One command measures the four workloads (see ``README.md`` for why each
exists)::

    python3 perfbench/harness.py --seed 0 --out result.json

Every sample is its own child process, because every ``repro`` / ``make
report`` invocation starts with cold ``lru_cache``\\ s and a cold
construction cache; a warm loop would hide what users pay.  Per workload
the parent compiles ``src/``, then runs samples one at a time for
``--seconds`` seconds, and reports each metric as median, quartiles,
min, max and n.

The host's speed drifts, so an untraced sample also runs a fixed
reference kernel on a CPU-time timer during its pass and reports every
time at the reference speed: measured time × ``CAL_REFERENCE_S`` / the
kernel's mean time in that sample.  Set-up time is taken relative to a
fresh interpreter's start-up instead (:func:`reference_startup`).  The
measured times are kept too.

``--trace 0`` measures untraced samples and reports the end-to-end
metrics; ``--trace 1`` measures traced samples, which patch the declared
layer boundaries (:data:`BOUNDARIES`) from this file and install a
``repro.obs`` recorder, and reports the per-layer metrics.  Without
``--trace`` both phases run and the traced/untraced wall ratio is
printed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every sample checks its outputs: a SHA-256 digest of each run's data
(wall-clock fields masked) must match the pinned digests in
``expected.json`` where they apply, and must agree across all samples.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import functools
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
EXPECTED_JSON = HERE / "expected.json"
#: Temporary run stores live inside the checkout, never in the system tmp.
WORK_DIR = ROOT / ".perfbench"

WORKLOADS = ("report", "dmm_trials", "lemma_exact", "sweep_store")
#: Workloads whose inputs do not depend on the seed: pinned at every seed.
SEED_FREE = frozenset({"report", "lemma_exact"})
#: Data keys holding wall-clock measurements (ABL embeds kernel timings).
MASKED_KEYS = frozenset({"seconds", "speedup_vs_reference"})

DMM_RUNS = (
    ("T1b", {"m": 24, "k": 6, "trials": 60}),
    ("T2", {"m": 20, "k": 4, "trials": 30}),
    ("ATK", {"m": 24, "k": 6, "trials": 40}),
)
LEMMA_RUNS = (("L33", {"t": 3}), ("L34", {"t": 3}), ("L35", {"t": 4}))
SWEEP_EXPERIMENT = "T1b"
SWEEP_BASE = {"trials": 4}
SWEEP_RELAUNCHES = 20
#: Phase timings of ``sweep_store`` and the share by which each may worsen.
SWEEP_PHASE_BOUNDS = {"sweep_write_s": 0.25, "sweep_read_s": 0.25}

#: Seconds a single child may run before its process group is killed.
CHILD_TIMEOUT_S = 60.0

#: CPU seconds of the pass between two runs of the reference kernel.
CAL_INTERVAL_S = 0.05
#: The reference kernel's time at reference speed.  End-to-end times are
#: reported at that speed (see :meth:`Sample.sampling_speed`).
CAL_REFERENCE_S = 0.004
#: What a fresh interpreter imports to time the host's process start-up,
#: the reference for set-up time (see :func:`reference_startup`).
STARTUP_MODULES = (
    "argparse", "dataclasses", "decimal", "email.message", "fractions", "hashlib",
    "http.client", "json", "logging", "pathlib", "random", "statistics", "tarfile",
    "typing", "xml.dom.minidom",
)
#: That start-up's time at reference speed.
STARTUP_REFERENCE_S = 0.1


def sweep_grid(seed: int) -> dict:
    """The 144-point T1b grid; the seed picks 16 consecutive trial seeds."""
    return {
        "m": [8, 10, 12],
        "k": [2, 3, 4],
        "seed": list(range(16 * seed, 16 * seed + 16)),
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def summarize(values) -> dict:
    """Median, quartiles (``statistics.quantiles``), min, max, n, values."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
        "values": list(values),
    }


def tail(values) -> tuple[str, float] | None:
    """The highest of p90/p99/p99.9 with at least ten values beyond it.

    Nearest-rank percentiles in integer per-mille arithmetic, so the
    ranks are exact; ``None`` when fewer than 100 values exist.
    """
    values = sorted(values)
    n = len(values)
    for per_mille, label in ((999, "p99.9"), (990, "p99"), (900, "p90")):
        rank = -(-per_mille * n // 1000)
        if n - rank >= 10:
            return label, values[rank - 1]
    return None


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _mask(value):
    """A copy of JSON-like data with the wall-clock keys blanked."""
    if isinstance(value, dict):
        return {
            k: None if k in MASKED_KEYS else _mask(v) for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_mask(v) for v in value]
    return value


def digest(data) -> str:
    """SHA-256 of a run's canonical data with the wall-clock keys masked."""
    text = json.dumps(_mask(data), sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# Speed calibration
# ----------------------------------------------------------------------
def reference_kernel() -> tuple:
    """A fixed pure-Python job that uses nothing of the program under test.

    Dict-of-set graph building, a greedy matching, sorting and exact
    ``Fraction`` sums: the kind of interpreter work the workloads do.
    """
    rng = random.Random(20200)
    adjacency: dict[int, set[int]] = {}
    for _ in range(2500):
        u, v = rng.randrange(400), rng.randrange(400)
        if u != v:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
    matched: set[int] = set()
    for u in sorted(adjacency):
        if u not in matched:
            for v in sorted(adjacency[u]):
                if v not in matched:
                    matched.update((u, v))
                    break
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i % 11 + 1)
    rows = sorted(((len(n), u) for u, n in adjacency.items()), reverse=True)
    return len(matched), total, rows[0]


# ----------------------------------------------------------------------
# Layer boundaries, timed from outside the program
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Boundary:
    """One public callable of one layer: ``Class.method`` or a function."""

    layer: str
    module: str
    qualname: str
    tail: bool = False

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.qualname}"


#: The tail flag marks the high-call boundaries that report per-call
#: p50 and tail latencies.
BOUNDARIES = (
    Boundary("rsgraphs", "repro.rsgraphs.construction", "sum_class_rs_graph"),
    Boundary("rsgraphs", "repro.rsgraphs.tripartite", "tripartite_rs_graph"),
    Boundary("arithmetic", "repro.arithmetic.behrend", "behrend_set"),
    Boundary("graphs", "repro.graphs.graph", "Graph.freeze"),
    Boundary("lowerbound", "repro.lowerbound.params", "scaled_distribution"),
    Boundary("lowerbound", "repro.lowerbound.distribution", "sample_dmm", tail=True),
    Boundary("lowerbound", "repro.lowerbound.distribution", "sample_dmm_family"),
    Boundary("lowerbound", "repro.lowerbound.players", "player_split", tail=True),
    Boundary("lowerbound", "repro.lowerbound.transcripts", "analyze_protocol"),
    Boundary("model", "repro.model.runner", "run_protocol", tail=True),
    Boundary("model", "repro.model.runner", "run_adaptive_protocol"),
    Boundary("model", "repro.model.views", "views_of"),
    Boundary("sketches", "repro.sketches.core", "SketchFamily.build_states"),
    Boundary("infotheory", "repro.infotheory.table", "TableBuilder.build"),
    Boundary("infotheory", "repro.infotheory.table", "TableDistribution.condition"),
    Boundary("infotheory", "repro.infotheory.table", "TableDistribution.entropy", tail=True),
    Boundary("infotheory", "repro.infotheory.table", "TableDistribution.mutual_information"),
    Boundary("engine", "repro.engine.core", "ExecutionEngine.map"),
    Boundary("engine", "repro.engine.cache", "ConstructionCache.get_or_build"),
    Boundary("runs", "repro.runs.api", "execute_run"),
    Boundary("runs", "repro.runs.sweep", "run_sweep"),
    Boundary("runs", "repro.runs.store", "RunStore.put", tail=True),
    Boundary("runs", "repro.runs.store", "RunStore.has"),
    Boundary("obs", "repro.obs.export", "telemetry_summary"),
)

#: Counters summed over their labels from the traced samples' recorder.
COUNTERS = (
    "transcript.bits",
    "transcript.messages",
    "sketch.cells_packed",
    "sketch.bytes_serialized",
    "engine.trials",
    "cache.hits",
    "cache.misses",
    "store.records",
    "store.bytes_serialized",
)
#: Spans whose self time (duration minus direct children) is reported.
SPANS = ("protocol.sketch", "protocol.transcript", "protocol.decode")


class _Stat:
    """Call count, inclusive and self time of one boundary."""

    __slots__ = ("calls", "total_s", "self_s", "durations")

    def __init__(self, keep_durations: bool) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: list[float] | None = [] if keep_durations else None


class BoundaryTimer:
    """Patch declared boundaries with timing wrappers for one block.

    Methods are patched on their class.  A module function is patched on
    every attribute of every loaded module under ``package`` that *is*
    the original, which catches ``from ... import`` aliases.  Self time
    excludes time spent in nested boundaries, so an unwrapped callee
    counts toward its caller.  On exit every original is restored,
    including aliases bound by modules imported while the patch was on.
    """

    def __init__(self, boundaries=BOUNDARIES, package: str = "repro") -> None:
        self.boundaries = tuple(boundaries)
        self.package = package
        self.stats = {b.name: _Stat(b.tail) for b in self.boundaries}
        self._open: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self._originals: dict[int, tuple[object, object]] = {}

    def _modules(self):
        prefix = self.package + "."
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(prefix))
        ]

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        open_frames = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            open_frames.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = open_frames.pop()
                if open_frames:
                    open_frames[-1] += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - nested
                if stat.durations is not None:
                    stat.durations.append(elapsed)

        self._originals[id(timed)] = (timed, fn)
        return timed

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch(self, b: Boundary) -> None:
        module = importlib.import_module(b.module)
        owner_name, _, attr = b.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            if not callable(original) or isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"boundary {b.name} is not a plain method")
            self._set(owner, attr, self._wrap(b.name, original))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(b.name, original)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def __enter__(self) -> "BoundaryTimer":
        try:
            for b in self.boundaries:
                self._patch(b)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                pair = self._originals.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(mod, key, pair[1])
        return False

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-boundary stats, per-call tails and ``other.self_s``."""
        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.total_s"] = stat.total_s
            out[f"{name}.self_s"] = stat.self_s
            if stat.durations is not None and stat.durations:
                out[f"{name}.p50_us"] = statistics.median(stat.durations) * 1e6
                found = tail(stat.durations)
                if found is not None:
                    out[f"{name}.tail_us"] = found[1] * 1e6
        out["other.self_s"] = wall_s - sum(s.self_s for s in self.stats.values())
        return out


def recorder_metrics(recorder) -> dict[str, float]:
    """Counter totals, the cache hit ratio and span self times."""
    totals = recorder.totals()
    out: dict[str, float] = {name: totals.get(name, 0) for name in COUNTERS}
    lookups = out["cache.hits"] + out["cache.misses"]
    out["cache.hit_ratio"] = out["cache.hits"] / lookups if lookups else 0.0
    nested: dict[int, float] = {}
    for s in recorder.spans:
        if s.parent_id is not None:
            nested[s.parent_id] = nested.get(s.parent_id, 0.0) + s.duration
    for name in SPANS:
        out[f"{name}.self_s"] = sum(
            s.duration - nested.get(s.span_id, 0.0)
            for s in recorder.spans
            if s.name == name
        )
    return out


# ----------------------------------------------------------------------
# Workloads (run inside the child process)
# ----------------------------------------------------------------------
class Sample:
    """What one pass produced: output digests, checks, timings.

    While :meth:`sampling_speed` is on it also runs the reference kernel
    and keeps the kernel's times; :meth:`clock` stops while it runs.
    """

    def __init__(self) -> None:
        self.digests: dict[str, str] = {}
        self.checks: dict[str, bool] = {}
        self.experiments: dict[str, float] = {}  # wall time of each run
        self.phases: dict[str, float] = {}  # wall time of each workload phase
        self.cal_walls: list[float] = []
        self.cal_cpus: list[float] = []

    def output(self, name: str, data, seconds: float | None = None) -> None:
        self.digests[name] = digest(data)
        if seconds is not None:
            self.experiments[name] = seconds

    def _run_kernel(self, signum=None, frame=None) -> None:
        # The thread clock: while ITIMER_PROF is armed, Linux serves the
        # process CPU clock from a sum updated only at scheduler ticks.
        wall, cpu = time.perf_counter(), time.thread_time()
        collecting = gc.isenabled()
        gc.disable()  # the pass's heap must not set the kernel's time
        try:
            reference_kernel()
        finally:
            if collecting:
                gc.enable()
        self.cal_cpus.append(time.thread_time() - cpu)
        self.cal_walls.append(time.perf_counter() - wall)

    @contextlib.contextmanager
    def sampling_speed(self):
        """Run :func:`reference_kernel` every ``CAL_INTERVAL_S`` of CPU time.

        A shared host's speed drifts from second to second, and slow
        periods slow CPU time as much as wall time.  The kernel runs from
        a ``SIGPROF`` timer, so it samples the speed while the pass runs,
        in proportion to the pass's CPU time; the pass's time over the
        kernel's mean time cancels the drift.  The kernel uses nothing of
        the program, so no change to the program moves it.
        """
        previous = signal.signal(signal.SIGPROF, self._run_kernel)
        signal.setitimer(signal.ITIMER_PROF, CAL_INTERVAL_S, CAL_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
        if not self.cal_walls:
            self._run_kernel()

    def clock(self) -> float:
        """``time.perf_counter``, stopped while the kernel ran."""
        return time.perf_counter() - sum(self.cal_walls)


# The workloads call into ``repro.runs`` through the module attribute, not
# a name bound at set-up, so that a traced sample's patch sees the call.


def prepare_report(seed: int, work: Path):
    """Every experiment at default params into a fresh store, then REPORT.md.

    Like ``make report`` this ignores the seed: the report renders the
    default-parameter records, so only those can be served from the store.
    """
    from repro import runs
    from repro.engine import ConstructionCache, ExecutionEngine
    from repro.experiments import all_experiments

    engine = ExecutionEngine(cache=ConstructionCache())
    store = runs.RunStore(work / "store")
    plan = [e.experiment_id for e in all_experiments()]

    def run(sample: Sample) -> None:
        for experiment_id in plan:
            start = sample.clock()
            record = runs.execute_run(experiment_id, {}, engine=engine, store=store).record
            sample.output(experiment_id, record.data, sample.clock() - start)
        _, outcomes = runs.generate_report(store, engine=engine)
        sample.checks["report.served_from_store"] = len(outcomes) == len(plan) and all(
            o.cached for o in outcomes
        )

    return engine, run


def _prepare_direct(calls, exact: bool):
    """Registered experiments called directly: no run store, serial engine."""
    from repro.engine import ConstructionCache, ExecutionEngine
    from repro.experiments import get_experiment

    engine = ExecutionEngine(cache=ConstructionCache())
    plan = [(get_experiment(eid), kwargs) for eid, kwargs in calls]

    def run(sample: Sample) -> None:
        for experiment, kwargs in plan:
            start = sample.clock()
            report = experiment.run(engine=engine, exact=exact, **kwargs)
            sample.output(experiment.experiment_id, report.data, sample.clock() - start)

    return engine, run


def prepare_dmm_trials(seed: int, work: Path):
    """Adversarial trials on D_MM: construction plus referee decoding."""
    return _prepare_direct([(eid, {**kw, "seed": seed}) for eid, kw in DMM_RUNS], exact=False)


def prepare_lemma_exact(seed: int, work: Path):
    """Exhaustive Lemma 3.3-3.5 enumeration into exact-Fraction tables."""
    return _prepare_direct(LEMMA_RUNS, exact=True)


def prepare_sweep_store(seed: int, work: Path):
    """A cold sweep into a fresh store, then warm relaunches.

    The engine is serial.  A process pool on a shared host times the
    neighbours' load on every core it fills, which the one-core reference
    kernel cannot cancel.
    """
    from repro import runs
    from repro.engine import ConstructionCache, ExecutionEngine

    engine = ExecutionEngine(cache=ConstructionCache())
    root = work / "store"
    grid = sweep_grid(seed)
    points = math.prod(len(v) for v in grid.values())

    def sweep(store):
        return runs.run_sweep(SWEEP_EXPERIMENT, grid, SWEEP_BASE, store=store, engine=engine)

    def run(sample: Sample) -> None:
        start = sample.clock()
        store = runs.RunStore(root)
        cold = sweep(store)
        sample.phases["sweep_write_s"] = sample.clock() - start
        sample.checks["sweep.cold"] = (
            len(cold.executed) == points and not cold.skipped and not cold.remaining
        )
        start = sample.clock()
        warm = [sweep(runs.RunStore(root)) for _ in range(SWEEP_RELAUNCHES)]
        sample.phases["sweep_read_s"] = sample.clock() - start
        sample.checks["sweep.relaunch"] = all(
            not w.executed and len(w.skipped) == points for w in warm
        )
        records = sorted(store.records(SWEEP_EXPERIMENT), key=lambda r: r.key)
        sample.output("sweep", [[r.key, r.data] for r in records])

    return engine, run


PREPARE = {
    "report": prepare_report,
    "dmm_trials": prepare_dmm_trials,
    "lemma_exact": prepare_lemma_exact,
    "sweep_store": prepare_sweep_store,
}


def child_main(workload: str, seed: int, traced: bool, work: Path) -> dict:
    """One sample: set up, run one pass, report costs and outputs."""
    from repro import obs

    engine, run = PREPARE[workload](seed, work)
    sample = Sample()
    ready_at = time.monotonic()
    cpu_start = resource.getrusage(resource.RUSAGE_SELF)
    layers = None
    speed = {}
    try:
        if traced:
            # No kernel here: it would land inside the timed boundaries.
            with BoundaryTimer() as timer, obs.recording() as recorder:
                start = sample.clock()
                run(sample)
                wall_s = sample.clock() - start
            layers = {**timer.metrics(wall_s), **recorder_metrics(recorder)}
        else:
            with sample.sampling_speed():
                start = sample.clock()
                run(sample)
                wall_s = sample.clock() - start
            speed = {
                "cal_wall_s": statistics.fmean(sample.cal_walls),
                "cal_cpu_s": statistics.fmean(sample.cal_cpus),
                "cal_runs": len(sample.cal_walls),
            }
    finally:
        engine.close()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (
        own.ru_utime - cpu_start.ru_utime + own.ru_stime - cpu_start.ru_stime
        + kids.ru_utime + kids.ru_stime
        - sum(sample.cal_cpus)
    )
    return {
        "ready_at": ready_at,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        **speed,
        "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
        "digests": sample.digests,
        "checks": sample.checks,
        "experiments": sample.experiments,
        "phases": sample.phases,
        "layers": layers,
    }


# ----------------------------------------------------------------------
# Parent: spawn samples, check them, aggregate
# ----------------------------------------------------------------------
def child_env() -> dict:
    """The child's environment: this checkout's source, no REPRO_* knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def reference_startup() -> float:
    """Seconds a fresh isolated interpreter takes to import ``STARTUP_MODULES``.

    Set-up is cold-process work: unmarshalling, module bodies and
    first-touch page faults.  Its time drifts with the host but does not
    follow the reference kernel's, so it is taken relative to this
    start-up, timed right before the sample is spawned.
    """
    start = time.monotonic()
    subprocess.run(
        [sys.executable, "-I", "-c", "import " + ", ".join(STARTUP_MODULES)],
        cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return time.monotonic() - start


def spawn_sample(workload: str, seed: int, traced: bool) -> dict:
    """Run one sample in a fresh process; ``{"error": ...}`` on failure."""
    startup_ref_s = reference_startup()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", workload,
        "--seed", str(seed), "--trace", str(int(traced)), "--work", str(work),
    ]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"sample timed out after {CHILD_TIMEOUT_S:.0f}s"}
    except BaseException:
        # Interrupted or terminated: take the child's process group down too.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        return {"error": (err.strip().splitlines() or [f"exit {proc.returncode}"])[-1]}
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result.pop("ready_at") - spawned_at
    result["startup_ref_s"] = startup_ref_s
    return result


def measure(workload: str, seed: int, seconds: float, traced: bool) -> list[dict]:
    """Samples one at a time for ``seconds``, after warming the bytecode.

    Every sample is a fresh process, so all a warm-up can leave behind is
    the compiled ``src/`` and the file cache; compiling ``src/`` first
    gives both without spending a pass.  A sample starts only if, at the
    mean sample time so far, it would end inside the window; at least one
    sample always runs.
    """
    compileall.compile_dir(str(SRC), quiet=1)
    samples = []
    start = time.monotonic()
    timed = 0
    while True:
        samples.append(spawn_sample(workload, seed, traced))
        timed += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / timed > seconds:
            return samples


def check_samples(workload: str, seed: int, samples: list[dict], expected: dict) -> dict:
    """Count checked outputs: pinned digests, cross-sample agreement, asserts."""
    pinned = expected.get(workload, {}) if seed == 0 or workload in SEED_FREE else {}
    reference: dict[str, str] = dict(pinned)
    attempted = failed = 0
    errors: list[str] = []
    for sample in samples:
        if "error" in sample:
            attempted += 1
            failed += 1
            errors.append(sample["error"])
            continue
        for name, ok in sample["checks"].items():
            attempted += 1
            if not ok:
                failed += 1
                errors.append(f"check {name} failed")
        for name, got in sample["digests"].items():
            attempted += 1
            want = reference.setdefault(name, got)
            if got != want:
                failed += 1
                errors.append(f"{name}: digest {got[:12]} != {want[:12]}")
        for name in set(pinned) - set(sample["digests"]):
            attempted += 1
            failed += 1
            errors.append(f"{name}: pinned run missing")
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": sorted(set(errors)),
        "digests": reference,
    }


def e2e_values(sample: dict) -> dict[str, float]:
    """One untraced sample's end-to-end values, times at reference speed.

    The measured times stay beside them as ``measured.*``, with the
    references they were scaled by.
    """
    scale = CAL_REFERENCE_S / sample["cal_wall_s"]
    return {
        "setup_s": sample["setup_s"] * STARTUP_REFERENCE_S / sample["startup_ref_s"],
        "wall_s": sample["wall_s"] * scale,
        "cpu_s": sample["cpu_s"] * CAL_REFERENCE_S / sample["cal_cpu_s"],
        "peak_rss_mb": sample["peak_rss_mb"],
        **{k: v * scale for k, v in sample["phases"].items()},
        **{f"experiments.{k}.s": v * scale for k, v in sample["experiments"].items()},
        **{
            f"measured.{k}": sample[k]
            for k in ("setup_s", "startup_ref_s", "wall_s", "cpu_s", "cal_wall_s", "cal_cpu_s")
        },
    }


def aggregate(samples: list[dict], traced: bool) -> dict:
    """Summaries of the successful samples."""
    timed = [s for s in samples if "error" not in s]
    if not timed:
        return {}
    series: dict[str, list[float]] = {}
    for s in timed:
        values = dict(s["layers"]) if traced else e2e_values(s)
        if traced:
            values["trace.wall_s"] = s["wall_s"]
        for key, value in values.items():
            series.setdefault(key, []).append(value)
    return {key: summarize(values) for key, values in sorted(series.items())}


def fingerprint() -> dict:
    """Python, processor count and git revision of the measured checkout."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_rev": git_rev(),
    }


def git_rev(root: Path = ROOT) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def declared_metrics() -> tuple[float, dict, dict]:
    """The declared run length and ``{name: unit}`` of each metric group."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return (
        spec["run_seconds"],
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


COUNTER_UNITS = {
    "transcript.bits": "bits",
    "sketch.bytes_serialized": "bytes",
    "store.bytes_serialized": "bytes",
    "cache.hit_ratio": "fraction",
}


def unit_of(name: str) -> str:
    """Unit of a reported metric, from its name."""
    if name in COUNTER_UNITS:
        return COUNTER_UNITS[name]
    for suffix, unit in (("_s", "s"), (".s", "s"), ("_us", "us"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "count"


def print_table(title: str, stats: dict) -> None:
    print(f"  {title}")
    for name, s in stats.items():
        print(
            f"    {name:<52} {unit_of(name):>8}  median {s['median']:<12.6g} "
            f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} n {s['n']}"
        )


def run_workload(workload: str, seed: int, seconds: float, trace: int | None, expected: dict) -> dict:
    """Measure one workload's requested phases and check every sample."""
    result: dict = {}
    samples: list[dict] = []
    for traced in ((False, True) if trace is None else (bool(trace),)):
        phase = measure(workload, seed, seconds, traced)
        samples.extend(phase)
        result["per_layer" if traced else "e2e"] = aggregate(phase, traced)
    result.update(check_samples(workload, seed, samples, expected))
    if result.get("e2e") and result.get("per_layer"):
        result["trace_overhead"] = (
            result["per_layer"]["trace.wall_s"]["median"]
            / result["e2e"]["measured.wall_s"]["median"]
        )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring window per workload and phase "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only, 1: per-layer only (default: both)")
    parser.add_argument("--out", type=Path, help="write the full result JSON here")
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        try:
            result = child_main(args.child, args.seed, bool(args.trace), args.work)
        except Exception:
            traceback.print_exc()
            return 1
        print(json.dumps(result))
        return 0

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so a running sample is killed, not orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run_seconds, e2e_names, layer_names = declared_metrics()
    seconds = args.seconds or run_seconds
    expected = json.loads(EXPECTED_JSON.read_text())
    workloads = args.workload or list(WORKLOADS)
    env = fingerprint()
    results = {}
    for workload in workloads:
        results[workload] = run_workload(workload, args.seed, seconds, args.trace, expected)

    print(f"perfbench seed {args.seed}, {seconds:g}s per phase; {json.dumps(env)}")
    for workload, r in results.items():
        print(f"[{workload}] attempted {r['attempted']} failed {r['failed']}")
        for error in r["errors"]:
            print(f"  ! {error}")
        if r.get("e2e"):
            print_table("end-to-end (untraced)", r["e2e"])
        if r.get("per_layer"):
            print_table("per-layer (traced)", r["per_layer"])
        if "trace_overhead" in r:
            print(f"  trace_overhead {r['trace_overhead']:.4f}x (traced/untraced wall)")
    if args.out:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": seconds, "fingerprint": env, "workloads": results},
            indent=1, sort_keys=True,
        ) + "\n")

    metrics = {}
    for workload, r in results.items():
        prefix = "" if len(results) == 1 else f"{workload}/"
        for group, names in (("e2e", e2e_names), ("per_layer", layer_names)):
            stats = r.get(group)
            if not stats:
                continue
            for name, unit in names.items():
                metrics[prefix + name] = {"value": stats[name]["median"], "unit": unit}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
