"""Resumable parameter sweeps over the experiment registry.

A sweep is a declared grid — ``{"m": (8, 12, 16), "k": (2, 4)}`` —
expanded into its cartesian product of points, each point one
content-addressed run.  The orchestrator:

* validates every axis against the experiment's spec (only declared,
  sweepable parameters; every value coerced through its
  :class:`~repro.runs.spec.ParamSpec`);
* asks the store once per point whether it already exists and
  dispatches **only the missing ones** — a killed sweep relaunched with
  the same grid restarts exactly where it died, because finished points
  resolve to the same SHA-256 keys;
* fans the pending points out through the
  :class:`~repro.engine.ExecutionEngine` (process-pool parallel across
  points when configured; inside a worker each point runs serially, so
  pools never nest);
* puts each finished point's record from the orchestrating process
  (workers write nothing; concurrent sweeps on one store each see the
  points the others finished, and the last write of a point wins).

Point order is deterministic: axes sort by name, values keep their
declared order, so ``--max-points`` (the checkpoint/CI knob) always
truncates the same prefix.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..engine import ExecutionEngine, resolve_engine
from .api import execute_run
from .spec import canonical_params, run_key
from .store import RunRecord, RunStore


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: the overrides that define it and its run key."""

    experiment_id: str
    overrides: dict
    key: str


@dataclass(frozen=True)
class SweepResult:
    """What one sweep invocation did, point by point.

    ``executed``/``skipped``/``remaining`` partition the planned points:
    run now, already stored, and deferred by ``max_points``.
    """

    experiment_id: str
    points: tuple[SweepPoint, ...]
    executed: tuple[str, ...]
    skipped: tuple[str, ...]
    remaining: tuple[str, ...]
    wall_time: float

    def summary(self) -> str:
        """The one-line accounting the CLI prints (and CI greps)."""
        return (
            f"executed {len(self.executed)}, skipped {len(self.skipped)}, "
            f"remaining {len(self.remaining)}"
        )


def expand_grid(grid: Mapping[str, Sequence[Any]]) -> list[dict]:
    """The cartesian product of a grid, in deterministic point order."""
    names = sorted(grid)
    if not names:
        return [{}]
    value_lists = [list(grid[name]) for name in names]
    for name, values in zip(names, value_lists):
        if not values:
            raise ValueError(f"sweep axis {name!r} is empty")
    return [
        dict(zip(names, combo)) for combo in itertools.product(*value_lists)
    ]


def plan_sweep(
    experiment_id: str,
    grid: Mapping[str, Sequence[Any]],
    base: Mapping[str, Any] | None = None,
    *,
    exact: bool = False,
) -> list[SweepPoint]:
    """Validate a grid and expand it into content-addressed points.

    ``base`` holds fixed overrides shared by every point (``--set`` /
    ``--trials``); a name cannot be both an axis and a base override.
    """
    from ..experiments import get_experiment

    experiment = get_experiment(experiment_id)
    spec = experiment.spec
    base = dict(base or {})
    overlap = set(base) & set(grid)
    if overlap:
        raise ValueError(f"params {sorted(overlap)} are both axis and --set")
    validated_base = spec.validate(base)
    coerced_grid: dict[str, list] = {}
    for name, values in grid.items():
        param = spec.param(name)
        if not param.sweepable:
            raise ValueError(
                f"param {name!r} is not sweepable; axes: "
                f"{list(spec.sweepable_names())}"
            )
        coerced_grid[name] = [param.coerce(v) for v in values]
    points = []
    for combo in expand_grid(coerced_grid):
        overrides = {**validated_base, **combo}
        resolved = spec.resolve(overrides)
        seed = canonical_params(resolved).get("seed")
        points.append(
            SweepPoint(
                experiment_id=experiment_id,
                overrides=overrides,
                key=run_key(experiment_id, resolved, seed=seed, exact=exact),
            )
        )
    return points


def _execute_point(task: tuple) -> dict:
    """Run one sweep point (module-level so process pools can pickle it)."""
    experiment_id, overrides, exact = task
    outcome = execute_run(
        experiment_id, overrides, exact=exact, store=None, reuse=False
    )
    return outcome.record.to_payload()


def run_sweep(
    experiment_id: str,
    grid: Mapping[str, Sequence[Any]],
    base: Mapping[str, Any] | None = None,
    *,
    store: RunStore,
    engine: ExecutionEngine | None = None,
    exact: bool = False,
    max_points: int | None = None,
) -> SweepResult:
    """Execute the missing points of a sweep and record them.

    Points already in the store are never re-executed.  ``max_points``
    caps how many pending points this invocation runs (the rest are
    reported as ``remaining``) — the hook the kill/resume CI job and
    tests use to stop a sweep mid-flight deterministically.
    """
    points = plan_sweep(experiment_id, grid, base, exact=exact)
    # One answer per point: another writer may store a point between two
    # asks, and the point must land in exactly one of the partitions.
    stored = [store.has(p.key) for p in points]
    skipped = tuple(p.key for p, s in zip(points, stored) if s)
    pending = [p for p, s in zip(points, stored) if not s]
    if max_points is not None and max_points >= 0:
        todo, deferred = pending[:max_points], pending[max_points:]
    else:
        todo, deferred = pending, []
    engine = resolve_engine(engine)
    start = time.perf_counter()
    payloads = engine.map(
        _execute_point,
        [(p.experiment_id, dict(p.overrides), exact) for p in todo],
    )
    executed = []
    for point, payload in zip(todo, payloads):
        record = RunRecord.from_payload(payload)
        if record.key != point.key:
            raise RuntimeError(
                f"sweep point key drift: planned {point.key[:12]} but the "
                f"worker produced {record.key[:12]} — keying is not "
                "deterministic"
            )
        store.put(record)
        executed.append(record.key)
    return SweepResult(
        experiment_id=experiment_id,
        points=tuple(points),
        executed=tuple(executed),
        skipped=skipped,
        remaining=tuple(p.key for p in deferred),
        wall_time=time.perf_counter() - start,
    )
