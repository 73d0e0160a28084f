"""Batch descriptions for Monte-Carlo protocol runs.

A :class:`TrialPlan` names a batch declaratively: a task function, a
trial count, and a base seed.  The engine derives one independent seed
per trial (``seeds.trial_seed``) and calls ``fn(trial, seed, *args)``
for each — on whichever backend it selects.  Because the seed of trial
``i`` is a pure function of ``(base_seed, namespace, i)``, the plan's
results are independent of backend and scheduling.

For the process-pool backend, ``fn`` must be a module-level callable and
``args`` must be picklable; the engine degrades to serial otherwise.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from .seeds import trial_seed


@dataclass(frozen=True)
class TrialPlan:
    """A batch of independent Monte-Carlo trials.

    ``fn(trial, seed, *args)`` runs one trial; ``namespace`` separates
    seed streams of different plans sharing a base seed.
    """

    fn: Callable[..., Any]
    trials: int
    base_seed: int = 0
    namespace: str = "trial"
    args: tuple = field(default=())

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ValueError("trials must be non-negative")

    def seed_for(self, trial: int) -> int:
        """The derived seed of one trial (independent of execution order)."""
        return trial_seed(self.base_seed, trial, self.namespace)

    def tasks(self) -> list[tuple]:
        """The concrete task tuples the backend will map over."""
        return [
            (self.fn, trial, self.seed_for(trial), self.args)
            for trial in range(self.trials)
        ]


@dataclass(frozen=True)
class TrialResult:
    """One trial's outcome, tagged with its index and derived seed."""

    trial: int
    seed: int
    value: Any


@dataclass(frozen=True)
class BatchResult:
    """All trial results of one plan, plus execution metadata.

    ``wall_time`` covers the whole batch; ``plan_time`` (materializing
    seeds and task tuples) and ``dispatch_time`` (running the tasks,
    plus merging pooled tasks' telemetry when traced) split it so setup
    cost is visible — both default to 0.0 for constructors that never
    measured them.
    """

    results: tuple[TrialResult, ...]
    wall_time: float
    backend_name: str
    plan_time: float = 0.0
    dispatch_time: float = 0.0

    @property
    def values(self) -> list[Any]:
        """The bare trial values, in trial order."""
        return [r.value for r in self.results]

    def __len__(self) -> int:
        return len(self.results)


def execute_task(task: tuple) -> TrialResult:
    """Run one task tuple (module-level so process pools can pickle it)."""
    fn, trial, seed, args = task
    return TrialResult(trial=trial, seed=seed, value=fn(trial, seed, *args))

