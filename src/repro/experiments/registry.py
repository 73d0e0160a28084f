"""Experiment registry: one entry per paper figure / claim / theorem.

Each experiment is a named runner returning ``(lines, data)``: the
report body (what REPORT.md and the CLI print) and the data dict (what
the run store keeps, the checks judge and the tests assert on).
:meth:`Experiment.run` stamps them with the registration's id and title
into an :class:`ExperimentReport`, so a runner states neither.  The
registry maps the experiment ids of DESIGN.md's per-experiment index to
their runners.

Every experiment also declares the paper claims its output must show
as ``checks``: named predicates over a run's data and resolved params,
judged by :meth:`Experiment.verdicts` whenever a run is rendered.

Every experiment *declares* its parameters as
:class:`~repro.runs.spec.ParamSpec` entries — names, kinds, defaults,
sweepable axes — and registration cross-checks the declaration against
the runner's signature once, at import time.  Dispatch then validates
keyword overrides against the declared spec (unknown names and
mistyped values fail with the declared vocabulary) and injects the
reserved ``engine=`` / ``exact=`` keywords only where the signature
takes them — no per-call ``inspect`` anywhere.  The same declarations
drive the runs layer: sweep grids expand over sweepable axes, and the
resolved parameter dict is what content-addresses each stored
:class:`~repro.runs.store.RunRecord`.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

from ..engine import ExecutionEngine
from ..runs.spec import ExperimentSpec, ParamSpec

#: Keywords injected by the dispatcher, never declared as params.
RESERVED_PARAMS = ("engine", "exact")

#: A declared paper claim: a predicate over a run's data and resolved params.
Check = Callable[[dict, dict], bool]

#: An experiment runner: keyword params in, ``(lines, data)`` out.
Runner = Callable[..., tuple[Sequence[str], dict]]

#: What a check raises on data without the keys, rows or types it reads.
_DATA_SHAPE_ERRORS = (
    LookupError, TypeError, ValueError, AttributeError, ArithmeticError, StopIteration,
)


@dataclass(frozen=True)
class ExperimentReport:
    """The outcome of one experiment run."""

    experiment_id: str
    title: str
    lines: tuple[str, ...]
    data: dict = field(default_factory=dict)

    def render(self) -> str:
        """The printable report: bracketed header plus the body lines."""
        header = f"[{self.experiment_id}] {self.title}"
        return "\n".join([header, "=" * len(header), *self.lines])


@dataclass(frozen=True)
class Experiment:
    """A registered experiment: metadata, declared spec, runner, and checks."""

    experiment_id: str
    title: str
    paper_reference: str
    runner: Runner
    spec: ExperimentSpec = field(default_factory=ExperimentSpec)
    checks: Mapping[str, Check] = field(default_factory=dict)

    def verdicts(self, data: dict, params: dict) -> dict[str, bool]:
        """Judge every declared check on one run's (JSON) data and params.

        A check that cannot read the data, say data an older version
        shaped differently, did not hold."""
        verdicts = {}
        for name, check in self.checks.items():
            try:
                verdicts[name] = bool(check(data, params))
            except _DATA_SHAPE_ERRORS:
                verdicts[name] = False
        return verdicts

    def run(
        self,
        *,
        engine: ExecutionEngine | None = None,
        exact: bool = False,
        **overrides,
    ) -> ExperimentReport:
        """Run with validated overrides and spec-declared injection.

        Overrides are coerced through the declared :class:`ParamSpec`\\ s
        (unknown names raise with the declared vocabulary).  ``engine``
        and ``exact`` reach the runner only when its spec declares
        support; an unsupported ``exact=True`` is silently ignored, as
        the CLI's ``--exact`` has always been for non-exact runners.
        The runner's ``(lines, data)`` becomes the report under this
        registration's id and title.
        """
        kwargs = self.spec.validate(overrides)
        if self.spec.accepts_engine and engine is not None:
            kwargs["engine"] = engine
        if self.spec.accepts_exact and exact:
            kwargs["exact"] = True
        lines, data = self.runner(**kwargs)
        return ExperimentReport(self.experiment_id, self.title, tuple(lines), data)


_REGISTRY: dict[str, Experiment] = {}


def _check_declaration(
    experiment_id: str,
    fn: Runner,
    params: tuple[ParamSpec, ...],
) -> ExperimentSpec:
    """Cross-check a parameter declaration against the runner signature.

    The declaration is the source of truth for dispatch, so drift —
    an undeclared signature parameter, a declared name the runner does
    not take, or a default that disagrees — is an import-time error.
    """
    signature_params = inspect.signature(fn).parameters
    declared = {p.name for p in params}
    signature_names = {
        name for name in signature_params if name not in RESERVED_PARAMS
    }
    if declared != signature_names:
        missing = sorted(signature_names - declared)
        extra = sorted(declared - signature_names)
        raise ValueError(
            f"experiment {experiment_id!r}: declared params disagree with "
            f"the runner signature (undeclared: {missing}, spurious: {extra})"
        )
    for p in params:
        sig_default = signature_params[p.name].default
        if sig_default is inspect.Parameter.empty:
            raise ValueError(
                f"experiment {experiment_id!r}: param {p.name!r} has no "
                "signature default; every experiment param needs one"
            )
        if sig_default != p.default:
            raise ValueError(
                f"experiment {experiment_id!r}: param {p.name!r} declares "
                f"default {p.default!r} but the signature says {sig_default!r}"
            )
    return ExperimentSpec(
        params=params,
        accepts_engine="engine" in signature_params,
        accepts_exact="exact" in signature_params,
    )


def register(
    experiment_id: str,
    title: str,
    paper_reference: str,
    params: tuple[ParamSpec, ...] = (),
    smoke: dict | None = None,
    checks: Mapping[str, Check] | None = None,
):
    """Decorator registering an experiment runner under an id and title.

    The runner returns ``(lines, data)``; ``params`` declares its full
    parameter surface (checked against its signature at import time);
    ``smoke`` is the small sub-second override set used by smoke tests
    and ``repro trace``; ``checks`` maps a short name to a paper-claim
    predicate ``check(data, params)`` (see :meth:`Experiment.verdicts`).
    """

    def deco(fn: Runner) -> Runner:
        """Validate the declaration and file the experiment."""
        if experiment_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        spec = _check_declaration(experiment_id, fn, tuple(params))
        spec = ExperimentSpec(
            params=spec.params,
            accepts_engine=spec.accepts_engine,
            accepts_exact=spec.accepts_exact,
            smoke=spec.validate(smoke or {}),
        )
        _REGISTRY[experiment_id] = Experiment(
            experiment_id=experiment_id,
            title=title,
            paper_reference=paper_reference,
            runner=fn,
            spec=spec,
            checks=dict(checks or {}),
        )
        return fn

    return deco


def get_experiment(experiment_id: str) -> Experiment:
    """Look up a registered experiment by id (KeyError with the known ids)."""
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def all_experiments() -> list[Experiment]:
    """All registered experiments, sorted by id."""
    return [(_REGISTRY[k]) for k in sorted(_REGISTRY)]


def run_experiment(experiment_id: str, **kwargs) -> ExperimentReport:
    """Run one experiment by id with keyword overrides."""
    return get_experiment(experiment_id).run(**kwargs)
