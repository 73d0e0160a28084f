"""Typed experiment parameter specs and content-addressed run keys.

Every registered experiment *declares* its parameters — names, kinds,
defaults, and which axes a sweep may vary — instead of having callers
guess at its signature.  The declaration is the contract the rest of
the runs layer builds on:

* the registry validates keyword overrides against the spec *before*
  dispatch, so an unknown name or a mistyped value fails with the
  declared vocabulary instead of a ``TypeError`` deep in a runner;
* the sweep orchestrator expands grids only over axes the spec marks
  sweepable, coercing every grid value through the owning
  :class:`ParamSpec`;
* the run store keys each record by :func:`run_key` — a SHA-256 of the
  experiment id, the *fully resolved* canonical parameter dict
  (defaults included, so two spellings of the same run collide), the
  seed, and the exact-mode flag — the same content-addressing
  discipline as the engine's construction cache.

This module depends on nothing above the standard library so that the
experiment registry can import it without cycles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

#: Bump to invalidate every stored run key (canonicalization changes).
RUN_KEY_SCHEMA = 1

#: The parameter kinds a spec may declare.
PARAM_KINDS = ("int", "float", "bool", "str", "int_list", "int_tuple", "object")

#: Kinds whose values are single scalars — the only kinds a sweep can vary.
_SCALAR_KINDS = frozenset({"int", "float", "bool", "str"})


def parse_value(raw: str):
    """Parse one CLI scalar: int, float, ``true``/``false``/``none``, or str.

    The boolean/none words are matched case-insensitively, so
    ``--kw exact=false`` yields the real ``False`` instead of the
    (truthy) string ``"false"``.
    """
    lowered = raw.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if lowered == "none":
        return None
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _is_int(value: Any) -> bool:
    """True for real ints (bool is deliberately excluded)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ParamSpec:
    """One declared experiment parameter.

    ``kind`` names the value shape (one of :data:`PARAM_KINDS`);
    ``sweepable`` defaults to true exactly for scalar kinds.  ``object``
    parameters (e.g. C31's pre-built distribution configs) are opaque:
    they are passed through unvalidated, can never be swept, and a run
    overriding one cannot be stored (its key would not be
    content-complete).
    """

    name: str
    kind: str
    default: Any = None
    help: str = ""
    sweepable: bool | None = None

    def __post_init__(self) -> None:
        """Validate the declaration and resolve the sweepable default."""
        if self.kind not in PARAM_KINDS:
            raise ValueError(
                f"param {self.name!r}: unknown kind {self.kind!r}; "
                f"known: {PARAM_KINDS}"
            )
        if self.sweepable is None:
            object.__setattr__(self, "sweepable", self.kind in _SCALAR_KINDS)
        if self.sweepable and self.kind not in _SCALAR_KINDS:
            raise ValueError(
                f"param {self.name!r}: kind {self.kind!r} cannot be sweepable"
            )

    def coerce(self, value: Any) -> Any:
        """Check/coerce one override value to this parameter's kind.

        ``None`` is accepted whenever the declared default is ``None``
        (the runner computes the real default internally).
        """
        if value is None and self.default is None:
            return None
        error = ValueError(
            f"param {self.name!r}: expected {self.kind}, got {value!r}"
        )
        if self.kind == "int":
            if not _is_int(value):
                raise error
            return value
        if self.kind == "float":
            if not (_is_int(value) or isinstance(value, float)):
                raise error
            return float(value)
        if self.kind == "bool":
            if not isinstance(value, bool):
                raise error
            return value
        if self.kind == "str":
            if not isinstance(value, str):
                raise error
            return value
        if self.kind in ("int_list", "int_tuple"):
            if not isinstance(value, (list, tuple)) or not all(
                _is_int(v) for v in value
            ):
                raise error
            return list(value) if self.kind == "int_list" else tuple(value)
        return value  # object: opaque passthrough

    def parse_axis(self, raw: str) -> tuple:
        """Parse a sweep axis like ``8,12,16`` into coerced values."""
        if not self.sweepable:
            raise ValueError(f"param {self.name!r} is not sweepable")
        values = tuple(self.coerce(parse_value(part)) for part in raw.split(","))
        if not values:
            raise ValueError(f"param {self.name!r}: empty sweep axis")
        return values


@dataclass(frozen=True)
class ExperimentSpec:
    """The declared parameter surface of one registered experiment.

    ``accepts_engine`` / ``accepts_exact`` record whether the runner
    takes the reserved ``engine=`` / ``exact=`` injection keywords
    (derived once at registration — dispatch never introspects).
    ``smoke`` is a small override dict that finishes in well under a
    second: the parameterization CI smoke jobs, round-trip tests, and
    ``repro trace`` use.
    """

    params: tuple[ParamSpec, ...] = ()
    accepts_engine: bool = False
    accepts_exact: bool = False
    smoke: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Reject duplicate names and reserved-name collisions."""
        names = [p.name for p in self.params]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate param declarations in {names}")
        for reserved in ("engine", "exact"):
            if reserved in names:
                raise ValueError(
                    f"param {reserved!r} is reserved for engine injection"
                )

    @property
    def names(self) -> tuple[str, ...]:
        """Declared parameter names, in declaration order."""
        return tuple(p.name for p in self.params)

    def param(self, name: str) -> ParamSpec:
        """Look up one declared parameter (ValueError with the vocabulary)."""
        for p in self.params:
            if p.name == name:
                return p
        raise ValueError(
            f"unknown param {name!r}; declared: {list(self.names)}"
        )

    def sweepable_names(self) -> tuple[str, ...]:
        """The axes a sweep grid may vary."""
        return tuple(p.name for p in self.params if p.sweepable)

    def validate(self, overrides: Mapping[str, Any]) -> dict:
        """Coerce keyword overrides, rejecting unknown names."""
        return {
            name: self.param(name).coerce(value)
            for name, value in overrides.items()
        }

    def resolve(self, overrides: Mapping[str, Any]) -> dict:
        """The full parameter dict: defaults overlaid with overrides."""
        validated = self.validate(overrides)
        return {
            p.name: validated.get(p.name, p.default) for p in self.params
        }


def canonical_params(params: Mapping[str, Any]) -> dict:
    """JSON-canonical form of a resolved parameter dict.

    Tuples become lists (JSON has no tuple); anything that is not a
    JSON scalar/list/dict raises a ``TypeError`` naming the parameter,
    because a run keyed on it would not be content-complete.
    """

    def convert(name: str, value: Any) -> Any:
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if isinstance(value, (list, tuple)):
            return [convert(name, v) for v in value]
        if isinstance(value, dict):
            return {str(k): convert(name, v) for k, v in value.items()}
        raise TypeError(
            f"param {name!r} has non-storable value {value!r}; runs "
            "overriding object params cannot be content-addressed"
        )

    return {name: convert(name, value) for name, value in params.items()}


def canonical_json(payload: Any) -> str:
    """The one canonical JSON rendering used for keys and checksums."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def run_key(
    experiment_id: str,
    params: Mapping[str, Any],
    seed: int | None = None,
    exact: bool = False,
) -> str:
    """The content address of one run: SHA-256 over id, params, seed, exact."""
    material = canonical_json(
        [RUN_KEY_SCHEMA, experiment_id, canonical_params(params), seed, exact]
    )
    return hashlib.sha256(material.encode()).hexdigest()
