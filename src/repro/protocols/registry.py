"""Name-based protocol construction (for the CLI and config files).

Spec syntax: ``family`` or ``family:arg1,arg2`` — e.g. ``sampled:2``,
``hybrid:3,2``, ``full``, ``priority:1``, ``linear:1``,
``low-degree:4``, ``mis-sampled:2``, ``mis-full``, ``mis-local-min``,
``mis-patched:2``.
"""

from __future__ import annotations

from ..model import SketchProtocol
from .linear import LinearL0Matching
from .matching_naive import FullNeighborhoodMIS, FullNeighborhoodMatching
from .matching_sampled import (
    DegreeAdaptiveMatching,
    HybridMatching,
    LowDegreeOnlyMatching,
    SampledEdgesMIS,
    SampledEdgesMatching,
)
from .mis_luby import OneRoundLocalMinMIS
from .priority import PatchedLocalMinMIS, PriorityEdgeMatching

_FACTORIES = {
    "full": (FullNeighborhoodMatching, 0),
    "sampled": (SampledEdgesMatching, 1),
    "degree-adaptive": (DegreeAdaptiveMatching, 1),
    "low-degree": (LowDegreeOnlyMatching, 1),
    "hybrid": (HybridMatching, 2),
    "priority": (PriorityEdgeMatching, 1),
    "linear": (LinearL0Matching, 1),
    "mis-full": (FullNeighborhoodMIS, 0),
    "mis-sampled": (SampledEdgesMIS, 1),
    "mis-local-min": (OneRoundLocalMinMIS, 0),
    "mis-patched": (PatchedLocalMinMIS, 1),
}


def available_protocols() -> list[str]:
    """The recognized protocol family names."""
    return sorted(_FACTORIES)


def make_protocol(spec: str) -> SketchProtocol:
    """Build a protocol from a ``family[:args]`` spec string.

    Each argument is one or more ASCII digits.  An unknown family, an
    empty or non-numeric argument and a wrong argument count each raise
    ``ValueError``.
    """
    family, colon, raw_args = spec.partition(":")
    if family not in _FACTORIES:
        raise ValueError(
            f"unknown protocol family {family!r}; known: {available_protocols()}"
        )
    cls, arity = _FACTORIES[family]
    raw = raw_args.split(",") if colon else []
    if not all(a.isascii() and a.isdigit() for a in raw):
        raise ValueError(
            f"protocol {family!r} takes comma-separated non-negative "
            f"integer arguments, got {raw_args!r}"
        )
    args = [int(a) for a in raw]
    if len(args) != arity:
        raise ValueError(
            f"protocol {family!r} takes {arity} integer argument(s), got {args}"
        )
    return cls(*args)


def is_mis_spec(spec: str) -> bool:
    """True iff the spec names an MIS (rather than matching) protocol."""
    return spec.partition(":")[0].startswith("mis-")
