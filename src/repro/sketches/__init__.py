"""Upper-bound sketch algorithms the paper contrasts against.

These are the problems that *do* admit polylog(n)-bit sketches
(introduction of the paper): spanning forest / connectivity via AGM,
the footnote-1 crossing-edge protocol, and (Δ+1)-coloring via palette
sparsification.  They share the L0-sampling machinery built here, whose
families run on the mergeable :mod:`~repro.sketches.core` runtime.
Every sketch builds all players' messages in one batched pass on a
frozen graph.  Where that pass shares work between players (an L0
family, a public palette), per-view construction is the differential
oracle.  The sketches whose message depends on the player's own row
alone (private-coin coloring and the consistent-sampling
densest-subgraph, degeneracy and triangle sketches) write that rule
once, as a :class:`~repro.model.RowSketchProtocol` whose per-view
``sketch`` is its one-row case (see ``docs/sketches.md``).
"""

from .agm import AGMParameters, AGMSpanningForest
from .certificate import ConnectivityCertificate, certificate_min_cut
from .coloring import (
    ColoringResult,
    PaletteSparsificationColoring,
    PrivateCoinColoring,
    is_proper_coloring,
    sample_palette,
)
from .connectivity import AGMConnectivity
from .core import (
    L0Block,
    L0FamilyParams,
    L0FamilyState,
    SketchFamily,
    derive_family,
)
from .crossing_edge import CrossingEdgeProtocol, CrossingEdgeResult
from .degeneracy import DegeneracyEstimate, DegeneracySketch
from .densest import DensestSubgraphResult, DensestSubgraphSketch, edge_sampled
from .incidence import coordinate_edge, edge_coordinate, incidence_entries
from .triangles import TriangleCountSketch, TriangleEstimate
from .l0sampler import L0Config, L0Sampler
from .onesparse import DEFAULT_MODULUS, OneSparse

__all__ = [
    "AGMConnectivity",
    "AGMParameters",
    "AGMSpanningForest",
    "ColoringResult",
    "ConnectivityCertificate",
    "CrossingEdgeProtocol",
    "CrossingEdgeResult",
    "DEFAULT_MODULUS",
    "DegeneracyEstimate",
    "DegeneracySketch",
    "DensestSubgraphResult",
    "DensestSubgraphSketch",
    "L0Block",
    "L0Config",
    "L0FamilyParams",
    "L0FamilyState",
    "L0Sampler",
    "OneSparse",
    "SketchFamily",
    "PaletteSparsificationColoring",
    "PrivateCoinColoring",
    "TriangleCountSketch",
    "TriangleEstimate",
    "certificate_min_cut",
    "coordinate_edge",
    "derive_family",
    "edge_coordinate",
    "edge_sampled",
    "incidence_entries",
    "is_proper_coloring",
    "sample_palette",
]
