"""Exact finite information theory (Section 2.3 of the paper).

Two interchangeable distribution implementations live here: the
columnar log-space :class:`TableDistribution` kernel (``table.py``, the
default on all hot paths) and the original dict-of-tuples
:class:`JointDistribution` oracle (``reference.py``), kept for the
oracle registry's ``infotheory`` pair and the differential suite.  Both
share the same observable API — marginal / condition / support /
probability / entropy / mutual_information plus the ``items()`` /
``get()`` accessors the divergence helpers run on.
"""

from .reference import NORMALIZATION_TOLERANCE, JointDistribution, Outcome
from .table import Codebook, TableBuilder, TableDistribution
from .divergences import (
    fano_error_lower_bound,
    kl_divergence,
    mutual_information_via_kl,
    optimal_guess_error,
    pinsker_bound,
    product_of_marginals,
    total_variation,
)
from .estimators import (
    empirical_distribution,
    miller_madow_entropy,
    plugin_entropy,
    plugin_mutual_information,
)
from .facts import (
    FactCheck,
    fact_22_1_entropy_range,
    fact_22_2_nonnegative_mi,
    fact_22_3_conditioning_reduces_entropy,
    fact_22_4_chain_rule_entropy,
    fact_22_5_chain_rule_mi,
    proposition_23,
    proposition_24,
)

__all__ = [
    "Codebook",
    "FactCheck",
    "JointDistribution",
    "NORMALIZATION_TOLERANCE",
    "Outcome",
    "TableBuilder",
    "TableDistribution",
    "empirical_distribution",
    "fact_22_1_entropy_range",
    "fact_22_2_nonnegative_mi",
    "fact_22_3_conditioning_reduces_entropy",
    "fact_22_4_chain_rule_entropy",
    "fact_22_5_chain_rule_mi",
    "fano_error_lower_bound",
    "kl_divergence",
    "miller_madow_entropy",
    "mutual_information_via_kl",
    "optimal_guess_error",
    "pinsker_bound",
    "plugin_entropy",
    "plugin_mutual_information",
    "product_of_marginals",
    "proposition_23",
    "proposition_24",
    "total_variation",
]
