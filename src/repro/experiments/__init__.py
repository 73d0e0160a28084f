"""Experiment registry: one runner per paper figure / claim / theorem.

Importing this package registers every experiment; use
``run_experiment("T1b")`` or iterate ``all_experiments()``.
"""

from .registry import (
    Experiment,
    ExperimentReport,
    all_experiments,
    get_experiment,
    register,
    run_experiment,
)
from .stats import ProportionEstimate, intervals_overlap, wilson_interval
from .tables import format_value, render_kv, render_rows, render_table

# Importing the runner modules registers them.
from . import ablations as _ablations  # noqa: F401
from . import attacks as _attacks  # noqa: F401
from . import average_case as _average_case  # noqa: F401
from . import claim31 as _claim31  # noqa: F401
from . import edge_partition_exp as _edge_partition_exp  # noqa: F401
from . import exact_cc as _exact_cc  # noqa: F401
from . import figure1 as _figure1  # noqa: F401
from . import gap as _gap  # noqa: F401
from . import figure2 as _figure2  # noqa: F401
from . import lemma41 as _lemma41  # noqa: F401
from . import lemmas as _lemmas  # noqa: F401
from . import remark36 as _remark36  # noqa: F401
from . import robustness as _robustness  # noqa: F401
from . import rs_params as _rs_params  # noqa: F401
from . import stability as _stability  # noqa: F401
from . import streams_exp as _streams_exp  # noqa: F401
from . import theorem1 as _theorem1  # noqa: F401
from . import theorem2 as _theorem2  # noqa: F401
from . import upper_bounds as _upper_bounds  # noqa: F401
from . import upper_bounds_ext as _upper_bounds_ext  # noqa: F401

__all__ = [
    "Experiment",
    "ExperimentReport",
    "ProportionEstimate",
    "all_experiments",
    "format_value",
    "get_experiment",
    "intervals_overlap",
    "register",
    "render_kv",
    "render_rows",
    "render_table",
    "run_experiment",
    "wilson_interval",
]
