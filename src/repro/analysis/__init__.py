"""Analysis helpers: CDFs, table rendering, fast placement replay."""

from repro.analysis.cdf import (
    cdf_at,
    empirical_cdf,
    probability_of_zero,
    quantile,
)
from repro.analysis.schedreplay import (
    NodeSpec,
    PRODUCTION_NODES,
    PlacementReplayer,
    QUEUE_THRESHOLD_S,
    ReplayResult,
    compare_policies,
)
from repro.analysis.tables import format_table, print_table

__all__ = [
    "NodeSpec",
    "PRODUCTION_NODES",
    "PlacementReplayer",
    "QUEUE_THRESHOLD_S",
    "ReplayResult",
    "cdf_at",
    "compare_policies",
    "empirical_cdf",
    "format_table",
    "print_table",
    "probability_of_zero",
    "quantile",
]
