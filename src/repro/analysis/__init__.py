"""Analysis helpers: CDFs, table rendering, fast placement replay, and
the failure analyses of Figs 6-8 and Table 8."""

from repro.analysis.cdf import (
    cdf_at,
    empirical_cdf,
    probability_of_zero,
    quantile,
)
from repro.analysis.failures import (
    deletion_percent_by_day,
    failed_pods_by_reason,
    failed_pods_by_type,
    learner_deletion_percent_by_month,
    shares,
)
from repro.analysis.schedreplay import (
    PRODUCTION_NODES,
    PlacementReplayer,
    QUEUE_THRESHOLD_S,
    ReplayResult,
    compare_policies,
)
from repro.analysis.tables import format_table, print_table

__all__ = [
    "PRODUCTION_NODES",
    "PlacementReplayer",
    "QUEUE_THRESHOLD_S",
    "ReplayResult",
    "cdf_at",
    "compare_policies",
    "deletion_percent_by_day",
    "empirical_cdf",
    "failed_pods_by_reason",
    "failed_pods_by_type",
    "format_table",
    "learner_deletion_percent_by_month",
    "print_table",
    "probability_of_zero",
    "quantile",
    "shares",
]
