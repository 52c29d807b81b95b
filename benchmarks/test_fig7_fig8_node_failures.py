"""Figures 7 and 8 — pod deletions caused by node failures.

Paper (Section 5.6): "overall the percentage of pod deletions due to node
failures is within 5% over time" (Figure 7, per day over a month), and
the monthly percentage of learner pods deleted due to node failures was
below 1% for months 1-4 with a spike to 0.52% in month 5 (Figure 8) —
"assuming all failed learner pods belonged to different training jobs ...
the cancellation of jobs due to the deletion pods was below 1%".

Reproduction: a time-compressed run (identical fault and arrival rates,
shorter horizon) with per-node crash injection; deletions are classified
by cause from the cluster's deletion log.
"""

import os
from functools import lru_cache

from repro.analysis import print_table
from repro.workloads import FailureStudyConfig, run_failure_study

from tests.golden import check

DAYS = int(os.environ.get("FFDL_NODEFAIL_DAYS", "10"))
DAYS_PER_MONTH = max(2, DAYS // 5)


@lru_cache(maxsize=1)
def run_study():
    # Both figures analyse the same run; compute it once.
    # Rates chosen to mirror production's churn-to-crash ratio: with 20
    # nodes at a 40-day MTBF, crashes are a few per ten days against
    # thousands of routine pod deletions from job completions.
    config = FailureStudyConfig(
        days=DAYS, jobs_per_day=320, seed=2,
        node_crash_mtbf_days=40.0,
        cancellation_probability=0.06,
        mean_iterations=4000)
    return run_failure_study(config)


def test_fig7_pod_deletions_by_day():
    result = run_study()
    by_day = result.deletion_percent_by_day()
    rows = [[day, f"{pct:.2f}%"] for day, pct in sorted(by_day.items())]
    print_table(["day", "% of pod deletions due to node failures"],
                rows, title=f"Figure 7 ({DAYS} days, "
                            f"{result.node_crashes} node crashes)")
    assert by_day, "no deletions recorded"
    # Paper: "within 5% over time" (with occasional spikes tolerated).
    days_over = sum(1 for pct in by_day.values() if pct > 5.0)
    assert days_over <= max(1, len(by_day) // 4)
    assert max(by_day.values()) < 15.0
    check(f"paper/fig7-days{DAYS}", {"node_crashes": result.node_crashes,
                                     "percent_by_day": by_day})


def test_fig8_learner_deletions_by_month():
    result = run_study()
    monthly = result.learner_deletion_percent_by_month(DAYS_PER_MONTH)
    rows = [[f"Month-{month + 1}", f"{pct:.4f}%"]
            for month, pct in sorted(monthly.items())]
    print_table(["month", "% of learner pods deleted (node failures)"],
                rows, title="Figure 8 (time-compressed months of "
                            f"{DAYS_PER_MONTH} days)")
    assert monthly
    # Paper: every month below ~1% (their worst month was 0.52%, and
    # job cancellation stayed below 1%).
    for month, pct in monthly.items():
        assert pct < 2.0, (month, pct)
    check(f"paper/fig8-days{DAYS}", monthly)
