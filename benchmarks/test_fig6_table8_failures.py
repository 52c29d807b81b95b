"""Figure 6 + Table 8 — scheduling-failure analysis.

Paper (Section 5.6), from four months of scheduler logs on a 680-GPU
production cluster:

* Figure 6 — distribution of FailedScheduling over pod types: >60%
  learners, ~15% lhelper, a long tail of operational pod types.
* Table 8 — distribution over failure reasons: ~64% "No nodes available
  that match all of the predicates", 17% binding rejected, 15.1% skip
  schedule deleting pod, 1.94% persistentvolumeclaim not found, 1.6% pods
  not found, 0.17% timeouts, 0.17% assume-pod races.

Reproduction: the ``fig6-table8-failures`` chaos scenario run for
``DAYS`` simulated days (a heavily loaded platform under recurring node
crashes and scheduler races); events are classified from the same
log-message taxonomy by ``repro.analysis``.  The
operational pod types of the production cluster (validation-gpu,
dvt-testbox, ...) do not exist here, so the type distribution is over
learner / lhelper / jobmonitor.
"""

import os
from dataclasses import replace
from functools import lru_cache

from repro.analysis import (
    failed_pods_by_reason,
    failed_pods_by_type,
    print_table,
    shares,
)
from repro.chaos import ChaosEngine, get_scenario
from repro.kube.events import (
    REASON_ASSUME_FAILED,
    REASON_BINDING_REJECTED,
    REASON_NO_NODES,
    REASON_POD_NOT_FOUND,
    REASON_PVC_NOT_FOUND,
    REASON_SKIP_DELETING,
    REASON_TIMEOUT,
)
from repro.workloads import SECONDS_PER_DAY

from tests.golden import check

DAYS = int(os.environ.get("FFDL_FAILURE_DAYS", "4"))

PAPER_REASONS = {
    REASON_BINDING_REJECTED: 17.05,
    REASON_TIMEOUT: 0.169,
    REASON_POD_NOT_FOUND: 1.603,
    REASON_ASSUME_FAILED: 0.169,
    REASON_PVC_NOT_FOUND: 1.94,
    REASON_SKIP_DELETING: 15.1,
    REASON_NO_NODES: 64.0,
}


@lru_cache(maxsize=1)
def run_study():
    """The run's scheduler event log; both tests analyse the same run."""
    scenario = replace(get_scenario("fig6-table8-failures"),
                       horizon_s=DAYS * SECONDS_PER_DAY)
    engine = ChaosEngine(scenario, seed=1)
    engine.run()
    return engine.target.platform.cluster.api.event_log


def test_fig6_pod_type_distribution():
    by_type = failed_pods_by_type(run_study())
    fractions = shares(by_type)
    rows = [[pod_type, f"{100 * fraction:.1f}%"]
            for pod_type, fraction in
            sorted(fractions.items(), key=lambda kv: -kv[1])]
    print_table(["pod type", "% of failed-scheduling pods"],
                rows, title="Figure 6: scheduling failures by pod type "
                            f"({sum(by_type.values())} unique pods)")
    # Paper: "more than 60% of failed scheduling pods are learners".
    assert fractions.get("learner", 0.0) > 0.60
    # Helper and guardian pods appear in the tail.
    assert fractions.get("lhelper", 0.0) > 0.0
    check(f"paper/fig6-days{DAYS}", {
        "failed_pods_by_type": by_type,
        "fractions": fractions})


def test_table8_failure_reasons():
    fractions = shares(failed_pods_by_reason(run_study()))
    rows = []
    for reason, paper_pct in sorted(PAPER_REASONS.items(),
                                    key=lambda kv: -kv[1]):
        measured = 100.0 * fractions.get(reason, 0.0)
        rows.append([reason, f"{measured:.2f}%", f"{paper_pct:.2f}%"])
    print_table(["failure reason", "measured % of pods", "paper"],
                rows, title="Table 8: scheduling-failure reasons")
    # The dominant reason is resource exhaustion, as in production.
    leading = max(fractions, key=fractions.get)
    assert leading == REASON_NO_NODES
    assert fractions[REASON_NO_NODES] > 0.45
    # Deletion races are the second family.
    deletion_family = fractions.get(REASON_SKIP_DELETING, 0) + \
        fractions.get(REASON_BINDING_REJECTED, 0) + \
        fractions.get(REASON_POD_NOT_FOUND, 0)
    assert deletion_family > 0.02
    # The rare races appear but stay rare.
    for rare in (REASON_TIMEOUT, REASON_ASSUME_FAILED):
        assert fractions.get(rare, 0.0) < 0.05
    check(f"paper/table8-days{DAYS}", fractions)
