"""Section 5.6's failure analyses over a cluster's logs.

The paper classifies four months of scheduler logs and pod deletions;
these functions classify a simulated cluster's the same way:

* Figure 6 — FailedScheduling events by pod type (unique pod names);
* Table 8 — FailedScheduling events by reason (unique pod/reason pairs);
* Figure 7 — per-day percentage of pod deletions caused by node failures;
* Figure 8 — per-month percentage of learner pod deletions caused by node
  failures.

``events`` is a cluster's ``api.event_log`` and ``deletions`` its
``deletion_log`` of ``(time, pod_name, pod_type, cause)`` records.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Optional, Tuple

from repro.kube.events import FAILED_SCHEDULING
from repro.workloads.trace import SECONDS_PER_DAY

#: The deletion cause the node controller records.
NODE_FAILURE = "node-failure"

Deletion = Tuple[float, str, Optional[str], str]


def shares(counts: Dict[str, int]) -> Dict[str, float]:
    """Each count as a fraction of their total."""
    total = sum(counts.values()) or 1
    return {key: count / total for key, count in counts.items()}


def failed_pods_by_type(events) -> Dict[str, int]:
    """Figure 6: unique failed-scheduling pod names by pod type."""
    types: Dict[str, str] = {}
    for event in events.of_kind(FAILED_SCHEDULING):
        types.setdefault(event.object_name, event.pod_type or "other")
    return dict(Counter(types.values()))


def failed_pods_by_reason(events) -> Dict[str, int]:
    """Table 8: unique (pod, reason) pairs by reason."""
    pairs = {(event.object_name, event.reason): None
             for event in events.of_kind(FAILED_SCHEDULING)}
    return dict(Counter(reason for _pod, reason in pairs))


def deletion_percent_by_day(deletions: Iterable[Deletion],
                            days: int) -> Dict[int, float]:
    """Figure 7: percent of each day's pod deletions due to node
    failures, for the days in ``range(days)`` that deleted any pod."""
    total: Counter = Counter()
    node_failure: Counter = Counter()
    for time, _name, _type, cause in deletions:
        day = int(time // SECONDS_PER_DAY)
        total[day] += 1
        node_failure[day] += cause == NODE_FAILURE
    return {day: 100.0 * node_failure[day] / total[day]
            for day in range(days) if total[day]}


def learner_deletion_percent_by_month(deletions: Iterable[Deletion],
                                      days: int, days_per_month: int,
                                      ) -> Dict[int, float]:
    """Figure 8: percent of each month's learner pod deletions due to
    node failures, for every whole month of ``days``."""
    total: Counter = Counter()
    node_failure: Counter = Counter()
    for time, _name, pod_type, cause in deletions:
        if pod_type == "learner":
            month = int(time // (days_per_month * SECONDS_PER_DAY))
            total[month] += 1
            node_failure[month] += cause == NODE_FAILURE
    return {month: 100.0 * node_failure[month] / total[month]
            if total[month] else 0.0
            for month in range(days // days_per_month)}
