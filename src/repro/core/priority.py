"""Priority management (the paper's "ongoing work", Section 3.6).

"More advanced priority management (PM) based on demand-driven pricing for
external users, and exponentially decreasing priorities for heavy internal
users are part of ongoing work."

This module implements both policies as an extension:

* Internal users: effective priority decays exponentially with their
  recent GPU-hours, so heavy users yield to light ones.
* External users: a demand-driven price multiplier rises with cluster
  utilization; a job's priority is what its owner is willing to pay
  relative to the current price.

The :class:`PriorityManager` produces a dispatch order for queued jobs; it
is deliberately separate from FfDL itself ("AC and PM policies ... are
logically external to FfDL").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

INTERNAL = "internal"
EXTERNAL = "external"
#: Priority of an idle internal user, and of an external one bidding at
#: the going rate.
BASE_PRIORITY = 100.0
#: How steeply the price multiplier rises with cluster utilization.
PRICE_SENSITIVITY = 2.0


@dataclass
class UsageRecord:
    """Decayed GPU-hours accounting for one user."""

    gpu_hours: float = 0.0
    last_update_s: float = 0.0


@dataclass
class PricedBid:
    """An external user's willingness to pay (multiplier over base price)."""

    user: str
    bid_multiplier: float = 1.0


class PriorityManager:
    """Computes dispatch priorities for queued jobs."""

    def __init__(self, half_life_hours: float = 24.0):
        if half_life_hours <= 0:
            raise ValueError("half life must be positive")
        self.half_life_hours = half_life_hours
        self._usage: Dict[str, UsageRecord] = {}
        self._kind: Dict[str, str] = {}
        self._bids: Dict[str, float] = {}

    # -- registration --------------------------------------------------------

    def register_internal(self, user: str) -> None:
        self._kind[user] = INTERNAL
        self._usage.setdefault(user, UsageRecord())

    def register_external(self, user: str,
                          bid_multiplier: float = 1.0) -> None:
        if bid_multiplier <= 0:
            raise ValueError("bid multiplier must be positive")
        self._kind[user] = EXTERNAL
        self._bids[user] = bid_multiplier

    def user_kind(self, user: str) -> Optional[str]:
        return self._kind.get(user)

    # -- usage accounting ------------------------------------------------------

    def _decay(self, record: UsageRecord, now_s: float) -> None:
        elapsed_hours = max(0.0, (now_s - record.last_update_s) / 3600.0)
        record.gpu_hours *= 0.5 ** (elapsed_hours / self.half_life_hours)
        record.last_update_s = now_s

    def charge(self, user: str, gpus: int, duration_s: float,
               now_s: float) -> None:
        """Record GPU consumption (called when a job finishes a slice)."""
        record = self._usage.setdefault(user, UsageRecord())
        self._decay(record, now_s)
        record.gpu_hours += gpus * duration_s / 3600.0

    def decayed_usage(self, user: str, now_s: float) -> float:
        record = self._usage.get(user)
        if record is None:
            return 0.0
        self._decay(record, now_s)
        return record.gpu_hours

    # -- pricing -----------------------------------------------------------------

    def current_price(self, cluster_utilization: float) -> float:
        """Demand-driven price multiplier: 1.0 when idle, rising steeply
        as the cluster saturates."""
        utilization = min(1.0, max(0.0, cluster_utilization))
        return 1.0 + PRICE_SENSITIVITY * utilization ** 2

    # -- priorities ----------------------------------------------------------------

    def priority(self, user: str, now_s: float,
                 cluster_utilization: float = 0.0) -> float:
        kind = self._kind.get(user, INTERNAL)
        if kind == EXTERNAL:
            price = self.current_price(cluster_utilization)
            bid = self._bids.get(user, 1.0)
            # Users bidding at or above the going rate keep full priority;
            # underbidders fall off proportionally.
            return BASE_PRIORITY * min(1.5, bid / price)
        usage = self.decayed_usage(user, now_s)
        # Exponentially decreasing priority for heavy internal users: each
        # "half-life worth" of recent consumption halves the priority.
        return BASE_PRIORITY * math.exp(-usage / (self.half_life_hours * 4))

    def dispatch_order(self, queued: Sequence[tuple], now_s: float,
                       cluster_utilization: float = 0.0) -> List[str]:
        """Order queued jobs.

        ``queued`` is a sequence of (job_id, user, submit_time_s).  Jobs
        sort by descending priority, then FCFS within equal priority.
        """
        scored = []
        for job_id, user, submit_time in queued:
            score = self.priority(user, now_s, cluster_utilization)
            scored.append((-score, submit_time, job_id))
        scored.sort()
        return [job_id for _s, _t, job_id in scored]
