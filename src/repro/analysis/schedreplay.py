"""Fast trace replay of placement policies (Figure 3b).

The paper's own methodology: "We then simulated the effect of using both
Spread and Pack to schedule these jobs, and measured the number of jobs
that are queued for more than 15 minutes because the requisite GPU
configuration is unavailable."  This replayer does exactly that: every
learner is placed by the scheduler's own candidate index
(:class:`~repro.kube.scheduling.placement.Placement` — the fit rule of
:class:`NodeAllocation`, the order of ``policies.score_node``), while
arrivals and completions are driven by a bare event heap instead of the
kernel, pods and kubelets, so a 60-day, ~40k-job trace replays in
seconds.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.kube.objects import Node, ObjectMeta
from repro.kube.resources import NodeAllocation, NodeCapacity, ResourceRequest
from repro.kube.scheduling.placement import Placement
from repro.kube.scheduling.policies import PACK, SPREAD, check_policy
from repro.workloads.trace import TraceJob

QUEUE_THRESHOLD_S = 15 * 60.0  # the paper's user-satisfaction threshold


@dataclass
class NodeSpec:
    count: int
    gpus: int
    gpu_type: str
    cpus: float = 64.0
    memory_gb: float = 512.0


#: The production cluster of Section 5.2: 400 GPUs (180 K80s, 220 V100s).
PRODUCTION_NODES = (NodeSpec(45, 4, "K80"), NodeSpec(55, 4, "V100"))


@dataclass
class ReplayResult:
    """Per-job queueing outcomes plus per-day aggregates."""

    days: int
    queue_times: Dict[str, float] = field(default_factory=dict)
    arrivals_per_day: Dict[int, int] = field(default_factory=dict)
    delayed_per_day: Dict[int, int] = field(default_factory=dict)

    def percent_delayed_by_day(self) -> Dict[int, float]:
        out = {}
        for day in range(self.days):
            arrived = self.arrivals_per_day.get(day, 0)
            delayed = self.delayed_per_day.get(day, 0)
            out[day] = 100.0 * delayed / arrived if arrived else 0.0
        return out

    @property
    def total_delayed(self) -> int:
        return sum(self.delayed_per_day.values())


class PlacementReplayer:
    """Replays a trace under one placement policy."""

    def __init__(self, policy: str,
                 nodes: Tuple[NodeSpec, ...] = PRODUCTION_NODES):
        check_policy(policy)
        self.policy = policy
        self.allocations: Dict[str, NodeAllocation] = {}
        self.placement = Placement(policy, self.allocations)
        for spec_index, spec in enumerate(nodes):
            for i in range(spec.count):
                name = f"n{spec_index}-{spec.gpu_type}-{i}"
                capacity = NodeCapacity(
                    cpus=spec.cpus, memory_gb=spec.memory_gb,
                    gpus=spec.gpus, gpu_type=spec.gpu_type)
                self.allocations[name] = NodeAllocation(capacity)
                # An explicit uid: the default draws from the process-wide
                # counter, and would shift every later run's uids.
                self.placement.add_node(Node(
                    meta=ObjectMeta(name=name, uid=name), capacity=capacity))

    # -- placement ------------------------------------------------------------

    def _request(self, job: TraceJob) -> ResourceRequest:
        return ResourceRequest(cpus=4.0 * job.gpus_per_learner,
                               memory_gb=24.0 * job.gpus_per_learner,
                               gpus=job.gpus_per_learner,
                               gpu_type=job.gpu_type)

    def try_place(self, job: TraceJob) -> Optional[List[str]]:
        """All-or-nothing placement of every learner: the node names (one
        per learner), reserved, or None with nothing reserved.  The job
        is the learners' owner, so Spread keeps them apart."""
        request = self._request(job)
        chosen: List[str] = []
        for _learner in range(job.learners):
            name = self.placement.best_node(request, {}, job.job_id)
            if name is None:
                self.release(job, chosen)
                return None
            self.allocations[name].allocate(request)
            self.placement.invalidate(name)
            self.placement.count_owner(job.job_id, name, 1)
            chosen.append(name)
        return chosen

    def release(self, job: TraceJob, nodes: List[str]) -> None:
        request = self._request(job)
        for name in nodes:
            self.allocations[name].release(request)
            self.placement.invalidate(name)
            self.placement.count_owner(job.job_id, name, -1)

    # -- replay loop ----------------------------------------------------------------

    def replay(self, jobs: List[TraceJob], days: int) -> ReplayResult:
        result = ReplayResult(days=days, arrivals_per_day=dict(
            Counter(job.arrival_day for job in jobs)))
        # (time, 0 = arrival / 1 = completion, seq, job, its nodes or None)
        events = [(job.arrival_s, 0, seq, job, None)
                  for seq, job in enumerate(jobs)]
        heapq.heapify(events)
        seq = len(events)
        queue: List[TraceJob] = []

        def try_queue(now: float) -> None:
            nonlocal seq
            remaining = []
            for queued in queue:
                placement = self.try_place(queued)
                if placement is None:
                    remaining.append(queued)
                    continue
                result.queue_times[queued.job_id] = now - queued.arrival_s
                heapq.heappush(events, (now + queued.duration_s, 1, seq,
                                        queued, placement))
                seq += 1
            queue[:] = remaining

        while events:
            now, _prio, _seq, job, placement = heapq.heappop(events)
            if placement is None:
                queue.append(job)
            else:
                self.release(job, placement)
            try_queue(now)
        # Jobs never placed count as delayed.
        result.delayed_per_day = dict(Counter(
            job.arrival_day for job in jobs
            if result.queue_times.get(job.job_id, float("inf")) >
            QUEUE_THRESHOLD_S))
        return result


def compare_policies(jobs: List[TraceJob], days: int,
                     nodes: Tuple[NodeSpec, ...] = PRODUCTION_NODES
                     ) -> Dict[str, ReplayResult]:
    """Replay the same trace under Spread and Pack (Figure 3b)."""
    return {policy: PlacementReplayer(policy, nodes).replay(jobs, days)
            for policy in (SPREAD, PACK)}
