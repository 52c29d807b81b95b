"""The scheduler: queue, predicate filter, scoring, binding, gang mode.

Mirrors the Kubernetes scheduling pipeline the paper describes (Section 3.5):
"(1) filtering the nodes that satisfy the pod resource requirements and
other predicate constraints, (2) ranking the candidate nodes based on
priority functions, and (3) selecting the node with the highest rank" —
with FfDL's two modifications: the Pack priority function and BSA gang
scheduling.

The scheduler is event-driven: it wakes when pods arrive, when resources
free up, and when PVCs bind, so multi-month simulations need no polling.

The queue holds units, a gang or one pod; a pass makes one attempt per
unit: validate, wait for a whole gang, decide, bind.  The decision is
``Placement.plan`` (the base class): steps (1) to (3) over every node,
as in the paper, or BSA for a gang.  The scheduler adds the queue, the
bind window, the races and the FailedScheduling messages.  What no
caller varies is a module constant here (batch delay, per-pod cost,
bind latency, order jitter).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import KubeError
from repro.kube.api import ADDED, DELETED, KubeAPI
from repro.kube.events import (
    CountedEvent,
    FAILED_SCHEDULING,
    KubeEvent,
    MESSAGE_TEMPLATES,
    PREDICATE_INSUFFICIENT_GPU,
    PREDICATE_MATCH_NODE_SELECTOR,
    PREDICATE_NODE_UNSCHEDULABLE,
    REASON_BINDING_REJECTED,
    REASON_NO_NODES,
    REASON_POD_NOT_FOUND,
    REASON_PVC_NOT_FOUND,
    REASON_SKIP_DELETING,
    SCHEDULED,
)
from repro.kube.objects import PENDING, Pod
from repro.kube.scheduling.bsa import OBJECTIVE_BALANCE, OBJECTIVE_PACK
from repro.kube.scheduling.placement import Placement, class_key
from repro.kube.scheduling.policies import PACK, check_policy
from repro.sim.core import Environment
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kube.cluster import Cluster


@dataclass
class SchedulerConfig:
    policy: str = PACK
    gang: bool = False
    #: BSA gang-placement objective: "pack" (FfDL's choice) or "balance".
    bsa_objective: str = OBJECTIVE_PACK

    def __post_init__(self) -> None:
        check_policy(self.policy)
        # BSA reads any other objective as pack: a typo would pack
        # every gang without an error.
        if self.bsa_objective not in (OBJECTIVE_PACK, OBJECTIVE_BALANCE):
            raise KubeError(f"bsa_objective must be {OBJECTIVE_PACK!r} or "
                            f"{OBJECTIVE_BALANCE!r}, not "
                            f"{self.bsa_objective!r}")


#: Informer-cache staleness: for this long after a deletion is
#: requested, the scheduler still sees the pod as live, proceeds to
#: select a node, and has the binding rejected by the (authoritative)
#: API server — the dominant mechanism behind production's 17%
#: "Binding Rejected" share.
INFORMER_STALENESS_S = 0.5
#: Coalescing delay before a scheduling pass after a wake-up.
BATCH_DELAY_S = 0.01
#: Cost of considering one pod (predicate + priority evaluation).
PER_POD_LATENCY_S = 0.003
#: API round-trip between choosing a node and the binding committing;
#: deletions landing in this window are rejected at binding time
#: (Table 8's "Binding Rejected" row).
BIND_LATENCY_S = 0.05
#: The paper observes that "the order in which learner pods are queued by
#: K8S for scheduling is non deterministic": same-instant arrivals are
#: reordered by a bounded random displacement (pods land near, but not
#: exactly at, their creation position) — the mechanism behind temporary
#: deadlocks without the gang scheduler.  This is the median displacement.
#: Its severity is redrawn (lognormally, with this sigma) for every
#: submission burst: some bursts arrive nearly in order, others heavily
#: shuffled — reproducing both the paper's 40% zero-deadlock runs and its
#: worst-case 46% idle GPUs.
ORDER_JITTER = 7.0
ORDER_JITTER_SIGMA = 1.6


class _Unit:
    """The queued members of one gang, or one pod; ``tiebreak`` orders a
    pod among same-instant arrivals with gangs off."""

    __slots__ = ("key", "size", "pod_names", "arrival_time", "tiebreak")

    def __init__(self, key: str, size: int, arrival_time: float,
                 tiebreak: float = 0.0):
        self.key = key
        self.size = size
        self.pod_names: List[str] = []
        self.arrival_time = arrival_time
        self.tiebreak = tiebreak


def gang_order(entry: _Unit) -> Tuple[float, int, str]:
    """A gang pass's order: FCFS over gangs, same-instant arrivals
    resolved largest-first (Section 3.6)."""
    return (entry.arrival_time, -entry.size, entry.key)


#: A pass's order with gangs off: creation time, then the jittered place.
pod_order = attrgetter("arrival_time", "tiebreak")


class Scheduler(Placement):
    """Places pending pods onto nodes."""

    def __init__(self, env: Environment, api: KubeAPI, cluster: "Cluster",
                 rng: RngRegistry,
                 config: Optional[SchedulerConfig] = None):
        self.config = config or SchedulerConfig()
        super().__init__(self.config.policy, cluster.allocations,
                         self.config.bsa_objective)
        self.env = env
        self.api = api
        self.cluster = cluster
        self.rng = rng.stream("scheduler")
        #: Queued pod name -> its ``class_key``.  Taken once, at
        #: creation: nothing writes a pod's request (a frozen dataclass)
        #: or its selector afterwards.
        self._queue: Dict[str, tuple] = {}
        self._enqueue_seq = 0
        self._burst_jitter = ORDER_JITTER
        #: Gang name, or pod name -> its unit; with gangs off, exactly
        #: the queued pods, one each.
        self._units: Dict[str, _Unit] = {}
        self._wake = env.event()
        self.pods_scheduled = 0
        #: PVC deletions the informer may not have observed yet, oldest
        #: first; an entry lives for ``INFORMER_STALENESS_S``.
        self._pvc_deleted_at: Dict[str, float] = {}
        #: Injected races (FailedScheduling reasons), each failing the
        #: next placement attempt that gets past the other checks.
        self._races: List[str] = []
        #: pod name -> (owner uid, node name) as last seen by the
        #: tracker, so MODIFIED/DELETED events translate into exact
        #: count deltas.
        self._pod_placement: Dict[str, tuple] = {}
        #: Queued pod -> its FailedScheduling records by (reason, message),
        #: folding repeats; dropped with the pod's queue entry.
        self._failures: Dict[str, Dict[Tuple[str, str], CountedEvent]] = {}
        api.subscribe("pods", self._on_pod_change)
        api.subscribe("pvcs", self._on_pvc_change)
        api.subscribe("nodes", self._on_node_change)
        self._loop = env.process(self._run(), name="scheduler")

    # -- queue management -------------------------------------------------------

    def _on_pod_change(self, verb: str, pod: Pod) -> None:
        self._track_placement(verb, pod)
        if verb != ADDED:
            return
        if pod.phase != PENDING or pod.node_name is not None:
            return
        if not self._queue:
            # A new submission burst: redraw the reorder severity.
            self._burst_jitter = ORDER_JITTER * \
                self.rng.lognormvariate(0.0, ORDER_JITTER_SIGMA)
        self._enqueue_seq += 1
        tiebreak = self._enqueue_seq + \
            self.rng.uniform(0.0, self._burst_jitter)
        name = pod.name
        self._queue[name] = class_key(
            pod.spec.resources, pod.spec.node_selector, not self.config.gang)
        if self.config.gang:
            key = pod.spec.gang_name or name
            unit = self._units.get(key)
            if unit is None:
                unit = self._units[key] = _Unit(key, pod.spec.gang_size,
                                                self.env.now)
            unit.size = max(unit.size, pod.spec.gang_size)
        else:
            unit = self._units[name] = _Unit(name, 1, self.env.now, tiebreak)
        if name not in unit.pod_names:  # a replacement may reuse a name
            unit.pod_names.append(name)
        self.kick()

    def _track_placement(self, verb: str, pod: Pod) -> None:
        """Maintain the (owner, node) count index from pod watch events.

        Every store mutation emits a watch event (create ADDED, bind /
        phase change MODIFIED, removal DELETED), so the index mirrors
        ``len(api.list_pods(owner=o, node_name=n))`` exactly for owned
        pods, also through the bind commit and the pod object's removal,
        which no ``reserve``/``release`` journals.  Owner-less pods are
        skipped: ``best_node`` never asks for them.
        """
        new = None
        if verb != DELETED and pod.node_name is not None \
                and pod.meta.owner is not None:
            new = (pod.meta.owner, pod.node_name)
        old = self._pod_placement.pop(pod.name, None)
        if new is not None:
            self._pod_placement[pod.name] = new
        if old != new:
            for placement, delta in ((old, -1), (new, 1)):
                if placement is not None:
                    self.count_owner(*placement, delta)

    def _on_pvc_change(self, verb: str, pvc) -> None:
        if verb != DELETED:
            return
        # An entry older than the staleness window answers "claim
        # missing", as no entry does: the table holds one window's
        # deletions, not the run's.
        deleted, now = self._pvc_deleted_at, self.env.now
        while deleted:
            oldest = next(iter(deleted))
            if now - deleted[oldest] < INFORMER_STALENESS_S:
                break
            del deleted[oldest]
        deleted.pop(pvc.name, None)  # re-insert: keep oldest-first order
        deleted[pvc.name] = now

    def _on_node_change(self, verb: str, node) -> None:
        # Every ready/cordon transition funnels through update_node.
        # Nothing is evaluated here (``Cluster.add_node`` publishes a node
        # before its allocation exists), and waking stays the caller's.
        if verb == ADDED:
            self.add_node(node)
        else:
            self.invalidate(node.name)

    def inject_race(self, reason: str) -> None:
        """Fail the next placement attempt with ``reason``: Table 8's
        rare rows, an API-server timeout or a stale assume-cache entry."""
        self._races.append(reason)

    def kick(self) -> None:
        """Wake the scheduling loop (new pod, freed resources, bound PVC)."""
        if not self._wake.triggered:
            self._wake.succeed()

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    # -- main loop -----------------------------------------------------------------

    def _run(self):
        while True:
            if not self._queue:
                self._wake = self.env.event()
                yield self._wake
                continue
            yield self.env.timeout(BATCH_DELAY_S)
            # Arm the next wake before the pass so kicks during it are kept.
            self._wake = self.env.event()
            yield from self._pass()
            if self._queue and not self._wake.triggered:
                yield self._wake

    def _pass(self):
        order = gang_order if self.config.gang else pod_order
        for unit in sorted(self._units.values(), key=order):
            if unit.key not in self._units:
                continue
            yield self.env.timeout(PER_POD_LATENCY_S *
                                   max(1, len(unit.pod_names)))
            yield from self._attempt(unit)

    # -- one attempt ---------------------------------------------------------------------

    def _attempt(self, unit: _Unit):
        pods: List[Pod] = []
        keys: List[tuple] = []
        for name in list(unit.pod_names):
            pod = self._validate_queued_pod(name)
            if name not in self._queue:
                # Dequeued; a deleted member's replacement rejoins.
                unit.pod_names.remove(name)
            elif pod is None:
                return  # deferred (PVC/race): retry this unit later
            else:
                pods.append(pod)
                keys.append(self._queue[name])
        if not unit.pod_names:
            self._units.pop(unit.key, None)
            return
        if len(unit.pod_names) < unit.size:
            # Members already placed and alive (e.g. the rest of a gang
            # whose one pod was lost to a node failure and recreated)
            # count toward completeness — the replacement must not wait
            # for peers that are already running.
            placed = sum(
                1 for other in self.api.list_pods()
                if other.spec.gang_name == unit.key
                and other.node_name is not None
                and not other.is_terminal
                and other.name not in unit.pod_names)
            if placed + len(unit.pod_names) < unit.size:
                return  # wait for the rest of the gang to be created
        assignment, unplaced = self.plan(pods, keys, self.rng)
        for pod in unplaced:
            self._emit(pod.name, REASON_NO_NODES, pod,
                       predicates=self._predicate_summary(pod))
        if assignment is None:
            return
        self._units.pop(unit.key, None)
        yield from self._bind_with_window(pods, assignment)

    def _validate_queued_pod(self, name: str) -> Optional[Pod]:
        """An attempt's checks of one member; returns the pod or None
        (not queued, or deferred)."""
        if name not in self._queue:
            return None
        pod = self.api.try_get_pod(name)
        if pod is None:
            self._emit(name, REASON_POD_NOT_FOUND)
            self._dequeue(name)
            return None
        if pod.meta.deletion_requested:
            staleness = self.env.now - pod.meta.deletion_requested_at
            if staleness < INFORMER_STALENESS_S:
                # The scheduler's informer cache has not seen the deletion
                # yet: proceed; the API server will reject the binding.
                return pod
            self._emit(name, REASON_SKIP_DELETING, pod)
            self._dequeue(name)
            return None
        if pod.node_name is not None:
            self._dequeue(name)
            return None
        missing_claim = self._missing_claim(pod)
        if missing_claim is not None:
            self._emit(name, REASON_PVC_NOT_FOUND, pod, claim=missing_claim,
                       n=1)
            return None
        if self._races:
            self._emit(name, self._races.pop(0), pod)
            return None
        return pod

    def _missing_claim(self, pod: Pod) -> Optional[str]:
        for claim in pod.spec.volume_claims:
            pvc = self.api.try_get_pvc(claim)
            if pvc is None:
                deleted_at = self._pvc_deleted_at.get(claim)
                if deleted_at is not None and \
                        self.env.now - deleted_at < \
                        INFORMER_STALENESS_S:
                    # The informer still shows the claim as bound; the
                    # binding API call will be the one to reject it.
                    continue
                return claim
            if not pvc.bound:
                return claim
        return None

    def _bind_with_window(self, pods: List[Pod],
                          assignment: Dict[str, str]) -> None:
        """Reserve resources, wait out the binding API round-trip, then
        commit — rejecting pods that were deleted in the window."""
        for pod in pods:
            self.cluster.reserve(pod, assignment[pod.name])
            self._dequeue(pod.name)
        yield self.env.timeout(BIND_LATENCY_S)
        for pod in pods:
            node_name = assignment[pod.name]
            if pod.meta.deletion_requested or \
                    not self.api.exists("pods", pod.name):
                self._emit(pod.name, REASON_BINDING_REJECTED, pod)
                self.cluster.release(pod)
                continue
            self.api.bind_pod(pod, node_name)
            self.pods_scheduled += 1
            self.api.record_event(KubeEvent(
                self.env.now, SCHEDULED, "Pod", pod.name,
                message=f"bound to {node_name}",
                pod_type=pod.meta.labels.get("type")))

    # -- events --------------------------------------------------------------------------------

    def _predicate_summary(self, pod: Pod) -> str:
        """Why no node fits, per predicate, as FailedScheduling says it
        (the index's ``predicate_counts``)."""
        counts = self.predicate_counts(pod.spec.node_selector,
                                       self._queue[pod.name])
        reasons = [f"{predicate} ({count})" for predicate, count in zip(
            (PREDICATE_INSUFFICIENT_GPU, PREDICATE_MATCH_NODE_SELECTOR,
             PREDICATE_NODE_UNSCHEDULABLE), counts) if count]
        return ", ".join(reasons) or "Insufficient resources"

    def _emit(self, pod_name: str, reason: str, pod: Optional[Pod] = None,
              **fields) -> None:
        """Record a FailedScheduling, or fold a queued pod's repeat into
        its record (client-go's event correlator, ``events_cache.go``)."""
        message = MESSAGE_TEMPLATES[reason].format(pod=pod_name, **fields)
        record = self._failures.get(pod_name, {}).get((reason, message))
        if record is not None:
            record.count += 1
            record.last_time = self.env.now
            return
        pod_type = pod.meta.labels.get("type") if pod is not None else None
        record = CountedEvent(self.env.now, FAILED_SCHEDULING, "Pod",
                              pod_name, reason, message, pod_type)
        self.api.record_event(record)
        if pod_name in self._queue:
            self._failures.setdefault(pod_name, {})[reason, message] = record

    def _dequeue(self, name: str) -> None:
        self._queue.pop(name, None)
        self._failures.pop(name, None)
