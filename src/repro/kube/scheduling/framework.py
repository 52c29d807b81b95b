"""The scheduler: queue, predicate filter, scoring, binding, gang mode.

Mirrors the Kubernetes scheduling pipeline the paper describes (Section 3.5):
"(1) filtering the nodes that satisfy the pod resource requirements and
other predicate constraints, (2) ranking the candidate nodes based on
priority functions, and (3) selecting the node with the highest rank" —
with FfDL's two modifications: the Pack priority function and BSA gang
scheduling.

The scheduler is event-driven: it wakes when pods arrive, when resources
free up, and when PVCs bind, so multi-month simulations need no polling.

Steps (1) to (3) are the candidate index's (``placement.Placement``, the
base class), over every node for every attempt, as in the paper; the
scheduler adds the queue, the bind window, the races, gangs and the
FailedScheduling messages.  What no caller varies is a module constant
here (batch delay, per-pod cost, bind latency, order jitter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import KubeError
from repro.kube.api import ADDED, DELETED, KubeAPI
from repro.kube.events import (
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
from repro.kube.scheduling.bsa import (
    OBJECTIVE_BALANCE,
    OBJECTIVE_PACK,
    bsa_place,
)
from repro.kube.scheduling.placement import Placement, selector_matches
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
    #: The paper observes that "the order in which learner pods are queued
    #: by K8S for scheduling is non deterministic".  When True (default),
    #: same-instant arrivals are reordered by a bounded random displacement
    #: (pods land near, but not exactly at, their creation position) — the
    #: mechanism behind temporary deadlocks without the gang scheduler.
    nondeterministic_order: bool = True

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
#: Median queue-position displacement of the nondeterministic reordering.
#: The severity is redrawn (lognormally, with this sigma) for every
#: submission burst: some bursts arrive nearly in order, others heavily
#: shuffled — reproducing both the paper's 40% zero-deadlock runs and its
#: worst-case 46% idle GPUs.
ORDER_JITTER = 7.0
ORDER_JITTER_SIGMA = 1.6


@dataclass
class _GangEntry:
    key: str
    size: int
    pod_names: List[str] = field(default_factory=list)
    arrival_time: float = 0.0

    @property
    def complete(self) -> bool:
        return len(self.pod_names) >= self.size


def gang_order(entry: _GangEntry) -> Tuple[float, int, str]:
    """A gang pass's order: FCFS over gangs, same-instant arrivals
    resolved largest-first (Section 3.6)."""
    return (entry.arrival_time, -entry.size, entry.key)


class Scheduler(Placement):
    """Places pending pods onto nodes."""

    def __init__(self, env: Environment, api: KubeAPI, cluster: "Cluster",
                 rng: RngRegistry,
                 config: Optional[SchedulerConfig] = None):
        self.config = config or SchedulerConfig()
        super().__init__(self.config.policy, cluster.allocations)
        self.env = env
        self.api = api
        self.cluster = cluster
        self.rng = rng.stream("scheduler")
        self._queue: Dict[str, tuple] = {}  # pod name -> (time, tiebreak)
        self._enqueue_seq = 0
        self._burst_jitter = ORDER_JITTER
        self._gangs: Dict[str, _GangEntry] = {}
        self._wake = env.event()
        self.pods_scheduled = 0
        #: PVC deletions the informer may not have observed yet, oldest
        #: first; an entry lives for ``INFORMER_STALENESS_S``.
        self._pvc_deleted_at: Dict[str, float] = {}
        #: Injected races (FailedScheduling reasons), each failing the
        #: next placement attempt that gets past the other checks.
        self._races: List[str] = []
        #: ``_predicate_summary`` by (sorted selector items, wanted
        #: GPUs), valid while the journal ends at ``_summaries_at``.
        self._summaries: Dict[tuple, str] = {}
        self._summaries_at = 0
        #: pod name -> (owner uid, node name) as last seen by the
        #: tracker, so MODIFIED/DELETED events translate into exact
        #: count deltas.
        self._pod_placement: Dict[str, tuple] = {}
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
        if not self._queue and self.config.nondeterministic_order:
            # A new submission burst: redraw the reorder severity.
            self._burst_jitter = ORDER_JITTER * \
                self.rng.lognormvariate(0.0, ORDER_JITTER_SIGMA)
        self._enqueue_seq += 1
        tiebreak = float(self._enqueue_seq)
        if self.config.nondeterministic_order:
            tiebreak += self.rng.uniform(0.0, self._burst_jitter)
        self._queue[pod.name] = (self.env.now, tiebreak)
        if self.config.gang:
            key = pod.spec.gang_name or pod.name
            entry = self._gangs.get(key)
            if entry is None:
                entry = _GangEntry(key, pod.spec.gang_size,
                                   arrival_time=self.env.now)
                self._gangs[key] = entry
            entry.size = max(entry.size, pod.spec.gang_size)
            entry.pod_names.append(pod.name)
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
            if self.config.gang:
                yield from self._gang_pass()
            else:
                yield from self._pod_pass()
            if self._queue and not self._wake.triggered:
                yield self._wake

    def _pod_pass(self):
        for name in sorted(self._queue, key=self._queue.get):
            if name not in self._queue:
                continue
            yield self.env.timeout(PER_POD_LATENCY_S)
            yield from self._attempt_pod(name)

    def _gang_pass(self):
        for entry in sorted(self._gangs.values(), key=gang_order):
            if entry.key not in self._gangs:
                continue
            yield self.env.timeout(PER_POD_LATENCY_S *
                                   max(1, len(entry.pod_names)))
            yield from self._attempt_gang(entry)

    # -- single-pod scheduling ----------------------------------------------------------

    def _attempt_pod(self, name: str):
        pod = self._validate_queued_pod(name)
        if pod is None:
            return
        node_name = self.best_node(pod.spec.resources, pod.spec.node_selector,
                                   pod.meta.owner)
        if node_name is None:
            self._record_no_nodes(pod)
            return
        yield from self._bind_with_window([(pod, node_name)])

    def _validate_queued_pod(self, name: str) -> Optional[Pod]:
        """Common per-attempt checks; returns the pod or None (dequeued or
        deferred)."""
        pod = self.api.try_get_pod(name)
        if pod is None:
            self._emit(name, REASON_POD_NOT_FOUND,
                       MESSAGE_TEMPLATES[REASON_POD_NOT_FOUND].format(
                           pod=name))
            self._dequeue(name)
            return None
        if pod.meta.deletion_requested:
            staleness = self.env.now - pod.meta.deletion_requested_at
            if staleness < INFORMER_STALENESS_S:
                # The scheduler's informer cache has not seen the deletion
                # yet: proceed; the API server will reject the binding.
                return pod
            self._emit(name, REASON_SKIP_DELETING,
                       MESSAGE_TEMPLATES[REASON_SKIP_DELETING].format(
                           pod=name), pod)
            self._dequeue(name)
            return None
        if pod.node_name is not None:
            self._dequeue(name)
            return None
        missing_claim = self._missing_claim(pod)
        if missing_claim is not None:
            self._emit(name, REASON_PVC_NOT_FOUND,
                       MESSAGE_TEMPLATES[REASON_PVC_NOT_FOUND].format(
                           claim=missing_claim, n=1), pod)
            return None
        if self._races:
            reason = self._races.pop(0)
            self._emit(name, reason,
                       MESSAGE_TEMPLATES[reason].format(pod=name), pod)
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

    def _bind_with_window(self, placements) -> None:
        """Reserve resources, wait out the binding API round-trip, then
        commit — rejecting pods that were deleted in the window."""
        for pod, node_name in placements:
            self.cluster.reserve(pod, node_name)
            self._dequeue(pod.name)
        yield self.env.timeout(BIND_LATENCY_S)
        for pod, node_name in placements:
            if pod.meta.deletion_requested or \
                    not self.api.exists("pods", pod.name):
                self._emit(pod.name, REASON_BINDING_REJECTED,
                           MESSAGE_TEMPLATES[REASON_BINDING_REJECTED]
                           .format(pod=pod.name), pod)
                self.cluster.release(pod)
                continue
            self.cluster.bind_reserved(pod, node_name)
            self.pods_scheduled += 1
            self.api.record_event(KubeEvent(
                self.env.now, SCHEDULED, "Pod", pod.name,
                message=f"bound to {node_name}",
                pod_type=pod.meta.labels.get("type")))

    # -- gang scheduling -------------------------------------------------------------------

    def _attempt_gang(self, entry: _GangEntry):
        # Validate members first (drops deleted/skipped pods from the gang).
        pods: List[Pod] = []
        for name in list(entry.pod_names):
            if name not in self._queue:
                entry.pod_names.remove(name)
                continue
            pod = self._validate_queued_pod(name)
            if pod is None:
                if name not in self._queue:
                    # Permanently dropped (deleted); a set controller will
                    # recreate it and the replacement will rejoin the gang.
                    entry.pod_names.remove(name)
                    continue
                return  # deferred (PVC/race): retry this gang later
            pods.append(pod)
        if not entry.pod_names:
            self._gangs.pop(entry.key, None)
            return
        if not entry.complete:
            # Members already placed and alive (e.g. the rest of a gang
            # whose one pod was lost to a node failure and recreated)
            # count toward completeness — the replacement must not wait
            # for peers that are already running.
            placed = sum(
                1 for other in self.api.list_pods()
                if other.spec.gang_name == entry.key
                and other.node_name is not None
                and not other.is_terminal
                and other.name not in entry.pod_names)
            if placed + len(entry.pod_names) < entry.size:
                return  # wait for the rest of the gang to be created
        eligible = {pod.name: self.feasible_nodes(pod.spec.resources,
                                                  pod.spec.node_selector)
                    for pod in pods}
        empty = [pod for pod in pods if not eligible[pod.name]]
        if empty:
            for pod in empty:
                self._record_no_nodes(pod)
            return
        assignment = bsa_place(pods, self.cluster.allocations, eligible,
                               self.rng, objective=self.config.bsa_objective)
        if assignment is None:
            for pod in pods:
                self._record_no_nodes(pod)
            return
        self._gangs.pop(entry.key, None)
        yield from self._bind_with_window(
            [(pod, assignment[pod.name]) for pod in pods])

    # -- events --------------------------------------------------------------------------------

    def _record_no_nodes(self, pod: Pod) -> None:
        predicates = self._predicate_summary(pod)
        self._emit(pod.name, REASON_NO_NODES,
                   MESSAGE_TEMPLATES[REASON_NO_NODES].format(
                       predicates=predicates), pod)

    def _predicate_summary(self, pod: Pod) -> str:
        """Why no node fits, per predicate, as FailedScheduling says it.

        It reads each node's readiness (``update_node``), free GPUs
        (``reserve`` / ``release``) and the node list (additions) — all
        journalled — and labels, which are fixed at creation.  So one
        scan serves every pod of a (selector, GPUs) shape until the
        journal moves.
        """
        end = self._journal_start + len(self._journal)
        if self._summaries_at != end:
            self._summaries, self._summaries_at = {}, end
        key = (tuple(sorted(pod.spec.node_selector.items())),
               pod.spec.resources.gpus)
        summary = self._summaries.get(key)
        if summary is None:
            summary = self._summaries[key] = self._scan_predicates(pod)
        return summary

    def _scan_predicates(self, pod: Pod) -> str:
        wanted_gpus = pod.spec.resources.gpus
        short_gpu = selector_miss = unready = 0
        for node in self._nodes.values():
            matches = selector_matches(pod.spec.node_selector, node)
            if not matches:
                selector_miss += 1
            if not node.is_ready:
                unready += 1
            elif matches and wanted_gpus > 0 and \
                    self.allocations[node.name].free_gpus < wanted_gpus:
                short_gpu += 1
        reasons = [f"{predicate} ({count})" for predicate, count in (
            (PREDICATE_INSUFFICIENT_GPU, short_gpu),
            (PREDICATE_MATCH_NODE_SELECTOR, selector_miss),
            (PREDICATE_NODE_UNSCHEDULABLE, unready)) if count]
        return ", ".join(reasons) or "Insufficient resources"

    def _emit(self, pod_name: str, reason: str, message: str,
              pod: Optional[Pod] = None) -> None:
        pod_type = pod.meta.labels.get("type") if pod is not None else None
        self.api.record_event(KubeEvent(
            self.env.now, FAILED_SCHEDULING, "Pod", pod_name,
            reason=reason, message=message, pod_type=pod_type))

    def _dequeue(self, name: str) -> None:
        self._queue.pop(name, None)
