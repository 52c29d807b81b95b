"""The scheduler: queue, predicate filter, scoring, binding, gang mode.

Mirrors the Kubernetes scheduling pipeline the paper describes (Section 3.5):
"(1) filtering the nodes that satisfy the pod resource requirements and
other predicate constraints, (2) ranking the candidate nodes based on
priority functions, and (3) selecting the node with the highest rank" —
with FfDL's two modifications: the Pack priority function and BSA gang
scheduling.

The scheduler is event-driven: it wakes when pods arrive, when resources
free up, and when PVCs bind, so multi-month simulations need no polling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.kube.api import ADDED, DELETED, KubeAPI
from repro.kube.events import (
    FAILED_SCHEDULING,
    KubeEvent,
    MESSAGE_TEMPLATES,
    PREDICATE_INSUFFICIENT_GPU,
    PREDICATE_MATCH_NODE_SELECTOR,
    PREDICATE_NODE_UNSCHEDULABLE,
    REASON_ASSUME_FAILED,
    REASON_BINDING_REJECTED,
    REASON_NO_NODES,
    REASON_POD_NOT_FOUND,
    REASON_PVC_NOT_FOUND,
    REASON_SKIP_DELETING,
    REASON_TIMEOUT,
    SCHEDULED,
)
from repro.kube.objects import PENDING, Pod
from repro.kube.scheduling.bsa import bsa_place
from repro.kube.scheduling.policies import PACK, score_node
from repro.sim.core import Environment
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kube.cluster import Cluster
    from repro.kube.resources import NodeAllocation


@dataclass
class SchedulerConfig:
    policy: str = PACK
    gang: bool = False
    #: Coalescing delay before a scheduling pass after a wake-up.
    batch_delay_s: float = 0.01
    #: Cost of considering one pod (predicate + priority evaluation).
    per_pod_latency_s: float = 0.003
    #: API round-trip between choosing a node and the binding committing;
    #: deletions landing in this window are rejected at binding time
    #: (Table 8's "Binding Rejected" row).
    bind_latency_s: float = 0.05
    #: BSA gang-placement objective: "pack" (FfDL's choice) or "balance".
    bsa_objective: str = "pack"
    #: Informer-cache staleness: for this long after a deletion is
    #: requested, the scheduler still sees the pod as live, proceeds to
    #: select a node, and has the binding rejected by the (authoritative)
    #: API server — the dominant mechanism behind production's 17%
    #: "Binding Rejected" share.
    informer_staleness_s: float = 0.5
    bsa_rounds: int = 8
    #: Probabilities of the rare scheduler races observed in production
    #: (Table 8): API-server timeouts and stale assume-cache failures.
    timeout_race_probability: float = 0.0
    assume_race_probability: float = 0.0
    #: Node-scoring sample size, as in upstream Kubernetes'
    #: percentageOfNodesToScore: 100 (the default) filters and scores
    #: every node.  Below 100 the filter stops at the first
    #: ``max(min_feasible_nodes_to_find, pct/100 * cluster_size)``
    #: feasible nodes found from a deterministic round-robin cursor
    #: (*sampled mode*): placements may legitimately differ from
    #: exhaustive mode, but quality metrics (fragmentation, gang wait,
    #: pending depth) must stay within the envelopes declared in
    #: ``tests/kube/test_sampling.py``.
    percentage_of_nodes_to_score: int = 100
    #: Sampling floor: below this many feasible nodes the percentage is
    #: ignored (k8s' minFeasibleNodesToFind), so small clusters always
    #: schedule exhaustively.
    min_feasible_nodes_to_find: int = 100
    #: The paper observes that "the order in which learner pods are queued
    #: by K8S for scheduling is non deterministic".  When True (default),
    #: same-instant arrivals are reordered by a bounded random displacement
    #: (pods land near, but not exactly at, their creation position) — the
    #: mechanism behind temporary deadlocks without the gang scheduler.
    nondeterministic_order: bool = True
    #: Median queue-position displacement of the reordering.  The severity
    #: is redrawn (lognormally) for every submission burst: some bursts
    #: arrive nearly in order, others heavily shuffled — reproducing both
    #: the paper's 40% zero-deadlock runs and its worst-case 46% idle GPUs.
    order_jitter: float = 7.0
    order_jitter_sigma: float = 1.6


@dataclass
class _GangEntry:
    key: str
    size: int
    pod_names: List[str] = field(default_factory=list)
    arrival_time: float = 0.0

    @property
    def complete(self) -> bool:
        return len(self.pod_names) >= self.size


class Scheduler:
    """Places pending pods onto nodes."""

    def __init__(self, env: Environment, api: KubeAPI, cluster: "Cluster",
                 rng: RngRegistry,
                 config: Optional[SchedulerConfig] = None):
        self.env = env
        self.api = api
        self.cluster = cluster
        self.config = config or SchedulerConfig()
        self.rng = rng.stream("scheduler")
        self._queue: Dict[str, tuple] = {}  # pod name -> (time, tiebreak)
        self._enqueue_seq = 0
        self._burst_jitter = self.config.order_jitter
        self._gangs: Dict[str, _GangEntry] = {}
        self._wake = env.event()
        self.pods_scheduled = 0
        #: PVC deletions the informer may not have observed yet.
        self._pvc_deleted_at: Dict[str, float] = {}
        #: Feasibility cache: node name -> {pod shape -> fits?}.  A pod's
        #: *shape* is everything the predicates look at (resource request
        #: + node selector), so pods of the same shape share verdicts.
        self._feas_cache: Dict[str, Dict[int, bool]] = {}
        #: Score cache: node name -> {(resources, owner) -> score}.
        #: A score is a pure function of the node's allocation, the pod's
        #: resource request, and the (owner, node) pod count, so entries
        #: stay valid until the node's allocation changes
        #: (``invalidate_node``) or a pod of some owner binds to /
        #: leaves the node (the placement tracker below).
        self._score_cache: Dict[str, Dict[int, float]] = {}
        #: (owner uid, node name) -> bound-pod count, maintained from pod
        #: watch events, so ``_score`` never scans the pod store.
        self._owner_node_counts: Dict[tuple, int] = {}
        #: pod name -> (owner uid, node name) as last seen by the
        #: tracker, so MODIFIED/DELETED events translate into exact
        #: count deltas.
        self._pod_placement: Dict[str, tuple] = {}
        #: Key interning for the two caches above.  The natural keys are
        #: tuples of dataclasses (resource request, selector, owner),
        #: whose ``__hash__``/``__eq__`` are expensive enough to show up
        #: when evaluated once per (pod, node); interning them to small
        #: ints once per *attempt* makes every per-node cache lookup
        #: hash an int instead.
        self._shape_ids: Dict[tuple, int] = {}
        self._score_key_ids: Dict[tuple, int] = {}
        #: Round-robin start position for sampled filtering, as in
        #: upstream k8s' ``lastScoredNodeIndex``: successive pods start
        #: their feasibility scan at different cluster offsets so the
        #: sample window rotates instead of hammering the same prefix.
        self.last_scored_node_index = 0
        #: Full predicate evaluations vs verdicts served from the cache.
        self.filter_evals = 0
        self.filter_cache_hits = 0
        #: Full score computations vs cached scores; same contract.
        self.score_evals = 0
        self.score_cache_hits = 0
        #: Nodes examined by the feasibility scan (feasible or not) —
        #: the quantity sampling shrinks.
        self.nodes_examined = 0
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
            self._burst_jitter = self.config.order_jitter * \
                self.rng.lognormvariate(0.0, self.config.order_jitter_sigma)
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
        pods.  Owner-less pods are skipped: ``_score`` never asks for
        them.  A placement change also drops the node's
        cached scores — the bind commit is the one same-owner-count
        mutation ``reserve``/``release`` invalidation does not cover.
        """
        new = None
        if verb != DELETED and pod.node_name is not None \
                and pod.meta.owner is not None:
            new = (pod.meta.owner, pod.node_name)
        old = self._pod_placement.get(pod.name)
        if old == new:
            return
        counts = self._owner_node_counts
        if old is not None:
            remaining = counts.get(old, 0) - 1
            if remaining > 0:
                counts[old] = remaining
            else:
                counts.pop(old, None)
            self._score_cache.pop(old[1], None)
        if new is None:
            self._pod_placement.pop(pod.name, None)
        else:
            self._pod_placement[pod.name] = new
            counts[new] = counts.get(new, 0) + 1
            self._score_cache.pop(new[1], None)

    def _on_pvc_change(self, verb: str, pvc) -> None:
        if verb == "DELETED":
            self._pvc_deleted_at[pvc.name] = self.env.now

    def _on_node_change(self, verb: str, node) -> None:
        # Every ready/cordon transition funnels through update_node, so
        # this listener (plus reserve/release below) is complete
        # invalidation coverage.  Invalidation only — waking the loop
        # stays the caller's decision, as before the cache existed.
        self.invalidate_node(node.name)

    def invalidate_node(self, node_name: str) -> None:
        """Drop cached predicate verdicts for one node.

        Called whenever anything a predicate reads changes: the node's
        allocation (reserve/release) or the node object itself
        (ready/cordon transitions via ``update_node``).  Scores read
        the allocation too, so the score cache rides the same path.
        """
        self._feas_cache.pop(node_name, None)
        self._score_cache.pop(node_name, None)

    def kick(self) -> None:
        """Wake the scheduling loop (new pod, freed resources, bound PVC)."""
        if not self._wake.triggered:
            self._wake.succeed()

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def queued_pod_names(self) -> List[str]:
        return sorted(self._queue, key=self._queue.get)

    # -- main loop -----------------------------------------------------------------

    def _run(self):
        while True:
            if not self._queue:
                self._wake = self.env.event()
                yield self._wake
                continue
            yield self.env.timeout(self.config.batch_delay_s)
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
            yield self.env.timeout(self.config.per_pod_latency_s)
            yield from self._attempt_pod(name)

    def _gang_pass(self):
        # FCFS over gangs; same-instant arrivals resolved largest-first
        # (Section 3.6).
        order = sorted(self._gangs.values(),
                       key=lambda g: (g.arrival_time, -g.size, g.key))
        for entry in order:
            if entry.key not in self._gangs:
                continue
            yield self.env.timeout(self.config.per_pod_latency_s *
                                   max(1, len(entry.pod_names)))
            yield from self._attempt_gang(entry)

    # -- single-pod scheduling ----------------------------------------------------------

    def _attempt_pod(self, name: str):
        pod = self._validate_queued_pod(name)
        if pod is None:
            return
        candidates = self._feasible_candidates(pod)
        if not candidates:
            self._record_no_nodes(pod)
            return
        # Highest (score, name) wins — the allocation fetched during the
        # feasibility check is threaded through so scoring never
        # re-resolves it.  Equivalent to max(nodes, key=...): node names
        # are unique, so the key order is total.  The score-cache key is
        # interned once per attempt and the cache-hit path is inlined:
        # this loop runs once per (pod, candidate) and is the hottest
        # code in the scheduler.
        cache = self._score_cache
        score_key = self._score_key_id(pod)
        hits = 0
        best = None
        best_key = None
        for node_name, allocation in candidates:
            per_node = cache.get(node_name)
            if per_node is None:
                per_node = cache[node_name] = {}
            score = per_node.get(score_key)
            if score is None:
                score = self._score(pod, node_name, allocation)
                per_node[score_key] = score
            else:
                hits += 1
            key = (score, node_name)
            if best_key is None or key > best_key:
                best, best_key = node_name, key
        self.score_cache_hits += hits
        yield from self._bind_with_window([(pod, best)])

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
            if staleness < self.config.informer_staleness_s:
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
        if self.config.timeout_race_probability and \
                self.rng.random() < self.config.timeout_race_probability:
            self._emit(name, REASON_TIMEOUT,
                       MESSAGE_TEMPLATES[REASON_TIMEOUT], pod)
            return None
        if self.config.assume_race_probability and \
                self.rng.random() < self.config.assume_race_probability:
            self._emit(name, REASON_ASSUME_FAILED,
                       MESSAGE_TEMPLATES[REASON_ASSUME_FAILED].format(
                           pod=name), pod)
            return None
        return pod

    def _missing_claim(self, pod: Pod) -> Optional[str]:
        for claim in pod.spec.volume_claims:
            pvc = self.api.try_get_pvc(claim)
            if pvc is None:
                deleted_at = self._pvc_deleted_at.get(claim)
                if deleted_at is not None and \
                        self.env.now - deleted_at < \
                        self.config.informer_staleness_s:
                    # The informer still shows the claim as bound; the
                    # binding API call will be the one to reject it.
                    continue
                return claim
            if not pvc.bound:
                return claim
        return None

    def _feasible_nodes(self, pod: Pod) -> List[str]:
        """Feasible node names (the gang/BSA-facing view)."""
        return [name for name, _allocation
                in self._feasible_candidates(pod)]

    def _nodes_to_find(self, total: int) -> int:
        """How many feasible nodes one scheduling attempt collects.

        Upstream k8s' percentage-of-nodes-to-score: exhaustive at 100,
        otherwise ``max(min_feasible_nodes_to_find, pct% of the
        cluster)``, never more than the cluster itself.
        """
        pct = self.config.percentage_of_nodes_to_score
        if pct >= 100:
            return total
        wanted = max(self.config.min_feasible_nodes_to_find,
                     total * pct // 100)
        return min(wanted, total)

    def _shape_id(self, pod: Pod) -> int:
        """Interned feasibility-cache key: everything the predicates
        read from the pod (resource request + sorted node selector)."""
        shape = (pod.spec.resources,
                 tuple(sorted(pod.spec.node_selector.items())))
        ids = self._shape_ids
        sid = ids.get(shape)
        if sid is None:
            sid = ids[shape] = len(ids)
        return sid

    def _feasible_candidates(self, pod: Pod) -> List[tuple]:
        """``(node name, allocation)`` pairs that pass the predicates.

        Exhaustive mode (the default) scans every node in list order.
        Sampled mode walks the node list cyclically from
        ``last_scored_node_index`` and stops at the first
        ``_nodes_to_find`` feasible nodes; the cursor then advances
        past the examined window so successive pods sample rotating
        slices of the cluster.  The two modes keep separate loop
        bodies: one merged "rotate to the cursor, stop at the limit"
        loop measured 9 % slower on the exhaustive ``sched-sweep``.

        The pod's shape is interned once per attempt and the cache-hit
        path is inlined: this loop runs once per (pod, node) and
        dominates exhaustive-mode wall-clock.
        """
        nodes = self.api.list_nodes()
        total = len(nodes)
        limit = self._nodes_to_find(total)
        cache = self._feas_cache
        shape = self._shape_id(pod)
        allocation_of = self.cluster.allocation
        candidates: List[tuple] = []
        if limit >= total:
            hits = 0
            for node in nodes:
                name = node.name
                per_node = cache.get(name)
                if per_node is None:
                    per_node = cache[name] = {}
                fits = per_node.get(shape)
                if fits is None:
                    allocation = self._node_fits(pod, node)
                    per_node[shape] = allocation is not None
                    if allocation is not None:
                        candidates.append((name, allocation))
                elif fits:
                    hits += 1
                    candidates.append((name, allocation_of(name)))
                else:
                    hits += 1
            self.nodes_examined += total
            self.filter_cache_hits += hits
            return candidates
        start = self.last_scored_node_index % total
        examined = 0
        hits = 0
        for offset in range(total):
            node = nodes[(start + offset) % total]
            examined += 1
            name = node.name
            per_node = cache.get(name)
            if per_node is None:
                per_node = cache[name] = {}
            fits = per_node.get(shape)
            if fits is None:
                allocation = self._node_fits(pod, node)
                per_node[shape] = allocation is not None
            else:
                hits += 1
                allocation = allocation_of(name) if fits else None
            if allocation is not None:
                candidates.append((name, allocation))
                if len(candidates) >= limit:
                    break
        self.last_scored_node_index = (start + examined) % total
        self.nodes_examined += examined
        self.filter_cache_hits += hits
        return candidates

    def _node_fits(self, pod: Pod, node) -> Optional["NodeAllocation"]:
        """One full predicate evaluation; ``_feasible_candidates``
        caches the verdict.

        Returns the allocation on fit (so callers reuse the lookup),
        ``None`` otherwise.
        """
        self.filter_evals += 1
        if not node.is_ready:
            return None
        if not self._selector_matches(pod, node):
            return None
        allocation = self.cluster.allocation(node.name)
        return allocation if allocation.fits(pod.spec.resources) else None

    def _selector_matches(self, pod: Pod, node) -> bool:
        return all(node.meta.labels.get(k) == v
                   for k, v in pod.spec.node_selector.items())

    def _score_key_id(self, pod: Pod) -> int:
        """Interned score-cache key: everything ``score_node`` reads
        from the pod (resource request + owner)."""
        key = (pod.spec.resources, pod.meta.owner)
        ids = self._score_key_ids
        kid = ids.get(key)
        if kid is None:
            kid = ids[key] = len(ids)
        return kid

    def _score(self, pod: Pod, node_name: str, allocation) -> float:
        """Priority of one candidate node for one pod (uncached).

        Same-owner pods on the node come from the maintained (owner,
        node) index.  Caching (per node, keyed by the interned pod
        score key) lives in ``_attempt_pod``.
        """
        self.score_evals += 1
        same_owner = 0
        if pod.meta.owner is not None:
            same_owner = self._owner_node_counts.get(
                (pod.meta.owner, node_name), 0)
        return score_node(self.config.policy, pod, node_name,
                          allocation, same_owner)

    def _bind_with_window(self, placements) -> None:
        """Reserve resources, wait out the binding API round-trip, then
        commit — rejecting pods that were deleted in the window."""
        for pod, node_name in placements:
            self.cluster.reserve(pod, node_name)
            self._dequeue(pod.name)
        if self.config.bind_latency_s:
            yield self.env.timeout(self.config.bind_latency_s)
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
        eligible = {pod.name: self._feasible_nodes(pod) for pod in pods}
        empty = [pod for pod in pods if not eligible[pod.name]]
        if empty:
            for pod in empty:
                self._record_no_nodes(pod)
            return
        assignment = bsa_place(pods, self.cluster.allocations, eligible,
                               self.rng, rounds=self.config.bsa_rounds,
                               objective=self.config.bsa_objective)
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
        reasons = []
        nodes = self.api.list_nodes()
        if pod.spec.resources.gpus > 0:
            short_gpu = [n for n in nodes if n.is_ready
                         and self._selector_matches(pod, n)
                         and self.cluster.allocation(n.name).free_gpus <
                         pod.spec.resources.gpus]
            if short_gpu:
                reasons.append(
                    f"{PREDICATE_INSUFFICIENT_GPU} ({len(short_gpu)})")
        selector_miss = [n for n in nodes
                         if not self._selector_matches(pod, n)]
        if selector_miss:
            reasons.append(
                f"{PREDICATE_MATCH_NODE_SELECTOR} ({len(selector_miss)})")
        unready = [n for n in nodes if not n.is_ready]
        if unready:
            reasons.append(
                f"{PREDICATE_NODE_UNSCHEDULABLE} ({len(unready)})")
        return ", ".join(reasons) or "Insufficient resources"

    def _emit(self, pod_name: str, reason: str, message: str,
              pod: Optional[Pod] = None) -> None:
        pod_type = pod.meta.labels.get("type") if pod is not None else None
        self.api.record_event(KubeEvent(
            self.env.now, FAILED_SCHEDULING, "Pod", pod_name,
            reason=reason, message=message, pod_type=pod_type))

    def _dequeue(self, name: str) -> None:
        self._queue.pop(name, None)
