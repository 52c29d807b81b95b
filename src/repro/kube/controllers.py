"""Workload and node controllers.

Implements the reconciliation behaviour FfDL relies on:

* ReplicaSet / Deployment — keep N interchangeable replicas running (FfDL
  microservices and helper pods).
* StatefulSet — stable pod identities (``learner-0`` ...), recreated in
  place after failure, optionally forming a scheduling gang.
* Job — run-to-completion with bounded retries (the Guardian).
* NodeController — detects NotReady nodes and evicts their pods, which is
  the mechanism behind the paper's Figures 7 and 8.

All controllers are event-driven (no reconcile polling).
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from repro.kube.api import ADDED, DELETED, KubeAPI, MODIFIED
from repro.kube.events import EVICTED, KubeEvent, NODE_NOT_READY_EVENT
from repro.kube.objects import (
    FAILED,
    KubeJob,
    NODE_NOT_READY,
    NODE_READY,
    Node,
    Pod,
    SUCCEEDED,
    StatefulSet,
)
from repro.sim.core import Environment

if TYPE_CHECKING:  # pragma: no cover
    from repro.kube.cluster import Cluster

#: Delay between observing a missing replica and creating its replacement.
RECONCILE_DELAY_S = 0.5


class WorkloadControllers:
    """ReplicaSet, Deployment, StatefulSet and Job reconciliation."""

    def __init__(self, env: Environment, api: KubeAPI, cluster: "Cluster"):
        self.env = env
        self.api = api
        self.cluster = cluster
        #: ReplicaSet / Deployment uid -> pods named so far (the suffix
        #: of the next replica); dropped with the owner.
        self._rs_counters: Dict[str, int] = {}
        #: Pod uids whose failure was already charged to their KubeJob
        #: (a pod can both fail and later be deleted; count it once);
        #: dropped with the pod.  A uid is never reused, so a dropped
        #: entry is never asked for again.
        self._job_failures_counted: set = set()
        #: Owner uids with a reconcile already scheduled (workqueue
        #: dedup): N same-instant pod deletions must collapse into one
        #: reconcile pass, not race N identical passes.
        self._pending_reconciles: set = set()
        api.subscribe("replicasets", self._on_set_change)
        api.subscribe("statefulsets", self._on_set_change)
        api.subscribe("deployments", self._on_set_change)
        api.subscribe("jobs", self._on_job_change)
        api.subscribe("pods", self._on_pod_change)

    # -- set lifecycle ---------------------------------------------------------

    def _on_set_change(self, verb: str, obj) -> None:
        if verb == ADDED:
            self._reconcile(obj)
        elif verb == DELETED:
            self._rs_counters.pop(obj.meta.uid, None)
            self._delete_children(obj)

    def _on_job_change(self, verb: str, job: KubeJob) -> None:
        if verb == ADDED:
            self._spawn_job_pod(job)
        elif verb == DELETED:
            self._delete_children(job)

    def _on_pod_change(self, verb: str, pod: Pod) -> None:
        owner_uid = pod.meta.owner
        if owner_uid is None:
            return
        pod_gone = verb == DELETED
        pod_failed = verb == MODIFIED and pod.phase == FAILED
        pod_done = verb == MODIFIED and pod.phase == SUCCEEDED
        if not (pod_gone or pod_failed or pod_done):
            return
        owner = self._find_owner(owner_uid)
        if isinstance(owner, KubeJob):
            self._handle_job_pod(owner, pod, pod_done, pod_failed, pod_gone)
        elif owner is not None and not pod_done:
            # Sets do not replace successfully completed pods.
            self._schedule_reconcile(owner)
        if pod_gone:
            self._job_failures_counted.discard(pod.meta.uid)

    # -- reconciliation -----------------------------------------------------------

    def _find_owner(self, owner_uid: str):
        return self.api.find_by_uid(
            ("replicasets", "statefulsets", "deployments", "jobs"),
            owner_uid)

    def _schedule_reconcile(self, owner) -> None:
        if owner.meta.uid in self._pending_reconciles:
            # Workqueue semantics: the pending pass reads current state
            # when it fires, so further triggers until then are covered.
            return
        self._pending_reconciles.add(owner.meta.uid)

        def later():
            yield self.env.timeout(RECONCILE_DELAY_S)
            # Clear before reconciling: _reconcile is atomic (no yields),
            # so a trigger racing it lands after the pass and schedules a
            # fresh one instead of being lost.
            self._pending_reconciles.discard(owner.meta.uid)
            # The owner may have been deleted while we waited.
            if self._find_owner(owner.meta.uid) is not None:
                self._reconcile(owner)

        self.env.process(later(), name=f"reconcile:{owner.name}")

    def _reconcile(self, owner) -> None:
        if isinstance(owner, StatefulSet):
            self._reconcile_statefulset(owner)
        else:
            self._reconcile_replicaset_like(owner)

    def _reconcile_statefulset(self, ss: StatefulSet) -> None:
        gang_name = ss.effective_gang_name()
        for ordinal in range(ss.replicas):
            pod_name = f"{ss.name}-{ordinal}"
            existing = self.api.try_get_pod(pod_name)
            if existing is not None:
                if existing.phase == FAILED and \
                        not existing.meta.deletion_requested:
                    # Replace the failed pod under the same identity.
                    self.cluster.delete_pod(pod_name,
                                            cause="failed-replacement")
                continue
            pod = ss.template.instantiate(
                pod_name, ss.meta.uid, self.env.now,
                gang_name=gang_name,
                gang_size=ss.effective_gang_size() if ss.gang else 1)
            self.api.create_pod(pod)

    def _reconcile_replicaset_like(self, owner) -> None:
        live = [p for p in self.api.list_pods(owner=owner.meta.uid)
                if not p.is_terminal and not p.meta.deletion_requested]
        missing = owner.replicas - len(live)
        for _ in range(missing):
            counter = self._rs_counters.get(owner.meta.uid, 0) + 1
            self._rs_counters[owner.meta.uid] = counter
            pod = owner.template.instantiate(
                f"{owner.name}-{counter}", owner.meta.uid, self.env.now)
            self.api.create_pod(pod)

    def _delete_children(self, owner) -> None:
        for pod in self.api.list_pods(owner=owner.meta.uid):
            self.cluster.delete_pod(pod.name, cause="owner-deleted")

    # -- jobs ------------------------------------------------------------------------

    def _spawn_job_pod(self, job: KubeJob) -> None:
        attempt = job.failed_attempts + 1
        pod = job.template.instantiate(
            f"{job.name}-attempt{attempt}", job.meta.uid, self.env.now)
        self.api.create_pod(pod)

    def _handle_job_pod(self, job: KubeJob, pod: Pod, done: bool,
                        failed: bool, gone: bool) -> None:
        if done:
            job.succeeded += 1
            return
        if not (failed or gone):
            return
        if job.succeeded >= job.completions:
            if gone and not self.api.list_pods(owner=job.meta.uid):
                # ``ttlSecondsAfterFinished: 0``: a finished Job goes
                # with its last pod, as FfDL keeps a job's history in
                # MongoDB, not in Kubernetes.  Its DELETED finds no
                # children.
                self.api.delete_job(job.name)
            return
        if gone and pod.phase == SUCCEEDED:
            return  # deletion of a completed pod is not a failure
        if pod.meta.uid in self._job_failures_counted:
            return
        self._job_failures_counted.add(pod.meta.uid)
        job.failed_attempts += 1
        if job.failed_attempts > job.backoff_limit:
            return  # give up; FfDL marks the DL job FAILED in MongoDB
        if gone and not self.api.exists("jobs", job.name):
            return

        def retry():
            yield self.env.timeout(RECONCILE_DELAY_S)
            if self.api.exists("jobs", job.name):
                self._spawn_job_pod(job)

        self.env.process(retry(), name=f"job-retry:{job.name}")


class NodeController:
    """Detects node failures and evicts their pods.

    The paper (Section 5.6): "when worker nodes became NotReady, the
    NodeControllerEviction component in Kubernetes would delete all pods
    running on the worker".
    """

    def __init__(self, env: Environment, api: KubeAPI, cluster: "Cluster",
                 detection_latency_s: float = 40.0,
                 eviction_timeout_s: float = 60.0):
        self.env = env
        self.api = api
        self.cluster = cluster
        self.detection_latency_s = detection_latency_s
        self.eviction_timeout_s = eviction_timeout_s
        self.evictions = 0

    def node_failed(self, node: Node) -> None:
        """Invoked by the cluster fault hooks when a node dies."""
        self.env.process(self._detect_and_evict(node),
                         name=f"nodectl:{node.name}")

    def _detect_and_evict(self, node: Node):
        yield self.env.timeout(self.detection_latency_s)
        if self.cluster.node_is_up(node.name):
            return  # blip recovered before detection
        node.condition = NODE_NOT_READY
        self.api.update_node(node)
        self.api.record_event(KubeEvent(self.env.now, NODE_NOT_READY_EVENT,
                                        "Node", node.name))
        yield self.env.timeout(self.eviction_timeout_s)
        if self.cluster.node_is_up(node.name):
            node.condition = NODE_READY
            self.api.update_node(node)
            return
        for pod in self.api.list_pods(node_name=node.name):
            if pod.is_terminal:
                # Already-finished pods lost nothing to the failure; they
                # are collected as ordinary garbage.
                self.cluster.delete_pod(pod.name, cause="gc")
                continue
            self.evictions += 1
            self.api.record_event(KubeEvent(
                self.env.now, EVICTED, "Pod", pod.name,
                reason="NodeLost", message=f"node {node.name} NotReady",
                pod_type=pod.meta.labels.get("type")))
            self.cluster.delete_pod(pod.name, cause="node-failure")

    def node_recovered(self, node: Node) -> None:
        node.condition = NODE_READY
        self.api.update_node(node)
