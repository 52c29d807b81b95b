"""The Kubernetes API server: typed object stores plus change notification.

Controllers, the scheduler and kubelets subscribe to object changes the way
real components use informers; delivery is synchronous function calls on the
sim kernel (the latency of the API server itself is folded into component
action latencies).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConflictError, ObjectNotFoundError
from repro.kube.events import EventLog, KubeEvent
from repro.kube.objects import (
    Deployment,
    FAILED,
    KubeJob,
    NetworkPolicy,
    Node,
    PENDING,
    PersistentVolumeClaim,
    Pod,
    RUNNING,
    ReplicaSet,
    SUCCEEDED,
    StatefulSet,
)
from repro.sim.core import Environment
from repro.sim.race import note_read, note_write

ADDED = "ADDED"
MODIFIED = "MODIFIED"
DELETED = "DELETED"

Listener = Callable[[str, object], None]

_KINDS = ("pods", "nodes", "replicasets", "statefulsets", "jobs",
          "deployments", "pvcs", "networkpolicies")


class KubeAPI:
    """Object storage + watch fan-out for the simulated cluster."""

    def __init__(self, env: Environment):
        self.env = env
        self._race_label = env.register_shared_store("kube", self)
        self.event_log = EventLog()
        self._stores: Dict[str, Dict[str, object]] = {
            kind: {} for kind in _KINDS}
        #: kind -> uid -> object: the stores by uid, for owner lookups.
        self._by_uid: Dict[str, Dict[str, object]] = {
            kind: {} for kind in _KINDS}
        #: owner uid -> name -> owned pod, in creation order: the owner
        #: filter of ``list_pods`` without a scan of every pod.
        self._pods_by_owner: Dict[str, Dict[str, Pod]] = {}
        #: kind -> [(seq, listener)]: every subscriber of a kind, in
        #: registration order (``seq`` is unique across the server).
        self._listeners: Dict[str, List[Tuple[int, Listener]]] = {
            kind: [] for kind in _KINDS}
        #: Node-indexed pod fanout: node name -> [(seq, listener)].
        #: Kubelets only ever act on events for pods bound to their own
        #: node, so delivering every pod event to every kubelet would be
        #: an O(nodes) no-op scan per mutation — the dominant fanout at
        #: cluster scale.  ``_notify`` delivers a pod event to the
        #: general "pods" subscribers plus the one matching node's
        #: listeners, merged by ``seq`` so invocation order is
        #: registration order.
        self._pod_node_listeners: Dict[str, List[Tuple[int, Listener]]] = {}
        self._sub_seq = 0

    # -- generic plumbing -----------------------------------------------------

    def subscribe(self, kind: str, listener: Listener) -> None:
        """Register ``listener(verb, obj)`` for changes to ``kind``."""
        self._sub_seq += 1
        self._listeners[kind].append((self._sub_seq, listener))

    def subscribe_pods_for_node(self, node_name: str,
                                listener: Listener) -> None:
        """Register a pod listener that only acts on pods of one node.

        It is invoked only for events whose pod is bound to
        ``node_name`` at the time of the event, in registration order
        with the general "pods" subscribers.
        """
        self._sub_seq += 1
        self._pod_node_listeners.setdefault(node_name, []).append(
            (self._sub_seq, listener))

    def _notify(self, kind: str, verb: str, obj: object) -> None:
        # Every mutation (create/update/delete) funnels through here.
        # The detector check comes before note_write so the label
        # f-strings are never built on the (detector-off) fast path.
        if self.env.race_detector is not None:
            note_write(self.env, self._race_label,
                       f"{kind}/{getattr(obj, 'name', obj)}",
                       f"KubeAPI.{verb.lower()}")
        # Informer semantics: a change to a kind must reach every
        # subscriber of that kind, so the per-kind lists are already the
        # index and the fanout below is exact.  A pod event also reaches
        # the listeners of the (single) node the pod is bound to;
        # ``seq`` values are unique, so the sort never compares the
        # listeners themselves.  The copy lets a listener subscribe
        # during delivery.
        listeners = self._listeners[kind]
        matching = None
        if kind == "pods":
            matching = self._pod_node_listeners.get(obj.node_name)
        if matching:
            listeners = sorted(listeners + matching)
        else:
            listeners = list(listeners)
        for _seq, listener in listeners:
            listener(verb, obj)

    def _create(self, kind: str, name: str, obj: object) -> object:
        store = self._stores[kind]
        if name in store:
            raise ConflictError(f"{kind}/{name} already exists")
        store[name] = obj
        self._by_uid[kind][obj.meta.uid] = obj
        if kind == "pods" and obj.meta.owner is not None:
            self._pods_by_owner.setdefault(obj.meta.owner, {})[name] = obj
        self._notify(kind, ADDED, obj)
        return obj

    def _get(self, kind: str, name: str) -> object:
        if self.env.race_detector is not None:
            note_read(self.env, self._race_label, f"{kind}/{name}",
                      "KubeAPI.get")
        obj = self._stores[kind].get(name)
        if obj is None:
            raise ObjectNotFoundError(f"{kind}/{name}")
        return obj

    def _delete(self, kind: str, name: str) -> object:
        obj = self._stores[kind].pop(name, None)
        if obj is None:
            raise ObjectNotFoundError(f"{kind}/{name}")
        del self._by_uid[kind][obj.meta.uid]
        if kind == "pods" and obj.meta.owner is not None:
            owned = self._pods_by_owner[obj.meta.owner]
            del owned[name]
            if not owned:
                del self._pods_by_owner[obj.meta.owner]
        self._notify(kind, DELETED, obj)
        return obj

    def _list(self, kind: str) -> list:
        return list(self._stores[kind].values())

    def exists(self, kind: str, name: str) -> bool:
        return name in self._stores[kind]

    def find_by_uid(self, kinds: Iterable[str], uid: str):
        """The object with ``uid`` among ``kinds`` (searched in the order
        given), or None."""
        for kind in kinds:
            obj = self._by_uid[kind].get(uid)
            if obj is not None:
                return obj
        return None

    def record_event(self, event: KubeEvent) -> None:
        self.event_log.record(event)

    # -- pods ----------------------------------------------------------------------

    def create_pod(self, pod: Pod) -> Pod:
        pod.meta.creation_time = self.env.now
        return self._create("pods", pod.name, pod)

    def get_pod(self, name: str) -> Pod:
        return self._get("pods", name)

    def try_get_pod(self, name: str) -> Optional[Pod]:
        if self.env.race_detector is not None:
            note_read(self.env, self._race_label, f"pods/{name}",
                      "KubeAPI.try_get_pod")
        return self._stores["pods"].get(name)

    def list_pods(self, owner: Optional[str] = None,
                  phase: Optional[str] = None,
                  node_name: Optional[str] = None) -> List[Pod]:
        pods: Iterable[Pod] = self._stores["pods"].values()
        if owner is not None:
            pods = self._pods_by_owner.get(owner, {}).values()
        if phase is not None:
            pods = [p for p in pods if p.phase == phase]
        if node_name is not None:
            pods = [p for p in pods if p.node_name == node_name]
        return list(pods)

    def update_pod(self, pod: Pod) -> Pod:
        if pod.name not in self._stores["pods"]:
            raise ObjectNotFoundError(f"pods/{pod.name}")
        self._notify("pods", MODIFIED, pod)
        return pod

    def mark_pod_for_deletion(self, name: str) -> Optional[Pod]:
        """Graceful delete: flag first (visible to the scheduler), then
        remove once the kubelet has torn the pod down."""
        pod = self.try_get_pod(name)
        if pod is None:
            return None
        if not pod.meta.deletion_requested:
            pod.meta.deletion_requested = True
            pod.meta.deletion_requested_at = self.env.now
            self._notify("pods", MODIFIED, pod)
        return pod

    def delete_pod(self, name: str) -> Pod:
        return self._delete("pods", name)

    def bind_pod(self, pod: Pod, node_name: str) -> None:
        """Record the scheduler's placement decision."""
        if pod.meta.deletion_requested:
            raise ConflictError(f"pod {pod.name} is being deleted")
        pod.node_name = node_name
        pod.scheduled_at = self.env.now
        self._notify("pods", MODIFIED, pod)

    # -- nodes ---------------------------------------------------------------------

    def create_node(self, node: Node) -> Node:
        return self._create("nodes", node.name, node)

    def get_node(self, name: str) -> Node:
        return self._get("nodes", name)

    def list_nodes(self) -> List[Node]:
        return self._list("nodes")

    def update_node(self, node: Node) -> Node:
        self._notify("nodes", MODIFIED, node)
        return node

    # -- workload sets ----------------------------------------------------------------

    def create_replicaset(self, rs: ReplicaSet) -> ReplicaSet:
        return self._create("replicasets", rs.name, rs)

    def delete_replicaset(self, name: str) -> ReplicaSet:
        return self._delete("replicasets", name)

    def create_statefulset(self, ss: StatefulSet) -> StatefulSet:
        return self._create("statefulsets", ss.name, ss)

    def delete_statefulset(self, name: str) -> StatefulSet:
        return self._delete("statefulsets", name)

    def create_job(self, job: KubeJob) -> KubeJob:
        return self._create("jobs", job.name, job)

    def delete_job(self, name: str) -> KubeJob:
        return self._delete("jobs", name)

    def create_deployment(self, deployment: Deployment) -> Deployment:
        return self._create("deployments", deployment.name, deployment)

    def delete_deployment(self, name: str) -> Deployment:
        return self._delete("deployments", name)

    # -- volumes and policies ----------------------------------------------------------

    def create_pvc(self, pvc: PersistentVolumeClaim) -> PersistentVolumeClaim:
        return self._create("pvcs", pvc.name, pvc)

    def get_pvc(self, name: str) -> PersistentVolumeClaim:
        return self._get("pvcs", name)

    def try_get_pvc(self, name: str) -> Optional[PersistentVolumeClaim]:
        if self.env.race_detector is not None:
            note_read(self.env, self._race_label, f"pvcs/{name}",
                      "KubeAPI.try_get_pvc")
        return self._stores["pvcs"].get(name)

    def delete_pvc(self, name: str) -> PersistentVolumeClaim:
        return self._delete("pvcs", name)

    def create_network_policy(self, policy: NetworkPolicy) -> NetworkPolicy:
        return self._create("networkpolicies", policy.name, policy)

    def delete_network_policy(self, name: str) -> NetworkPolicy:
        return self._delete("networkpolicies", name)

    def list_network_policies(self) -> List[NetworkPolicy]:
        return self._list("networkpolicies")

    # -- convenience -------------------------------------------------------------------

    def pod_phase_counts(self) -> Dict[str, int]:
        counts = {PENDING: 0, RUNNING: 0, SUCCEEDED: 0, FAILED: 0}
        for pod in self._stores["pods"].values():
            counts[pod.phase] = counts.get(pod.phase, 0) + 1
        return counts
