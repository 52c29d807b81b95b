"""Cluster facade: nodes, kubelets, scheduler, controllers, fault hooks.

This is the entry point substrate consumers (FfDL, the benchmarks) use to
stand up a simulated GPU cluster:

    cluster = Cluster(env, rng, SchedulerConfig(policy=PACK, gang=True))
    cluster.add_nodes(15, NodeCapacity(cpus=32, memory_gb=256, gpus=4,
                                       gpu_type="K80"))
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.docker import Image, Registry
from repro.errors import KubeError
from repro.kube.api import KubeAPI
from repro.kube.controllers import NodeController, WorkloadControllers
from repro.kube.kubelet import Kubelet
from repro.kube.objects import Node, NodeCapacity, ObjectMeta, Pod
from repro.kube.resources import NodeAllocation, ResourceRequest, node_names
from repro.kube.scheduling.framework import Scheduler, SchedulerConfig
from repro.sim.core import Environment
from repro.sim.rng import RngRegistry

#: Grace period between a deletion request and object removal, during
#: which the scheduler can observe the 'skip schedule deleting pod'
#: condition.  (Kubernetes' default termination grace is 30s; 1 s keeps
#: every Fig 6-8 and Table 8 claim.)
DELETION_GRACE_S = 1.0


class Cluster:
    """A simulated Kubernetes cluster."""

    def __init__(self, env: Environment, rng: RngRegistry,
                 scheduler_config: Optional[SchedulerConfig] = None,
                 node_detection_latency_s: float = 40.0,
                 pod_eviction_timeout_s: float = 60.0,
                 terminal_pod_gc_ttl_s: float = 600.0):
        self.env = env
        self.rng = rng
        self.api = KubeAPI(env)
        self.registry = Registry(env)
        self.allocations: Dict[str, NodeAllocation] = {}
        self.kubelets: Dict[str, Kubelet] = {}
        self._assignments: Dict[str, Tuple[str, ResourceRequest]] = {}
        self._dead_nodes: set = set()
        self.scheduler = Scheduler(env, self.api, self, rng,
                                   scheduler_config)
        self.controllers = WorkloadControllers(env, self.api, self)
        self.node_controller = NodeController(
            env, self.api, self,
            detection_latency_s=node_detection_latency_s,
            eviction_timeout_s=pod_eviction_timeout_s)
        #: (time, pod_name, pod_type, cause) for every pod deletion.
        self.deletion_log: List[Tuple[float, str, Optional[str], str]] = []
        #: Terminal-pod garbage collection (kube-controller-manager's
        #: podgc): completed/failed pods are removed after a TTL instead
        #: of accumulating on nodes.  0 disables.
        self.terminal_pod_gc_ttl_s = terminal_pod_gc_ttl_s
        self.api.subscribe("pods", self._on_pod_gc)

    def _on_pod_gc(self, verb: str, pod: Pod) -> None:
        if verb != "MODIFIED" or not pod.is_terminal \
                or self.terminal_pod_gc_ttl_s <= 0:
            return
        if pod.meta.annotations.get("gc-scheduled"):
            return
        pod.meta.annotations["gc-scheduled"] = "true"

        def collect(_timer) -> None:
            current = self.api.try_get_pod(pod.name)
            if current is not None and current.meta.uid == pod.meta.uid \
                    and current.is_terminal:
                self.delete_pod(pod.name, cause="gc")

        self.env.timeout(self.terminal_pod_gc_ttl_s).callbacks.append(collect)

    # -- topology ------------------------------------------------------------

    def add_node(self, name: str, capacity: NodeCapacity,
                 labels: Optional[Dict[str, str]] = None) -> Node:
        if name in self.kubelets:
            raise KubeError(f"node {name!r} already exists")
        node_labels = dict(labels or {})
        if capacity.gpu_type:
            node_labels.setdefault("gpu-type", capacity.gpu_type)
        node = Node(meta=ObjectMeta(name=name, labels=node_labels),
                    capacity=capacity)
        self.api.create_node(node)
        self.allocations[name] = NodeAllocation(capacity)
        self.kubelets[name] = Kubelet(
            self.env, self.api, node, self.registry,
            on_pod_terminal=self._on_pod_terminal)
        self.scheduler.kick()
        return node

    def add_nodes(self, count: int, capacity: NodeCapacity,
                  prefix: str = "node",
                  labels: Optional[Dict[str, str]] = None) -> List[Node]:
        return [self.add_node(name, capacity, labels)
                for name in node_names(count, capacity.gpu_type, prefix)]

    def push_image(self, image: Image) -> None:
        self.registry.push(image)

    # -- scheduling callbacks ------------------------------------------------------

    def reserve(self, pod: Pod, node_name: str) -> None:
        """Allocate resources for a pending binding (scheduler 'assume')."""
        allocation = self.allocations[node_name]
        allocation.allocate(pod.spec.resources)
        self.scheduler.invalidate(node_name)
        # Keyed by uid: StatefulSets reuse pod names, and a stale release
        # against a name would free the replacement's resources.
        self._assignments[pod.meta.uid] = (node_name, pod.spec.resources)

    def release(self, pod: Pod) -> None:
        assignment = self._assignments.pop(pod.meta.uid, None)
        if assignment is None:
            return
        node_name, request = assignment
        self.allocations[node_name].release(request)
        self.scheduler.invalidate(node_name)
        self.scheduler.kick()

    def _on_pod_terminal(self, pod: Pod, outcome: str) -> None:
        self.release(pod)

    # -- pod deletion ------------------------------------------------------------------

    def delete_pod(self, name: str, cause: str = "user") -> None:
        """Gracefully delete a pod: flag, let the kubelet tear it down, and
        force-remove after the grace period if nothing else did."""
        pod = self.api.mark_pod_for_deletion(name)
        if pod is None:
            return
        self.deletion_log.append((self.env.now, name,
                                  pod.meta.labels.get("type"), cause))

        def finalize(_timer) -> None:
            # The name may have been reused by a replacement pod by now:
            # only finalize the exact object this deletion targeted.
            current = self.api.try_get_pod(name)
            if current is not None and current.meta.uid == pod.meta.uid:
                self.release(pod)
                self.api.delete_pod(name)

        self.env.timeout(DELETION_GRACE_S).callbacks.append(finalize)

    # -- fault injection -----------------------------------------------------------------

    def fail_node(self, node_name: str) -> None:
        """The machine dies: containers vanish, heartbeats stop."""
        if node_name in self._dead_nodes:
            return
        self._dead_nodes.add(node_name)
        self.kubelets[node_name].crash()
        node = self.api.get_node(node_name)
        self.node_controller.node_failed(node)

    def node_is_up(self, node_name: str) -> bool:
        """Whether the node is alive (not crashed via :meth:`fail_node`)."""
        return node_name not in self._dead_nodes

    def recover_node(self, node_name: str) -> None:
        if node_name not in self._dead_nodes:
            return
        self._dead_nodes.discard(node_name)
        self.kubelets[node_name].recover()
        node = self.api.get_node(node_name)
        self.node_controller.node_recovered(node)
        # Anything still assigned to the node was lost with its containers.
        for pod in self.api.list_pods(node_name=node_name):
            self.delete_pod(pod.name,
                            cause="gc" if pod.is_terminal
                            else "node-failure")
        self.scheduler.kick()

    def cordon(self, node_name: str) -> None:
        node = self.api.get_node(node_name)
        node.unschedulable = True
        self.api.update_node(node)

    def drain_node(self, node_name: str) -> List[str]:
        """Cordon the node and evict every pod on it (maintenance drain).

        Returns the names of the evicted pods.  The paper's operations
        story relies on this: "nodes fail or are removed for maintenance,
        and new resources added at any time"; faulty nodes found in the
        scale test "were later cordoned".
        """
        self.cordon(node_name)
        evicted = []
        for pod in self.api.list_pods(node_name=node_name):
            evicted.append(pod.name)
            self.delete_pod(pod.name, cause="drain")
        return evicted

    def uncordon(self, node_name: str) -> None:
        node = self.api.get_node(node_name)
        node.unschedulable = False
        self.api.update_node(node)
        self.scheduler.kick()

    # -- introspection -----------------------------------------------------------------------

    def total_gpus(self) -> int:
        return sum(a.capacity.gpus for a in self.allocations.values())

    def allocated_gpus(self) -> int:
        return sum(a.allocated_gpus for a in self.allocations.values())

    def gpu_utilization(self) -> float:
        total = self.total_gpus()
        return self.allocated_gpus() / total if total else 0.0

    def idle_gpus_on_running_pods(self) -> int:
        """GPUs held by Running pods whose gang is not fully running —
        the paper's 'temporarily deadlocked' learners hoarding GPUs."""
        running = self.api.list_pods(phase="Running")
        by_gang: Dict[str, List[Pod]] = {}
        for pod in running + self.api.list_pods(phase="Pending"):
            if pod.spec.gang_name:
                by_gang.setdefault(pod.spec.gang_name, []).append(pod)
        idle = 0
        for gang_name, members in by_gang.items():
            gang_size = max(p.spec.gang_size for p in members)
            running_members = [p for p in members if p.phase == "Running"]
            if len(running_members) < gang_size:
                idle += sum(p.spec.resources.gpus for p in running_members)
        return idle
