"""The node agent: runs pods' containers and reports their fate.

One :class:`Kubelet` per node.  It reacts to pod bindings (starts the pod's
containers, pulling images first), container exits (applies the restart
policy), deletion requests (tears the pod down) and node crashes (all
containers die instantly; the node controller handles the aftermath).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.docker import Container, EXITED, Registry
from repro.errors import ImageNotFoundError
from repro.kube.api import KubeAPI, MODIFIED
from repro.kube.events import KILLED, KubeEvent, STARTED
from repro.kube.objects import (
    FAILED,
    Node,
    PENDING,
    Pod,
    RESTART_ALWAYS,
    RESTART_NEVER,
    RESTART_ON_FAILURE,
    RUNNING,
    SUCCEEDED,
)
from repro.sim.core import Environment, Interrupt, Process

#: Extra startup latency components per pod (seconds): mounting volumes and
#: credentials.  Learners bind object storage + NFS, which the paper reports
#: dominates their 10-20s restart time (Table 3).
DEFAULT_POD_SETUP_S = 1.0
#: Back-off before a failed (or, under ``Always``, exited) container
#: restarts.
RESTART_DELAY_S = 2.0


class Kubelet:
    """Runs pods bound to one node."""

    def __init__(self, env: Environment, api: KubeAPI, node: Node,
                 registry: Registry,
                 on_pod_terminal: Optional[Callable[[Pod, str], None]] = None):
        self.env = env
        self.api = api
        self.node = node
        self.registry = registry
        #: Called with (pod, outcome) when a pod reaches a terminal phase or
        #: is torn down; the cluster uses it to release resources.
        self.on_pod_terminal = on_pod_terminal
        self.alive = True
        #: Containers keyed by pod uid (names are reused by
        #: StatefulSets; uids are unique).
        self._pod_containers: Dict[str, List[Container]] = {}
        #: The live lifecycle process per pod uid (one for set-up and the
        #: container watch), so crash injection can interrupt a pod
        #: mid-image-pull as well as mid-run.
        self._pod_processes: Dict[str, Process] = {}
        # Node-indexed subscription: this kubelet only acts on pods
        # bound to its own node.  The handler below still checks
        # ``pod.node_name``, so a stale event stays a no-op.
        api.subscribe_pods_for_node(node.name, self._on_pod_change)

    # -- watch handlers --------------------------------------------------------

    def _on_pod_change(self, verb: str, pod: Pod) -> None:
        if not self.alive or pod.node_name != self.node.name:
            return
        if verb != MODIFIED:
            return
        if pod.meta.deletion_requested and pod.meta.uid in self._pod_containers:
            self._teardown(pod, reason="deleted")
            return
        if pod.phase == PENDING and pod.meta.uid not in self._pod_containers \
                and not pod.meta.deletion_requested:
            self._pod_containers[pod.meta.uid] = []
            self._pod_processes[pod.meta.uid] = self.env.process(
                self._run_pod(pod),
                name=f"kubelet:{self.node.name}:{pod.name}")

    # -- pod lifecycle -----------------------------------------------------------

    def _run_pod(self, pod: Pod):
        """The pod's one lifecycle process: set-up, then the container
        watch."""
        try:
            yield from self._setup_pod(pod)
            # Returns at once if set-up ended the pod or found it gone.
            yield from self._watch_containers(pod)
        except Interrupt:
            # Crash injection (mid-pull or against a running pod): the
            # containers die with it, the pod fails (it must not linger
            # in Pending) and the Interrupt propagates, so the injected
            # kill stays visible to the kernel instead of being swallowed.
            self._kill_pod(pod)
            self._finish_pod(pod, FAILED, "Interrupted")
            raise

    def _setup_pod(self, pod: Pod):
        setup_s = float(pod.meta.annotations.get("pod-setup-seconds",
                                                 DEFAULT_POD_SETUP_S))
        yield self.env.timeout(setup_s)
        if not self.alive or pod.meta.deletion_requested:
            return
        # Pull every container image (cached pulls are near-free).
        for cspec in pod.spec.containers:
            try:
                yield self.registry.pull(self.node.name, cspec.image)
            except ImageNotFoundError:
                self._finish_pod(pod, FAILED, "ImagePullError")
                return
            if not self.alive or pod.meta.deletion_requested:
                return
        containers = []
        for cspec in pod.spec.containers:
            image = self.registry.get(cspec.image)
            container = Container(self.env, image,
                                  f"{pod.name}/{cspec.name}", cspec.workload)
            containers.append(container)
        self._pod_containers[pod.meta.uid] = containers
        for container in containers:
            container.start()
        pod.started_at = self.env.now
        self._set_phase(pod, RUNNING)
        self.api.record_event(KubeEvent(self.env.now, STARTED, "Pod",
                                        pod.name,
                                        pod_type=pod.meta.labels.get("type")))

    def _watch_containers(self, pod: Pod):
        while self.alive and not pod.meta.deletion_requested:
            containers = self._pod_containers.get(pod.meta.uid)
            if not containers:
                return
            waits = [c.wait() for c in containers if c.state != EXITED]
            if waits:
                yield self.env.any_of(waits)
            if not self.alive or pod.meta.deletion_requested \
                    or pod.meta.uid not in self._pod_containers:
                return
            containers = self._pod_containers.get(pod.meta.uid) or containers
            exited = [c for c in containers if c.state == EXITED]
            failed = [c for c in exited if c.exit_code != 0]
            policy = pod.spec.restart_policy
            if failed and policy in (RESTART_ALWAYS, RESTART_ON_FAILURE):
                yield self.env.timeout(RESTART_DELAY_S)
                if not self.alive or pod.meta.deletion_requested:
                    return
                self._restart_containers(pod, failed)
                continue
            if not failed and policy == RESTART_ALWAYS and exited:
                yield self.env.timeout(RESTART_DELAY_S)
                if not self.alive or pod.meta.deletion_requested:
                    return
                self._restart_containers(pod, exited)
                continue
            if len(exited) == len(containers):
                phase = FAILED if failed else SUCCEEDED
                reason = "ContainerFailed" if failed else None
                self._finish_pod(pod, phase, reason)
                return
            # Some containers still running (e.g. idle sidecars): for
            # RESTART_NEVER pods the first failure is terminal.
            if failed and policy == RESTART_NEVER:
                for container in containers:
                    container.kill()
                self._finish_pod(pod, FAILED, "ContainerFailed")
                return

    def _restart_containers(self, pod: Pod,
                            dead: List[Container]) -> None:
        containers = self._pod_containers.get(pod.meta.uid)
        if containers is None:
            return
        for old in dead:
            spec = next(c for c in pod.spec.containers
                        if f"{pod.name}/{c.name}" == old.name)
            replacement = Container(self.env, old.image, old.name,
                                    spec.workload)
            containers[containers.index(old)] = replacement
            replacement.start()
            pod.restarts += 1
        self.api.update_pod(pod)

    def _kill_pod(self, pod: Pod) -> None:
        for container in self._pod_containers.get(pod.meta.uid) or []:
            container.kill()

    def interrupt_pod(self, pod: Pod, cause: str = "crash") -> bool:
        """Inject a crash into the pod's live lifecycle process, in
        set-up, image pull, container watch or restart back-off alike.
        Returns ``False`` when the pod has no live process on this
        node.
        """
        process = self._pod_processes.get(pod.meta.uid)
        if process is None or not process.is_alive:
            return False
        process.interrupt(cause)
        return True

    def _finish_pod(self, pod: Pod, phase: str,
                    reason: Optional[str]) -> None:
        self._pod_containers.pop(pod.meta.uid, None)
        self._pod_processes.pop(pod.meta.uid, None)
        pod.finished_at = self.env.now
        self._set_phase(pod, phase, reason)
        if self.on_pod_terminal is not None:
            self.on_pod_terminal(pod, phase)

    def _teardown(self, pod: Pod, reason: str) -> None:
        self._pod_processes.pop(pod.meta.uid, None)
        containers = self._pod_containers.pop(pod.meta.uid, None)
        if containers:
            for container in containers:
                container.kill()
        self.api.record_event(KubeEvent(self.env.now, KILLED, "Pod",
                                        pod.name, reason=reason,
                                        pod_type=pod.meta.labels.get("type")))
        if self.on_pod_terminal is not None:
            self.on_pod_terminal(pod, "deleted")
        current = self.api.try_get_pod(pod.name)
        if current is not None and current.meta.uid == pod.meta.uid:
            self.api.delete_pod(pod.name)

    def _set_phase(self, pod: Pod, phase: str,
                   reason: Optional[str] = None) -> None:
        pod.phase = phase
        if reason:
            pod.termination_reason = reason
        current = self.api.try_get_pod(pod.name)
        if current is not None and current.meta.uid == pod.meta.uid:
            self.api.update_pod(pod)

    # -- node-level faults ------------------------------------------------------------

    def crash(self) -> None:
        """The node dies: every container on it is gone instantly."""
        self.alive = False
        for containers in self._pod_containers.values():
            for container in containers:
                container.kill()
        self._pod_containers.clear()
        self._pod_processes.clear()

    def recover(self) -> None:
        self.alive = True

    def containers_for(self, pod_name: str) -> List[Container]:
        pod = self.api.try_get_pod(pod_name)
        if pod is None:
            return []
        return list(self._pod_containers.get(pod.meta.uid, []))
