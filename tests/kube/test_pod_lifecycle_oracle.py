"""The pod lifecycle against its seven-process form, on random programs.

The reference below keeps verbatim the forms the timers replaced: a
``Container`` whose exit is recorded by a second ``container:`` process
waiting on the workload, a ``Registry.pull`` that is a ``pull:``
process, a ``Kubelet`` that hands a started pod from its set-up
process to a ``podmon:`` process, and a ``Cluster`` whose pod GC and
finalize are ``podgc:`` / ``pod-finalize:`` processes.  (The kubelet's
``_watch_containers`` and ``_restart_containers`` and the cluster's
``add_node`` are kept as well, unchanged, so that they build the
reference's containers and kubelets.)

(The reference ``Container`` lives in
``tests/docker/reference_container.py``.)

A program runs on one or two nodes, one cluster of each form, with a
short node-failure detection, eviction timeout and pod-GC TTL so that
each of them fires inside it.  It creates pods of one or two containers
under the three restart policies, whose workloads sleep and then exit
0 / 1 / 2, raise, or idle, or wind down for 0.5 s after a kill and then
return or raise; their images are cached (0.004 s), cold (10 s, so two
pods on one node pull it at once), or missing.  Between waits of 0 to
10.5 s it interrupts a bound pod (in set-up, in a pull, running or in
restart back-off, as the clock falls), deletes one (again inside the
grace period, or recreates the name under a new uid), and crashes or
recovers a node.  Both forms must agree by ``==`` on every pod watch
notification (phase, reason, restarts, node and every timestamp),
every workload's begin / end / kill, the kubelets' containers and
every node's free resources after each step, every ``interrupt_pod``
answer, the state, exit code and logs of every container a workload
ran in, the ``KubeEvent`` log, the ``deletion_log``, the registry's
counters and the clock.
"""

from typing import Dict, List, Optional

from hypothesis import example, given, settings, strategies as st

from repro.docker import runtime
from repro.docker.runtime import EXITED, Image
from repro.errors import ImageNotFoundError, KubeError
from repro.kube import cluster as cluster_module, kubelet as kubelet_module
from repro.kube.cluster import DELETION_GRACE_S
from repro.kube.events import KubeEvent, STARTED
from repro.kube.kubelet import DEFAULT_POD_SETUP_S, RESTART_DELAY_S
from repro.kube.objects import (
    ContainerSpec,
    FAILED,
    Node,
    NodeCapacity,
    ObjectMeta,
    Pod,
    PodSpec,
    RESTART_ALWAYS,
    RESTART_NEVER,
    RESTART_ON_FAILURE,
    RUNNING,
    SUCCEEDED,
)
from repro.kube.resources import NodeAllocation, ResourceRequest
from repro.kube.scheduling.framework import SchedulerConfig
from repro.sim import Environment, RngRegistry
from repro.sim.core import Event, Interrupt

from tests.conftest import examples
from tests.docker.reference_container import Container


# -- the reference: the seven-process pod, verbatim ---------------------------


class Registry(runtime.Registry):
    """``pull`` as it was."""

    def pull(self, node_name: str, reference: str) -> Event:
        """Pull an image onto a node; near-instant when already cached."""
        image = self.get(reference)
        cache = self._node_caches.setdefault(node_name, set())
        self.pulls += 1

        def fetch():
            if reference in cache:
                self.cache_hits += 1
                yield self.env.timeout(0.1)  # docker inspect overhead
            else:
                yield self.env.timeout(image.size_bytes /
                                       self.pull_bandwidth_bps)
                cache.add(reference)
            return image

        return self.env.process(fetch(), name=f"pull:{reference}")

class Kubelet(kubelet_module.Kubelet):
    """The set-up process and the ``podmon`` process, as they were."""

    def _run_pod(self, pod: Pod):
        try:
            yield from self._setup_pod(pod)
        except Interrupt:
            # Crash injection: mark the pod failed (it must not linger in
            # Pending) and re-raise so the injected kill stays visible to
            # the kernel instead of being swallowed.
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
        self._pod_processes[pod.meta.uid] = self.env.process(
            self._monitor_pod(pod),
            name=f"podmon:{self.node.name}:{pod.name}")

    def _monitor_pod(self, pod: Pod):
        """Wait for container exits; apply the restart policy."""
        try:
            yield from self._watch_containers(pod)
        except Interrupt:
            # Crash injection against a running pod: the containers die
            # with it, the pod fails, and the Interrupt propagates.
            self._kill_pod(pod)
            self._finish_pod(pod, FAILED, "Interrupted")
            raise

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

class Cluster(cluster_module.Cluster):
    """Pod GC and finalize as processes; ``add_node`` builds the
    reference kubelet."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.registry = Registry(self.env)

    def _on_pod_gc(self, verb: str, pod: Pod) -> None:
        if verb != "MODIFIED" or not pod.is_terminal \
                or self.terminal_pod_gc_ttl_s <= 0:
            return
        if pod.meta.annotations.get("gc-scheduled"):
            return
        pod.meta.annotations["gc-scheduled"] = "true"

        def collect():
            yield self.env.timeout(self.terminal_pod_gc_ttl_s)
            current = self.api.try_get_pod(pod.name)
            if current is not None and current.meta.uid == pod.meta.uid \
                    and current.is_terminal:
                self.delete_pod(pod.name, cause="gc")

        self.env.process(collect(), name=f"podgc:{pod.name}")

    def delete_pod(self, name: str, cause: str = "user") -> None:
        """Gracefully delete a pod: flag, let the kubelet tear it down, and
        force-remove after the grace period if nothing else did."""
        pod = self.api.mark_pod_for_deletion(name)
        if pod is None:
            return
        self.deletion_log.append((self.env.now, name,
                                  pod.meta.labels.get("type"), cause))

        def finalize():
            yield self.env.timeout(DELETION_GRACE_S)
            # The name may have been reused by a replacement pod by now:
            # only finalize the exact object this deletion targeted.
            current = self.api.try_get_pod(name)
            if current is not None and current.meta.uid == pod.meta.uid:
                self.release(pod)
                self.api.delete_pod(name)

        self.env.process(finalize(), name=f"pod-finalize:{name}")

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


# -- the programs -------------------------------------------------------------

IMAGES = (Image("small", size_bytes=1e6),  # 0.004 s, then cached
          Image("big", size_bytes=2.5e9))  # 10 s, cached after
IMAGE_REFS = ("small:latest", "big:latest", "ghost:latest")  # ghost: absent
POLICIES = (RESTART_NEVER, RESTART_ON_FAILURE, RESTART_ALWAYS)
#: What a container's workload does after its sleep; a lingering one
#: winds down for 0.5 s after a kill and then returns or raises.
OUTCOMES = (0, 1, 2, "raise", "linger", "linger-raise", "idle")
NAMES = 4
WAITS = (0.0, 0.05, 0.5, 1.0, 1.2, RESTART_DELAY_S, 3.0, 7.0, 10.5)

CONTAINER = st.tuples(st.sampled_from((0, 0, 0, 1, 1, 2)),  # image
                      st.sampled_from((0.5, 2.0, 6.0)),  # sleep
                      st.sampled_from(OUTCOMES))
CREATE = st.tuples(st.just("create"), st.integers(0, NAMES - 1),
                   st.sampled_from(POLICIES),
                   st.sampled_from((0.5, 1.0, 2.0)),
                   st.lists(CONTAINER, min_size=1, max_size=2))
#: ``interrupt`` picks among the bound pods, ``delete`` among the names.
STEP = st.one_of(
    CREATE, CREATE,
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
    st.tuples(st.just("delete"), st.integers(0, NAMES - 1)),
    st.tuples(st.sampled_from(("crash", "recover")), st.integers(0, 1)),
)
PROGRAM = st.lists(st.tuples(st.sampled_from(WAITS), STEP),
                   min_size=6, max_size=30)


def workload_of(env, trace, started, sleep_s, outcome):
    if outcome == "idle":
        return None

    def workload(container):
        started.append(container)
        trace.append((env.now, container.name, "begin"))
        try:
            yield env.timeout(sleep_s)
        except Interrupt:  # staticcheck: ignore[SAF001] a lingering workload winds down after the kill
            trace.append((env.now, container.name, "killed"))
            if outcome not in ("linger", "linger-raise"):
                raise
            yield env.timeout(0.5)
            trace.append((env.now, container.name, "wound down"))
        else:
            trace.append((env.now, container.name, "end"))
        if outcome in ("raise", "linger-raise"):
            raise RuntimeError("workload bug")
        return outcome if isinstance(outcome, int) else 0

    return workload


class Run:
    """One cluster of one form running a program, and what it saw."""

    def __init__(self, cluster_class, nodes):
        self.env = Environment()
        self.cluster = cluster_class(
            self.env, RngRegistry(0), SchedulerConfig(policy="pack"),
            node_detection_latency_s=3.0, pod_eviction_timeout_s=5.0,
            terminal_pod_gc_ttl_s=6.0)
        for image in IMAGES:
            self.cluster.push_image(image)
        self.nodes = [node.name for node in self.cluster.add_nodes(
            nodes, NodeCapacity(cpus=8, memory_gb=64, gpus=2,
                                gpu_type="K80"))]
        self.trace: List[tuple] = []
        #: Every container a workload ran in, killed or not.
        self.started: List[runtime.Container] = []
        self.seen: List[tuple] = []
        self.uids = 0
        self.cluster.api.subscribe("pods", self._watch)

    def _watch(self, verb: str, pod: Pod) -> None:
        meta = pod.meta
        self.seen.append((self.env.now, verb, pod.name, meta.uid, pod.phase,
                          pod.termination_reason, pod.restarts,
                          pod.node_name, pod.scheduled_at, pod.started_at,
                          pod.finished_at, meta.deletion_requested,
                          meta.deletion_requested_at))

    def step(self, op, *args):
        api, cluster = self.cluster.api, self.cluster
        if op == "create":
            index, policy, setup_s, containers = args
            name = f"pod-{index}"
            if api.exists("pods", name):
                return "exists"
            self.uids += 1
            specs = [ContainerSpec(f"c{i}", IMAGE_REFS[image],
                                   workload_of(self.env, self.trace,
                                               self.started, sleep_s,
                                               outcome))
                     for i, (image, sleep_s, outcome)
                     in enumerate(containers)]
            api.create_pod(Pod(
                meta=ObjectMeta(name=name, uid=f"uid-{self.uids}",
                                labels={"type": "learner"},
                                annotations={"pod-setup-seconds":
                                             str(setup_s)}),
                spec=PodSpec(containers=specs,
                             resources=ResourceRequest(cpus=1,
                                                       memory_gb=4,
                                                       gpus=1),
                             restart_policy=policy)))
            return "created"
        if op == "interrupt":
            bound = sorted((pod.name, pod) for pod in api.list_pods()
                           if pod.node_name is not None)
            if not bound:
                return None
            pod = bound[args[0] % len(bound)][1]
            return pod.name, \
                cluster.kubelets[pod.node_name].interrupt_pod(pod)
        if op == "delete":
            cluster.delete_pod(f"pod-{args[0]}")
            return None
        node = self.nodes[args[0] % len(self.nodes)]
        if op == "crash":
            cluster.fail_node(node)
        else:
            cluster.recover_node(node)
        return None

    def state(self):
        """The containers on every kubelet and what every node has
        free."""
        return [(name, allocation.free_cpus, allocation.free_gpus)
                for name, allocation in self.cluster.allocations.items()
                ] + sorted(
            (uid, c.name, c.state, c.exit_code, c.started_at,
             c.finished_at, c.logs)
            for kubelet in self.cluster.kubelets.values()
            for uid, containers in kubelet._pod_containers.items()
            for c in containers)

    def play(self, program):
        """Every observation, in order."""
        out = []
        for wait, step in program:
            self.env.run(until=self.env.now + wait)
            out.append((self.env.now, step[0], self.step(*step)))
            out.append(self.state())
        self.env.run(until=self.env.now + 40.0)
        out.append([(c.name, c.state, c.exit_code, c.finished_at, c.logs)
                    for c in self.started])
        registry = self.cluster.registry
        out.append((self.env.now, registry.pulls, registry.cache_hits,
                    sorted(api_pod.name
                           for api_pod in self.cluster.api.list_pods())))
        return out


def observe(cluster_class, nodes, program):
    run = Run(cluster_class, nodes)
    out = run.play(program)
    return (out, run.seen, run.trace, run.cluster.api.event_log.events,
            run.cluster.deletion_log)


# On one node: two pods pull the cold image at once and the first is
# interrupted mid-pull; a running pod is deleted, its lingering
# container winding down, and its name reused inside the grace period;
# the other cold-pull pod is interrupted in restart back-off; the node
# crashes under a running idle pod and recovers.
COLD_PULLS = [
    (0.0, ("create", 0, RESTART_ON_FAILURE, 1.0, [(1, 0.5, 1)])),
    (0.0, ("create", 1, RESTART_NEVER, 1.0, [(1, 2.0, 0)])),
    (0.0, ("create", 2, RESTART_ALWAYS, 0.5, [(0, 0.5, 2),
                                              (0, 6.0, "linger")])),
    (3.0, ("interrupt", 0)),
    (1.0, ("delete", 2)),
    (0.05, ("create", 2, RESTART_NEVER, 0.5, [(0, 0.5, "raise")])),
    (10.5, ("create", 3, RESTART_NEVER, 0.5, [(0, 6.0, "idle")])),
    (1.0, ("interrupt", 0)),
    (2.0, ("crash", 0)),
    (7.0, ("recover", 0)),
]


@settings(max_examples=examples(80), deadline=None)
@given(nodes=st.integers(1, 2), program=PROGRAM)
@example(nodes=1, program=COLD_PULLS)
@example(nodes=2, program=COLD_PULLS)
def test_the_pod_lifecycle_matches_the_seven_process_form(nodes, program):
    assert observe(cluster_module.Cluster, nodes, program) == \
        observe(Cluster, nodes, program)
