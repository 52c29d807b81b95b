"""Shared fixtures for kube tests."""

import pytest

from repro.docker import Image
from repro.kube import (
    Cluster,
    ContainerSpec,
    NodeCapacity,
    ObjectMeta,
    Pod,
    PodSpec,
    ResourceRequest,
    SchedulerConfig,
)
from repro.kube.events import (
    PREDICATE_INSUFFICIENT_GPU,
    PREDICATE_MATCH_NODE_SELECTOR,
    PREDICATE_NODE_UNSCHEDULABLE,
)
from repro.kube.scheduling.bsa import ALPHA, OBJECTIVE_PACK, bias_weight
from repro.sim import Environment, RngRegistry

LEARNER_IMAGE = Image("learner", framework="tensorflow", size_bytes=1e6)


def make_cluster(policy="pack", gang=False, nodes=2, gpus_per_node=4,
                 gpu_type="K80", seed=0, config_kwargs=None,
                 **cluster_kwargs):
    env = Environment()
    config = SchedulerConfig(policy=policy, gang=gang,
                             **(config_kwargs or {}))
    cluster = Cluster(env, RngRegistry(seed), config, **cluster_kwargs)
    cluster.push_image(LEARNER_IMAGE)
    cluster.add_nodes(nodes, NodeCapacity(cpus=32, memory_gb=256,
                                          gpus=gpus_per_node,
                                          gpu_type=gpu_type))
    return env, cluster


def sleep_workload(env, duration, exit_code=0):
    def workload(container):
        yield env.timeout(duration)
        return exit_code

    return workload


def make_pod(env, name, gpus=1, cpus=4.0, duration=100.0, exit_code=0,
             gang_name=None, gang_size=1, labels=None, workload=None,
             gpu_type=None, volume_claims=None):
    spec = PodSpec(
        containers=[ContainerSpec("main", "learner:latest",
                                  workload or sleep_workload(
                                      env, duration, exit_code))],
        resources=ResourceRequest(cpus=cpus, memory_gb=8, gpus=gpus,
                                  gpu_type=gpu_type),
        gang_name=gang_name, gang_size=gang_size,
        volume_claims=volume_claims or [])
    meta = ObjectMeta(name=name, labels=labels or {"type": "learner"})
    return Pod(meta=meta, spec=spec)


def recount_owner_nodes(api):
    """(owner, node) -> bound-pod count by scanning the pod store: what
    the scheduler's incrementally maintained index must equal."""
    counts = {}
    for pod in api.list_pods():
        if pod.meta.owner is not None and pod.node_name is not None:
            key = (pod.meta.owner, pod.node_name)
            counts[key] = counts.get(key, 0) + 1
    return counts


def bsa_candidates(pods, allocations, eligible, alpha=ALPHA,
                   objective=OBJECTIVE_PACK):
    """What the candidate index hands ``bsa_place``, from name lists:
    each pod's listed nodes that fit it now, in list order, their bias
    weights and their positions.  A pod with no list gets no entry."""
    candidates = {}
    for pod in pods:
        if pod.name in eligible:
            request = pod.spec.resources
            names = [name for name in eligible[pod.name]
                     if allocations[name].fits(request)]
            candidates[pod.name] = (
                names, [bias_weight(allocations[name], request, alpha,
                                    objective) for name in names],
                {name: i for i, name in enumerate(names)})
    return candidates


def fresh_summary(cluster, pod):
    """The FailedScheduling summary from a scan of every node, as the
    scheduler wrote it before it kept counts: the reference its counts
    must equal."""
    wanted_gpus = pod.spec.resources.gpus
    short_gpu = selector_miss = unready = 0
    for node in cluster.api.list_nodes():
        matches = all(node.meta.labels.get(k) == v
                      for k, v in pod.spec.node_selector.items())
        if not matches:
            selector_miss += 1
        if not node.is_ready:
            unready += 1
        elif matches and wanted_gpus > 0 and \
                cluster.allocations[node.name].free_gpus < wanted_gpus:
            short_gpu += 1
    reasons = [f"{predicate} ({count})" for predicate, count in (
        (PREDICATE_INSUFFICIENT_GPU, short_gpu),
        (PREDICATE_MATCH_NODE_SELECTOR, selector_miss),
        (PREDICATE_NODE_UNSCHEDULABLE, unready)) if count]
    return ", ".join(reasons) or "Insufficient resources"


@pytest.fixture
def pack_cluster():
    return make_cluster(policy="pack")


@pytest.fixture
def spread_cluster():
    return make_cluster(policy="spread")
