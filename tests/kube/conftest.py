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


@pytest.fixture
def pack_cluster():
    return make_cluster(policy="pack")


@pytest.fixture
def spread_cluster():
    return make_cluster(policy="spread")
