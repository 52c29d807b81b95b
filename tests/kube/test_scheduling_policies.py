"""Tests for Spread vs Pack placement and the fragmentation phenomenon
described in Section 3.4 of the paper."""

import pytest

from repro.core import FfDLPlatform, PlatformConfig
from repro.errors import KubeError
from repro.kube import PENDING, RUNNING, SchedulerConfig
from repro.sim import Environment, RngRegistry

from tests.kube.conftest import make_cluster, make_pod


def test_spread_distributes_across_nodes():
    env, cluster = make_cluster(policy="spread", nodes=4, gpus_per_node=4)
    pods = [make_pod(env, f"job{i}", gpus=1) for i in range(4)]
    for pod in pods:
        cluster.api.create_pod(pod)
    env.run(until=10)
    nodes_used = {p.node_name for p in pods}
    assert len(nodes_used) == 4


def test_pack_crams_onto_one_node():
    env, cluster = make_cluster(policy="pack", nodes=4, gpus_per_node=4)
    pods = [make_pod(env, f"job{i}", gpus=1) for i in range(4)]
    for pod in pods:
        cluster.api.create_pod(pod)
    env.run(until=10)
    nodes_used = {p.node_name for p in pods}
    assert len(nodes_used) == 1


def test_paper_fragmentation_example():
    """Section 3.4: 4 jobs x 1 GPU on a 4-node/4-GPU cluster, then a 4-GPU
    job arrives.  Spread strands it; Pack fits it."""
    for policy, expect_scheduled in (("spread", False), ("pack", True)):
        env, cluster = make_cluster(policy=policy, nodes=4, gpus_per_node=4)
        small = [make_pod(env, f"small{i}", gpus=1, duration=10_000)
                 for i in range(4)]
        for pod in small:
            cluster.api.create_pod(pod)
        env.run(until=10)
        big = make_pod(env, "big", gpus=4, duration=100)
        cluster.api.create_pod(big)
        env.run(until=20)
        scheduled = big.phase == RUNNING
        assert scheduled == expect_scheduled, policy


def test_pack_leaves_whole_nodes_free():
    env, cluster = make_cluster(policy="pack", nodes=4, gpus_per_node=4)
    pods = [make_pod(env, f"j{i}", gpus=1, duration=10_000)
            for i in range(4)]
    for pod in pods:
        cluster.api.create_pod(pod)
    env.run(until=10)
    free_per_node = [a.free_gpus for a in cluster.allocations.values()]
    assert sorted(free_per_node) == [0, 4, 4, 4]


def test_spread_avoids_same_owner_colocation():
    env, cluster = make_cluster(policy="spread", nodes=2, gpus_per_node=4)
    owner = "rs-uid-1"
    pods = [make_pod(env, f"replica{i}", gpus=1) for i in range(2)]
    for pod in pods:
        pod.meta.owner = owner
        cluster.api.create_pod(pod)
    env.run(until=10)
    assert pods[0].node_name != pods[1].node_name


def test_pack_fills_partially_used_node_first():
    env, cluster = make_cluster(policy="pack", nodes=2, gpus_per_node=4)
    first = make_pod(env, "seed", gpus=2, duration=10_000)
    cluster.api.create_pod(first)
    env.run(until=5)
    second = make_pod(env, "joiner", gpus=2, duration=10_000)
    cluster.api.create_pod(second)
    env.run(until=10)
    assert second.node_name == first.node_name


def test_queued_pod_eventually_scheduled_after_release():
    env, cluster = make_cluster(policy="pack", nodes=1, gpus_per_node=4)
    blocker = make_pod(env, "blocker", gpus=4, duration=50)
    waiter = make_pod(env, "waiter", gpus=4, duration=10)
    cluster.api.create_pod(blocker)
    env.run(until=5)
    cluster.api.create_pod(waiter)
    env.run(until=40)
    assert waiter.phase == PENDING
    env.run(until=100)
    assert waiter.phase in (RUNNING, "Succeeded")


@pytest.mark.parametrize("policy", ["Pack", "SPREAD", "binpack", ""])
def test_scheduler_config_rejects_an_unknown_policy(policy):
    # The first score used to raise inside the scheduler's process: the
    # loop died, env.run() returned normally and every pod stayed Pending.
    with pytest.raises(KubeError, match="policy must be"):
        SchedulerConfig(policy=policy)


def test_platform_rejects_an_unknown_scheduler_policy():
    with pytest.raises(KubeError, match="policy must be"):
        FfDLPlatform(Environment(), RngRegistry(0),
                     PlatformConfig(scheduler_policy="Pack"))
