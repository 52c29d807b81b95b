"""Tests for Raft-replicated etcd."""

import pytest

from repro.etcd import ReplicatedEtcd
from repro.sim import Environment, RngRegistry


@pytest.fixture
def setup():
    env = Environment()
    etcd = ReplicatedEtcd(env, RngRegistry(0), size=3)
    env.run(until=1.0)  # elect a leader
    return env, etcd


def test_put_reaches_hub_and_all_replicas(setup):
    env, etcd = setup
    env.run_until_complete(etcd.put("k", "v"), limit=env.now + 10)
    env.run(until=env.now + 1.0)
    assert etcd.get("k").value == "v"
    for sm in etcd.replicas.values():
        assert sm.store.get("k").value == "v"


def test_delete_replicates(setup):
    env, etcd = setup
    env.run_until_complete(etcd.put("k", "v"), limit=env.now + 10)
    env.run_until_complete(etcd.delete("k"), limit=env.now + 10)
    env.run(until=env.now + 1.0)
    assert etcd.get("k") is None
    for sm in etcd.replicas.values():
        assert sm.store.get("k") is None


def test_survives_leader_crash(setup):
    env, etcd = setup
    env.run_until_complete(etcd.put("before", 1), limit=env.now + 10)
    etcd.crash_leader()
    env.run(until=env.now + 2.0)
    env.run_until_complete(etcd.put("after", 2), limit=env.now + 20)
    assert etcd.get("before").value == 1
    assert etcd.get("after").value == 2


def test_watch_fires_exactly_once_per_commit(setup):
    env, etcd = setup
    watcher = etcd.watch("status")
    env.run_until_complete(etcd.put("status", "A"), limit=env.now + 10)
    env.run_until_complete(etcd.put("status", "B"), limit=env.now + 10)
    env.run(until=env.now + 1.0)
    assert watcher.pending() == 2
    watcher.close()


def test_restarted_replica_converges(setup):
    env, etcd = setup
    victim_id = next(n for n, node in etcd.cluster.nodes.items()
                     if not node.is_leader)
    etcd.crash_replica(victim_id)
    env.run_until_complete(etcd.put("k1", 1), limit=env.now + 10)
    env.run_until_complete(etcd.put("k2", 2), limit=env.now + 10)
    etcd.restart_replica(victim_id)
    env.run(until=env.now + 2.0)
    replica = etcd.replicas[victim_id].store
    assert replica.get("k1").value == 1
    assert replica.get("k2").value == 2


def test_lease_expiry_deletes_via_consensus(setup):
    env, etcd = setup
    lease = etcd.grant_lease(ttl_s=2.0)
    env.run_until_complete(etcd.put("guarded", "x", lease_id=lease.lease_id),
                           limit=env.now + 10)
    env.run(until=env.now + 5.0)
    assert etcd.get("guarded") is None
    for sm in etcd.replicas.values():
        assert sm.store.get("guarded") is None


def test_hub_revision_matches_command_count(setup):
    env, etcd = setup
    for i in range(5):
        env.run_until_complete(etcd.put(f"k{i}", i), limit=env.now + 10)
    env.run(until=env.now + 1.0)
    assert etcd.hub.revision == 5
