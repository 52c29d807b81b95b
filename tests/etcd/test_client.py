"""Tests for the EtcdClient facade."""

import pytest

from repro.errors import StoreError
from repro.etcd import EtcdClient, EtcdStore, ReplicatedEtcd
from repro.resilience import CircuitBreaker, RetryPolicy
from repro.sim import Environment, RngRegistry
from repro.sim.core import Event


def standalone_client(latency=0.002):
    env = Environment()
    store = EtcdStore(env)
    return env, store, EtcdClient(env, store, latency_s=latency)


def test_put_and_get_roundtrip():
    env, _store, client = standalone_client()

    def flow():
        yield client.put("k", "v")
        kv = yield client.get("k")
        return kv.value

    assert env.run_until_complete(env.process(flow())) == "v"


def test_ops_take_latency():
    env, _store, client = standalone_client(latency=0.01)

    def flow():
        yield client.put("k", 1)
        return env.now

    assert env.run_until_complete(env.process(flow())) == pytest.approx(0.01)


def test_get_value_resolves_bare_value_or_none():
    env, store, client = standalone_client()
    store.put("k", 42)

    def flow():
        present = yield client.get_value("k")
        absent = yield client.get_value("missing")
        return present, absent

    assert env.run_until_complete(env.process(flow())) == (42, None)


def test_delete_prefix_through_client():
    env, store, client = standalone_client()
    store.put("a/1", 1)
    store.put("a/2", 2)

    def flow():
        count = yield client.delete_prefix("a/")
        return count

    assert env.run_until_complete(env.process(flow())) == 2


def test_watch_is_synchronous_and_streams():
    env, _store, client = standalone_client()
    watcher = client.watch_prefix("jobs/")

    def flow():
        yield client.put("jobs/1", "x")
        ev = yield watcher.get()
        return ev.key

    assert env.run_until_complete(env.process(flow())) == "jobs/1"
    watcher.close()


def test_lease_grant_keepalive_revoke():
    env, _store, client = standalone_client()

    def flow():
        lease = yield client.grant_lease(10.0)
        yield client.put("k", 1, lease_id=lease.lease_id)
        alive = yield client.keepalive(lease.lease_id)
        assert alive
        yield client.revoke(lease.lease_id)
        value = yield client.get_value("k")
        return value, client.lease_alive(lease.lease_id)

    value, alive = env.run_until_complete(env.process(flow()))
    assert value is None
    assert not alive


def test_client_counts_ops():
    env, _store, client = standalone_client()

    def flow():
        yield client.put("a", 1)
        yield client.get("a")

    env.run_until_complete(env.process(flow()))
    assert client.ops_issued == 2


def test_client_over_replicated_backend():
    env = Environment()
    etcd = ReplicatedEtcd(env, RngRegistry(0), size=3)
    client = EtcdClient(env, etcd)
    env.run(until=1.0)

    def flow():
        yield client.put("k", "v")
        value = yield client.get_value("k")
        return value

    assert env.run_until_complete(env.process(flow()),
                                  limit=env.now + 20) == "v"


# -- kernel-event tripwires: an operation is a timer and a result -------------


def _events_for_one_put(guarded):
    env = Environment()
    guards = dict(retry=RetryPolicy(), breaker=CircuitBreaker(env)) \
        if guarded else {}
    client = EtcdClient(env, EtcdStore(env), rng=RngRegistry(0), **guards)
    done = client.put("k", "v")
    env.run()
    assert done.ok
    return env.events_processed, done


def test_an_operation_is_two_kernel_events_with_or_without_a_policy():
    bare, done = _events_for_one_put(guarded=False)
    guarded, _ = _events_for_one_put(guarded=True)
    assert (bare, guarded) == (2, 2)  # 3 and 5 while processes ran them
    # A plain event: no process behind it to interrupt or watch end.
    assert type(done) is Event


def test_each_retry_costs_a_backoff_timer_and_a_latency_timer():
    env = Environment()
    client = EtcdClient(env, EtcdStore(env),
                        retry=RetryPolicy(max_attempts=4, jitter=False))
    client.set_available(False)
    done = client.put("k", "v")
    env.run(until=0.06)  # attempts at 0.002 and 0.054 found it down
    client.set_available(True)
    env.run()
    assert done.ok and client.retries == 2
    assert env.now == 0.002 + 0.05 + 0.002 + 0.1 + 0.002
    assert env.events_processed == 2 + 2 * client.retries


def test_a_semantic_error_fails_the_result_and_is_not_retried():
    env = Environment()
    client = EtcdClient(env, EtcdStore(env), rng=RngRegistry(0),
                        retry=RetryPolicy())
    done = client.put("k", "v", lease_id=99)  # no such lease
    env.run()
    assert not done.ok and isinstance(done.value, StoreError)
    assert (client.retries, env.events_processed) == (0, 2)
