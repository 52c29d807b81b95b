"""Tests for etcd streaming watches and leases (the features the paper cites
as the reason etcd was preferred over MongoDB for coordination)."""

import pytest

from repro.errors import StoreError
from repro.etcd import DELETE, EtcdStore, PUT
from repro.sim import Environment


def test_watch_single_key_receives_puts():
    env = Environment()
    store = EtcdStore(env)
    watcher = store.watch("status/job1")
    got = []

    def consumer():
        for _ in range(2):
            ev = yield watcher.get()
            got.append((ev.type, ev.value))

    env.process(consumer())

    def producer():
        yield env.timeout(1)
        store.put("status/job1", "DOWNLOADING")
        store.put("status/other", "ignored")
        yield env.timeout(1)
        store.put("status/job1", "PROCESSING")

    env.process(producer())
    env.run()
    assert got == [(PUT, "DOWNLOADING"), (PUT, "PROCESSING")]
    watcher.close()


def test_watch_receives_delete_with_prev_value():
    env = Environment()
    store = EtcdStore(env)
    store.put("k", "v1")
    watcher = store.watch("k")
    store.delete("k")
    env.run()

    def consume():
        ev = yield watcher.get()
        return ev

    ev = env.run_until_complete(env.process(consume()))
    assert ev.type == DELETE
    assert ev.prev_value == "v1"
    watcher.close()


def test_watch_prefix_sees_all_children():
    env = Environment()
    store = EtcdStore(env)
    watcher = store.watch_prefix("learners/")
    store.put("learners/0", "RUNNING")
    store.put("learners/1", "RUNNING")
    store.put("other", "x")
    assert watcher.pending() == 2
    watcher.close()


def test_cancelled_watcher_gets_nothing():
    env = Environment()
    store = EtcdStore(env)
    watcher = store.watch("k")
    watcher.close()
    store.put("k", 1)
    assert watcher.pending() == 0


def test_close_deregisters_from_fanout_and_is_idempotent():
    env = Environment()
    store = EtcdStore(env)
    exact = store.watch("k")
    prefix = store.watch_prefix("pre/")
    exact.close()
    prefix.close()
    prefix.close()  # double close is a no-op
    before = store.watcher_visits
    store.put("k", 1)
    store.put("pre/a", 2)
    assert store.watcher_visits == before  # nothing left to visit
    assert exact.pending() == 0
    assert prefix.pending() == 0


def test_watcher_context_manager_closes_on_exit():
    env = Environment()
    store = EtcdStore(env)
    with store.watch_prefix("jobs/") as watcher:
        store.put("jobs/1", "a")
        assert watcher.pending() == 1
    assert watcher.cancelled
    store.put("jobs/2", "b")
    assert watcher.pending() == 1  # no delivery after the with-block


def test_indexed_fanout_matches_order_across_watcher_kinds():
    """Exact and prefix watchers on the same key must be delivered in
    registration order regardless of which index found them."""
    env = Environment()
    store = EtcdStore(env)
    order = []
    first = store.watch_prefix("a/")
    second = store.watch("a/b")
    third = store.watch_prefix("")

    def consumer(name, watcher):
        while True:
            yield watcher.get()
            order.append(name)

    env.process(consumer("prefix", first))
    env.process(consumer("exact", second))
    env.process(consumer("root", third))

    def producer():
        yield env.timeout(1)
        store.put("a/b", 1)

    env.process(producer())
    env.run(until=5)
    assert order == ["prefix", "exact", "root"]


def test_fanout_visits_only_the_watchers_it_delivers_to():
    """100 open watchers, 400 writes: the fanout cost is the number of
    deliveries, not writes x watchers."""
    env = Environment()
    store = EtcdStore(env)
    exact = [store.watch(f"/jobs/job-{i}/status") for i in range(80)]
    prefixes = [store.watch_prefix(f"/jobs/job-{i}/") for i in range(20)]
    for index in range(400):
        job = index * 7 % 80
        leaf = "progress" if index % 5 == 4 else "status"
        store.put(f"/jobs/job-{job}/{leaf}", index)
    deliveries = sum(watcher.pending() for watcher in exact + prefixes)
    assert store.notify_calls == 400
    assert 0 < deliveries < 2 * 400
    assert store.watcher_visits == deliveries


def test_watch_events_carry_monotonic_revisions():
    env = Environment()
    store = EtcdStore(env)
    watcher = store.watch_prefix("")
    store.put("a", 1)
    store.put("b", 2)
    store.delete("a")
    revisions = []

    def consume():
        for _ in range(3):
            ev = yield watcher.get()
            revisions.append(ev.revision)

    env.run_until_complete(env.process(consume()))
    assert revisions == sorted(revisions)
    assert len(set(revisions)) == 3
    watcher.close()


def test_lease_expiry_deletes_attached_keys():
    env = Environment()
    store = EtcdStore(env)
    lease = store.grant_lease(ttl_s=10.0)
    store.put("status/zombie", "RUNNING", lease_id=lease.lease_id)
    env.run(until=9.0)
    assert store.get("status/zombie") is not None
    env.run(until=11.0)
    assert store.get("status/zombie") is None
    assert not store.lease_alive(lease.lease_id)


def test_keepalive_extends_lease():
    env = Environment()
    store = EtcdStore(env)
    lease = store.grant_lease(ttl_s=10.0)
    store.put("k", 1, lease_id=lease.lease_id)

    def heartbeat():
        for _ in range(5):
            yield env.timeout(8.0)
            assert store.keepalive(lease.lease_id)

    env.process(heartbeat())
    env.run(until=45.0)
    assert store.get("k") is not None
    env.run(until=60.0)
    assert store.get("k") is None  # heartbeats stopped at ~40s


def test_keepalive_on_dead_lease_returns_false():
    env = Environment()
    store = EtcdStore(env)
    lease = store.grant_lease(ttl_s=1.0)
    env.run(until=2.0)
    assert store.keepalive(lease.lease_id) is False


def test_revoke_deletes_keys_and_fires_watch():
    env = Environment()
    store = EtcdStore(env)
    lease = store.grant_lease(ttl_s=100.0)
    store.put("a", 1, lease_id=lease.lease_id)
    watcher = store.watch("a")
    assert store.revoke(lease.lease_id)
    assert store.get("a") is None
    assert watcher.pending() == 1
    assert not store.revoke(lease.lease_id)
    watcher.close()


def test_lease_ttl_must_be_positive():
    store = EtcdStore(Environment())
    with pytest.raises(StoreError):
        store.grant_lease(0)


def test_deleting_key_detaches_from_lease():
    env = Environment()
    store = EtcdStore(env)
    lease = store.grant_lease(ttl_s=5.0)
    store.put("a", 1, lease_id=lease.lease_id)
    store.delete("a")
    store.put("a", 2)  # re-created without lease
    env.run(until=10.0)
    assert store.get("a").value == 2  # expiry must not delete the new key
