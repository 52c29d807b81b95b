"""Tests for the runtime schedule-sensitivity detector.

The deliberate-race tests construct the exact situation the detector
exists for: two processes waking from *independent* timeouts at the
same simulated instant and touching the same shared-store key, at
least one writing.  The happens-before tests then show that adding a
real causal edge (waiting on the writer's event) silences the report.
"""

import pytest

from repro.etcd.kv import EtcdStore
from repro.kube.api import KubeAPI
from repro.kube.objects import Node, ObjectMeta
from repro.kube.resources import NodeCapacity
from repro.mongo.database import MongoDatabase
from repro.sim import Environment, RaceDetector, RaceError
from repro.sim.race import VectorClock, note_read, note_write


# -- vector clock unit tests ---------------------------------------------------


def test_vector_clock_ordering():
    a = VectorClock()
    b = VectorClock()
    a.tick(1)
    assert b <= a and not (a <= b)
    b.merge(a)
    assert a <= b and b <= a
    b.tick(2)
    assert a <= b
    a.tick(1)
    assert a.concurrent_with(b)
    assert b.concurrent_with(a)


def test_vector_clock_copy_is_independent():
    a = VectorClock()
    a.tick(7)
    snap = a.copy()
    a.tick(7)
    assert snap <= a and not (a <= snap)


# -- deliberately seeded race --------------------------------------------------


def _racy_pair(env, store):
    """Two processes writing the same key at the same instant, unordered."""

    def writer(value):
        yield env.timeout(1.0)
        store.put("jobs/j1", value)

    env.process(writer("a"), name="writer-a")
    env.process(writer("b"), name="writer-b")


def test_seeded_write_write_race_is_detected():
    env = Environment()
    detector = RaceDetector(env)
    store = EtcdStore(env)
    _racy_pair(env, store)
    env.run()
    assert len(detector.races) == 1
    race = detector.races[0]
    assert race.store == "etcd"
    assert race.key == "jobs/j1"
    assert race.time == 1.0
    # The report names both processes and both code sites.
    assert {race.first.actor, race.second.actor} == {"writer-a", "writer-b"}
    assert race.first.site == "EtcdStore.put"
    assert race.second.site == "EtcdStore.put"
    with pytest.raises(RaceError) as exc:
        detector.assert_race_free()
    assert "writer-a" in str(exc.value)
    assert "EtcdStore.put" in str(exc.value)


def test_seeded_read_write_race_is_detected():
    env = Environment()
    detector = RaceDetector(env)
    store = EtcdStore(env)

    def writer():
        yield env.timeout(1.0)
        store.put("leader", "w")

    def reader():
        yield env.timeout(1.0)
        store.get("leader")

    env.process(writer(), name="writer")
    env.process(reader(), name="reader")
    env.run()
    assert len(detector.races) == 1
    kinds = {detector.races[0].first.kind, detector.races[0].second.kind}
    assert kinds == {"read", "write"}


def test_duplicate_pairs_reported_once():
    env = Environment()
    detector = RaceDetector(env)
    store = EtcdStore(env)

    def writer(value):
        yield env.timeout(1.0)
        store.put("k", value)
        store.put("k", value + "!")

    env.process(writer("a"), name="writer-a")
    env.process(writer("b"), name="writer-b")
    env.run()
    # Four same-site write pairs collapse to one report per (actor, site)
    # pairing.
    assert len(detector.races) == 1


# -- process-less callbacks are actors too --------------------------------------


def test_timeout_callback_races_a_process():
    # A timed action without a process of its own (a Raft delivery
    # applying an etcd write) must still be seen as a separate actor.
    env = Environment()
    detector = RaceDetector(env)
    store = EtcdStore(env)

    def reader():
        yield env.timeout(1.0)
        store.get("leader")

    env.process(reader(), name="reader")
    env.timeout(1.0).callbacks.append(lambda _t: store.put("leader", "w"))
    env.run()
    assert [race.render() for race in detector.races] == [
        "schedule-sensitive conflict on etcd['leader'] at t=1: "
        "write by 'callback' at EtcdStore.put vs read by 'reader' "
        "at EtcdStore.get (no happens-before edge)"]


def test_two_timeout_callbacks_race_each_other():
    env = Environment()
    detector = RaceDetector(env)
    store = EtcdStore(env)
    for value in ("a", "b"):
        env.timeout(1.0).callbacks.append(
            lambda _t, value=value: store.put("k", value))
    env.run()
    assert len(detector.races) == 1
    assert detector.races[0].first.pid != detector.races[0].second.pid


def test_callbacks_of_one_event_are_one_actor():
    env = Environment()
    detector = RaceDetector(env)
    store = EtcdStore(env)
    timeout = env.timeout(1.0)
    # Callbacks of one event run in list order: nothing to reorder.
    timeout.callbacks.append(lambda _t: store.put("k", "a"))
    timeout.callbacks.append(lambda _t: store.put("k", "b"))
    env.run()
    assert detector.races == []


def test_timeout_callback_send_edge_orders_the_woken_process():
    env = Environment()
    detector = RaceDetector(env)
    store = EtcdStore(env)
    applied = env.event()

    def apply(_timeout):
        store.put("k", "v")
        applied.succeed()

    def reader():
        yield applied
        assert env.now == 1.0
        store.get("k")

    env.process(reader(), name="reader")
    env.timeout(1.0).callbacks.append(apply)
    env.run()
    assert detector.races == []


def test_same_instant_callback_inherits_its_triggers_clock():
    env = Environment()
    detector = RaceDetector(env)
    store = EtcdStore(env)
    written = env.event()
    written.callbacks.append(lambda _e: store.get("k"))

    def writer():
        yield env.timeout(1.0)
        store.put("k", "v")
        written.succeed()
        yield env.timeout(0)
        store.put("k", "w")  # after the callback's read, same instant

    env.process(writer(), name="writer")
    env.run()
    assert detector.races == []


# -- non-races -----------------------------------------------------------------


def test_happens_before_ordered_accesses_are_clean():
    env = Environment()
    detector = RaceDetector(env)
    store = EtcdStore(env)
    done = env.event()

    def writer():
        yield env.timeout(1.0)
        store.put("k", "v")
        done.succeed()

    def reader():
        yield done
        # Same simulated instant as the put, but causally after it.
        assert env.now == 1.0
        store.get("k")

    env.process(writer(), name="writer")
    env.process(reader(), name="reader")
    env.run()
    assert detector.races == []
    detector.assert_race_free()


def test_read_read_is_clean():
    env = Environment()
    detector = RaceDetector(env)
    store = EtcdStore(env)
    store.put("k", "v")

    def reader():
        yield env.timeout(1.0)
        store.get("k")

    env.process(reader(), name="r1")
    env.process(reader(), name="r2")
    env.run()
    assert detector.races == []


def test_distinct_keys_are_clean():
    env = Environment()
    detector = RaceDetector(env)
    store = EtcdStore(env)

    def writer(key):
        yield env.timeout(1.0)
        store.put(key, "v")

    env.process(writer("a"), name="w1")
    env.process(writer("b"), name="w2")
    env.run()
    assert detector.races == []


def test_different_timestamps_are_clean():
    env = Environment()
    detector = RaceDetector(env)
    store = EtcdStore(env)

    def writer(delay):
        yield env.timeout(delay)
        store.put("k", delay)

    env.process(writer(1.0), name="w1")
    env.process(writer(2.0), name="w2")
    env.run()
    assert detector.races == []


def test_same_process_accesses_are_clean():
    env = Environment()
    detector = RaceDetector(env)
    store = EtcdStore(env)

    def writer():
        yield env.timeout(1.0)
        store.put("k", 1)
        store.put("k", 2)
        store.get("k")

    env.process(writer(), name="w")
    env.run()
    assert detector.races == []


# -- lifecycle -----------------------------------------------------------------


def test_detach_stops_recording():
    env = Environment()
    detector = RaceDetector(env)
    store = EtcdStore(env)
    detector.detach()
    assert env.race_detector is None
    _racy_pair(env, store)
    env.run()
    assert detector.races == []


def test_note_helpers_are_noops_without_detector():
    env = Environment()
    note_read(env, "etcd", "k", "site")
    note_write(env, "etcd", "k", "site")
    note_read(None, "etcd", "k", "site")


def test_registered_stores_are_visible():
    env = Environment()
    detector = RaceDetector(env)
    EtcdStore(env)
    KubeAPI(env)
    assert set(detector.stores) == {"etcd", "kube"}


def test_duplicate_store_names_get_unique_labels():
    env = Environment()
    a = EtcdStore(env)
    b = EtcdStore(env)
    assert a._race_label == "etcd"
    assert b._race_label == "etcd#2"


# -- substrate coverage --------------------------------------------------------


def test_kube_write_write_race_is_detected():
    env = Environment()
    detector = RaceDetector(env)
    api = KubeAPI(env)
    api.create_node(Node(meta=ObjectMeta(name="n1"),
                         capacity=NodeCapacity(cpus=1, memory_gb=1)))

    def toucher():
        yield env.timeout(1.0)
        api.update_node(api.get_node("n1"))

    env.process(toucher(), name="t1")
    env.process(toucher(), name="t2")
    env.run()
    assert any(r.store == "kube" and r.key == "nodes/n1"
               for r in detector.races)


def test_mongo_write_write_race_is_detected():
    env = Environment()
    detector = RaceDetector(env)
    db = MongoDatabase("meta", env=env)
    db.collection("jobs").insert_one({"_id": "j1", "status": "QUEUED"})

    def toucher(status):
        yield env.timeout(1.0)
        db.collection("jobs").update_one({"_id": "j1"},
                                         {"$set": {"status": status}})

    env.process(toucher("RUNNING"), name="t1")
    env.process(toucher("FAILED"), name="t2")
    env.run()
    assert any(r.store == "mongo:meta" and r.key == "jobs/j1"
               for r in detector.races)


def test_mongo_without_env_records_nothing():
    env = Environment()
    detector = RaceDetector(env)
    db = MongoDatabase("plain")
    db.collection("jobs").insert_one({"_id": "j1"})
    db.collection("jobs").find_one({"_id": "j1"})
    assert detector.races == []
    assert "mongo:plain" not in detector.stores
