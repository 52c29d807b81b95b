"""Tests for MongoDB replica-set failover behaviour."""

import pytest

from repro.errors import StoreError
from repro.mongo import MongoClient, MongoDatabase, MongoReplicaSet
from repro.sim import Environment


def make_rs(secondaries=2):
    env = Environment()
    rs = MongoReplicaSet(env, secondaries=secondaries)
    return env, rs


def test_writes_replicate_to_secondaries():
    env, rs = make_rs()
    rs.collection("jobs").insert_one({"_id": "j1", "status": "RUNNING"})
    env.run(until=1.0)
    for member in rs.members:
        assert member.collection("jobs").find_one({"_id": "j1"}) is not None


def test_replication_has_lag():
    env, rs = make_rs()
    rs.collection("jobs").insert_one({"_id": "j1"})
    # Before the replication interval elapses the secondary is empty.
    assert rs.members[1].collection("jobs").count() == 0
    env.run(until=1.0)
    assert rs.members[1].collection("jobs").count() == 1


def test_failover_promotes_secondary():
    env, rs = make_rs()
    rs.collection("jobs").insert_one({"_id": "j1"})
    env.run(until=1.0)
    rs.crash_member(0)
    assert rs.primary_index != 0
    # Data survives on the new primary.
    assert rs.collection("jobs").find_one({"_id": "j1"}) is not None


def test_writes_continue_after_failover():
    env, rs = make_rs()
    rs.collection("jobs").insert_one({"_id": "before"})
    env.run(until=1.0)
    rs.crash_member(0)
    rs.collection("jobs").insert_one({"_id": "after"})
    env.run(until=env.now + 1.0)
    live = [i for i in range(3) if i != 0]
    for i in live:
        coll = rs.members[i].collection("jobs")
        assert coll.count() == 2


def test_restarted_member_resyncs():
    env, rs = make_rs()
    rs.crash_member(2)
    rs.collection("jobs").insert_one({"_id": "j1"})
    env.run(until=1.0)
    rs.restart_member(2)
    env.run(until=env.now + 1.0)
    assert rs.members[2].collection("jobs").count() == 1


@pytest.mark.parametrize("method", ["update_one"])
def test_an_update_stores_none_of_the_callers_objects(method):
    env, rs = make_rs()
    jobs = rs.collection("jobs")
    jobs.insert_one({"_id": "j1", "history": []})
    meta, event = {"owner": "alice"}, {"status": "RUNNING"}
    getattr(jobs, method)({"_id": "j1"}, {"$set": {"meta": meta},
                                          "$push": {"history": event}})
    entry = rs.primary.oplog[-1]
    meta["owner"], event["status"] = "mallory", "FAILED"
    expected = {"_id": "j1", "history": [{"status": "RUNNING"}],
                "meta": {"owner": "alice"}}
    assert jobs.find_one({"_id": "j1"}) == expected
    assert entry[1] == expected
    env.run(until=rs.replication_lag_s * 1.5)  # one tick
    for member in rs.members:
        assert member.collection("jobs").find_one({"_id": "j1"}) == expected


@pytest.mark.parametrize("update, upsert", [
    ({"$set": {"status": "RUNNING"},
      "$push": {"history": {"status": "RUNNING"}}}, False),
    ({"state": "RUNNING", "generation": 2}, False),
    ({"$set": {"version": 1, "written_at": 0.5}}, True),
], ids=["set-and-push", "replacement", "set-with-upsert"])
def test_each_update_form_reaches_the_secondaries(update, upsert):
    """The three update forms FfDL sends: the job status (``$set`` +
    ``$push``), the dispatcher's intent log (replacement), and the
    status-store ablation (``$set`` with upsert, here of a new id)."""
    env, rs = make_rs()
    jobs = rs.collection("jobs")
    jobs.insert_one({"_id": "j1", "history": []})
    doc_id = "j2" if upsert else "j1"
    assert jobs.update_one({"_id": doc_id}, update, upsert=upsert) == 1
    env.run(until=rs.replication_lag_s * 1.5)  # one tick
    primary = rs.primary.collection("jobs")
    for member in rs.members:
        secondary = member.collection("jobs")
        assert secondary.count() == primary.count()
        for each in ("j1", "j2"):
            assert repr(secondary.find_one({"_id": each})) \
                == repr(primary.find_one({"_id": each}))
    assert primary.find_one({"_id": doc_id})["_id"] == doc_id


def test_total_outage_raises():
    env, rs = make_rs(secondaries=1)
    rs.crash_member(0)
    rs.crash_member(1)
    with pytest.raises(StoreError):
        _ = rs.primary


def test_negative_secondaries_rejected():
    with pytest.raises(StoreError):
        MongoReplicaSet(Environment(), secondaries=-1)


@pytest.mark.parametrize("lag", [0.0, -0.05, float("nan")])
def test_replication_lag_must_be_positive(lag):
    # Zero spun the replication loop at one instant; a negative lag
    # failed a process nobody waits on.
    env = Environment()
    with pytest.raises(StoreError, match="replication_lag_s"):
        MongoReplicaSet(env, replication_lag_s=lag)
    assert env.events_scheduled == 0  # no replication loop was started


def test_client_over_database_and_replica_set():
    env = Environment()
    for backend in (MongoDatabase(), MongoReplicaSet(env)):
        client = MongoClient(env, backend)

        def flow():
            yield client.insert_one("jobs", {"_id": "a", "v": 1})
            yield client.update_one("jobs", {"_id": "a"},
                                    {"$set": {"v": 2}})
            doc = yield client.find_one("jobs", {"_id": "a"})
            return doc["v"], backend.collection("jobs").count()

        assert env.run_until_complete(
            env.process(flow()), limit=env.now + 10) == (2, 1)


def test_client_latency_applied():
    env = Environment()
    client = MongoClient(env, MongoDatabase(), latency_s=0.02)

    def flow():
        yield client.insert_one("c", {"_id": "x"})
        return env.now

    assert env.run_until_complete(env.process(flow())) == pytest.approx(0.02)

# -- delayed elections (chaos realism) -------------------------------------


def test_election_delay_opens_primaryless_window():
    from repro.errors import StoreUnavailableError

    env = Environment()
    rs = MongoReplicaSet(env, secondaries=2, election_delay_s=5.0)
    rs.collection("jobs").insert_one({"_id": "j1"})
    env.run(until=1.0)
    rs.crash_member(0)
    assert not rs.has_primary
    with pytest.raises(StoreUnavailableError):
        rs.primary
    env.run(until=1.0 + 5.5)
    assert rs.has_primary
    assert rs.primary_index != 0
    assert len(rs.failover_log) == 1
    lost_at, elected_at, new_primary = rs.failover_log[0]
    assert elected_at - lost_at == pytest.approx(5.0)
    assert new_primary == rs.primary_index


def test_election_delay_restart_cancels_pending_election():
    env = Environment()
    rs = MongoReplicaSet(env, secondaries=2, election_delay_s=5.0)
    rs.crash_member(0)

    def restart():
        yield env.timeout(2.0)
        rs.restart_member(0)

    env.process(restart())
    env.run(until=20.0)
    # The old primary came back inside the election window: it stays
    # primary and no failover is recorded.
    assert rs.primary_index == 0
    assert rs.failover_log == []


def test_failover_under_concurrent_writes_loses_nothing():
    """Writers retrying through a delayed election land every document."""
    from repro.resilience import RetryPolicy
    from repro.sim import RngRegistry

    env = Environment()
    rs = MongoReplicaSet(env, secondaries=2, election_delay_s=2.0)
    client = MongoClient(env, rs, rng=RngRegistry(7),
                         retry=RetryPolicy(max_attempts=8, base_delay_s=0.2,
                                           max_delay_s=2.0))
    written = []

    def writer(index):
        def one_write():
            yield env.timeout(index * 0.5)
            yield client.insert_one("jobs", {"_id": f"j{index}"})
            written.append(index)
        return one_write

    for index in range(12):
        env.process(writer(index)(), name=f"writer-{index}")

    def chaos():
        yield env.timeout(1.5)
        rs.crash_member(rs.primary_index)
        yield env.timeout(3.0)
        rs.crash_member(rs.primary_index)

    env.process(chaos(), name="chaos")
    env.run(until=60.0)
    assert sorted(written) == list(range(12))
    docs = rs.collection("jobs").count()
    assert docs == 12
    assert len(rs.failover_log) == 2
