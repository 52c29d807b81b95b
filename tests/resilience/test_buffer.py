"""Unit tests for the write-behind BufferedJobWriter."""

import pytest

from repro.errors import (
    DuplicateKeyError,
    SimulationError,
    StoreError,
    StoreUnavailableError,
)
from repro.mongo import MongoClient, MongoDatabase
from repro.resilience import BufferedJobWriter, RetryPolicy
from repro.sim import Environment, RngRegistry


class FakeMongoClient:
    """Scripted client: records applied ops, fails while unavailable."""

    def __init__(self, env, latency_s=0.01):
        self.env = env
        self.latency_s = latency_s
        self.available = True
        self.applied = []
        self.reject_duplicates = False
        self.reject_updates = False
        self._seen_ids = set()

    def _op(self, op, collection, payload):
        def run():
            yield self.env.timeout(self.latency_s)
            if not self.available:
                raise StoreUnavailableError("down")
            if op == "update" and self.reject_updates:
                raise StoreError("bad update")
            if op == "insert" and self.reject_duplicates:
                doc_id = payload[0].get("_id")
                if doc_id in self._seen_ids:
                    raise DuplicateKeyError(doc_id)
                self._seen_ids.add(doc_id)
            self.applied.append((self.env.now, op, collection, payload))
        return self.env.process(run(), name=f"fake-mongo-{op}")

    def insert_one(self, collection, document):
        return self._op("insert", collection, (document,))

    def update_one(self, collection, query, update):
        return self._op("update", collection, (query, update))


def make_writer(seed=0, cooldown_s=0.5):
    env = Environment()
    client = FakeMongoClient(env)
    writer = BufferedJobWriter(
        env, client, stream=RngRegistry(seed).stream("test-writer"),
        policy=RetryPolicy(max_attempts=3, base_delay_s=0.05,
                           max_delay_s=0.2, jitter=False),
        cooldown_s=cooldown_s)
    return env, client, writer


def test_writes_flush_in_fifo_order():
    env, client, writer = make_writer()
    writer.insert("jobs", {"_id": "j1"})
    writer.update("jobs", {"_id": "j1"}, {"$set": {"status": "RUNNING"}})
    writer.insert("jobs", {"_id": "j2"})
    env.run(until=5.0)
    assert [entry[1] for entry in client.applied] == \
        ["insert", "update", "insert"]
    assert writer.total_flushed == 3
    assert writer.pending == 0
    assert not writer.degraded


def test_done_event_fires_when_durable():
    env, client, writer = make_writer()
    durable_at = []

    def submitter():
        write = writer.insert("jobs", {"_id": "j1"})
        yield write
        durable_at.append(env.now)

    env.process(submitter())
    env.run(until=5.0)
    assert durable_at and durable_at[0] > 0


def test_outage_buffers_then_flushes_everything_in_order():
    env, client, writer = make_writer()
    client.available = False
    for index in range(5):
        writer.insert("jobs", {"_id": f"j{index}"})

    def recover():
        yield env.timeout(10.0)
        client.available = True

    env.process(recover())
    env.run(until=30.0)
    assert writer.pending == 0
    assert writer.total_flushed == 5
    assert writer.write_errors == 0
    applied_ids = [payload[0]["_id"] for _t, op, _c, payload
                   in client.applied]
    assert applied_ids == [f"j{index}" for index in range(5)]
    # Nothing landed before recovery.
    assert all(t >= 10.0 for t, *_rest in client.applied)


def test_degraded_mode_entered_and_left():
    env, client, writer = make_writer()
    client.available = False
    writer.insert("jobs", {"_id": "j1"})
    env.run(until=3.0)
    assert writer.degraded
    assert writer.degraded_event().triggered
    client.available = True
    env.run(until=10.0)
    assert not writer.degraded
    assert len(writer.degraded_periods) == 1
    entered, recovered = writer.degraded_periods[0]
    assert entered < recovered
    # The degraded event is re-armed for the next outage.
    assert not writer.degraded_event().triggered


def test_semantic_errors_are_dropped_not_retried_forever():
    env, client, writer = make_writer()
    client.reject_updates = True
    writer.insert("jobs", {"_id": "j1"})
    # A rejected update is a semantic store error (unlike a duplicate
    # insert, which is an idempotent retry): dropped after one attempt
    # so the queue never wedges.
    writer.update("jobs", {"_id": "bad"}, {"$set": {"x": 1}})
    writer.insert("jobs", {"_id": "j2"})
    env.run(until=10.0)
    assert writer.pending == 0  # the queue never wedges
    assert writer.total_flushed == 2
    assert writer.write_errors == 1
    assert not writer.degraded


@pytest.mark.parametrize("malformed", [
    {"$inc": {"status": 1}},      # an unknown operator
    {"$push": {"finished": 1}},   # onto a None field
    {"$set": 5},                  # not a document of fields
])
def test_malformed_update_is_counted_and_the_drain_moves_on(malformed):
    """A malformed update against a real store is a semantic error: the
    drain process survives it and applies the writes behind it."""
    env = Environment()
    db = MongoDatabase()
    writer = BufferedJobWriter(env, MongoClient(env, db))
    writer.insert("jobs", {"_id": "j1", "status": "PENDING",
                           "finished": None})
    writer.update("jobs", {"_id": "j1"}, malformed)
    writer.update("jobs", {"_id": "j1"}, {"$set": {"status": "RUNNING"}})
    env.run()
    assert writer._runner.is_alive
    assert writer.pending == 0
    assert writer.write_errors == 1
    assert writer.total_flushed == 2
    assert db.collection("jobs").find_one({"_id": "j1"})["status"] \
        == "RUNNING"


def test_duplicate_insert_is_suppressed_not_an_error():
    """Re-inserting an already-durable ``_id`` (idempotent re-submission
    after a migration or crash) is success, not a semantic error: the
    enqueuer's done event fires, the queue never wedges, and later
    updates against the record still apply."""
    env, client, writer = make_writer()
    client.reject_duplicates = True
    writer.insert("jobs", {"_id": "j1"})
    env.run(until=2.0)
    durable = []

    def resubmit():
        yield writer.insert("jobs", {"_id": "j1"})
        durable.append(env.now)

    env.process(resubmit())
    writer.update("jobs", {"_id": "j1"}, {"$set": {"status": "MIGRATED"}})
    env.run(until=10.0)
    assert durable, "duplicate insert must still resolve its done event"
    assert writer.duplicates_suppressed == 1
    assert writer.write_errors == 0
    assert writer.pending == 0
    assert not writer.degraded
    # First insert + the update landed; the duplicate did not re-apply.
    ops = [op for _t, op, _c, _p in client.applied]
    assert ops == ["insert", "update"]


def test_close_drains_backlog_across_an_outage():
    """Shutdown contract: close() rejects new writes but flushes every
    buffered record — even through a store outage — before the returned
    drain event fires."""
    env, client, writer = make_writer()
    client.available = False
    for index in range(4):
        writer.insert("jobs", {"_id": f"j{index}"})
    drained_at = []

    def shutdown():
        yield env.timeout(1.0)
        done = writer.close()
        assert writer.closed
        yield done
        drained_at.append(env.now)

    def recover():
        yield env.timeout(12.0)
        client.available = True

    env.process(shutdown())
    env.process(recover())
    env.run(until=60.0)
    assert drained_at and drained_at[0] >= 12.0
    assert writer.pending == 0
    assert writer.total_flushed == 4
    assert [p[0]["_id"] for _t, _op, _c, p in client.applied] == \
        [f"j{index}" for index in range(4)]
    # Writes after close are rejected loudly, not silently dropped.
    with pytest.raises(SimulationError, match="closed"):
        writer.insert("jobs", {"_id": "late"})


def test_pending_ids_names_buffered_records():
    env, client, writer = make_writer()
    client.available = False
    writer.insert("jobs", {"_id": "j1"})
    writer.update("jobs", {"_id": "j2"}, {"$set": {"x": 1}})
    writer.insert("intents", {"_id": "i1"})
    env.run(until=0.5)
    assert writer.pending_ids("jobs") == ["j1", "j2"]
    assert writer.pending_ids("intents") == ["i1"]
    client.available = True
    env.run(until=10.0)
    assert writer.pending_ids("jobs") == []


def test_peak_pending_tracks_backlog():
    env, client, writer = make_writer()
    client.available = False
    for index in range(7):
        writer.insert("jobs", {"_id": f"j{index}"})
    env.run(until=2.0)
    assert writer.peak_pending == 7
    client.available = True
    env.run(until=20.0)
    assert writer.pending == 0
    assert writer.peak_pending == 7
