"""Coverage for the MongoClient operations."""

import pytest

from repro.errors import DuplicateKeyError
from repro.mongo import MongoClient, MongoDatabase
from repro.resilience import RetryPolicy
from repro.sim import Environment, RngRegistry
from repro.sim.core import Event


@pytest.fixture
def client():
    env = Environment()
    return env, MongoClient(env, MongoDatabase())


def run(env, gen):
    return env.run_until_complete(env.process(gen), limit=env.now + 100)


def test_upsert_through_client(client):
    env, mongo = client

    def flow():
        modified = yield mongo.update_one(
            "state", {"_id": "singleton"},
            {"$set": {"value": 1}}, upsert=True)
        doc = yield mongo.find_one("state", {"_id": "singleton"})
        return modified, doc["value"]

    assert run(env, flow()) == (1, 1)


# -- kernel-event tripwires: an operation is a timer and a result -------------


def test_an_operation_is_two_kernel_events_with_or_without_a_policy():
    for kwargs in ({}, {"retry": RetryPolicy()}):
        env = Environment()
        mongo = MongoClient(env, MongoDatabase(), rng=RngRegistry(0),
                            **kwargs)
        done = mongo.insert_one("jobs", {"_id": 1})
        env.run()
        assert done.ok
        assert env.events_processed == 2  # 3 and 5 as processes
        # A plain event: no process behind it to interrupt or watch end.
        assert type(done) is Event


def test_each_retry_costs_a_backoff_timer_and_a_latency_timer():
    env = Environment()
    mongo = MongoClient(env, MongoDatabase(),
                        retry=RetryPolicy(max_attempts=3, jitter=False))
    mongo.set_available(False)
    done = mongo.find_one("jobs", {"_id": 1})
    env.run(until=0.02)  # the attempt at 0.015 found it down
    mongo.set_available(True)
    env.run()
    assert (done.value, mongo.retries) == (None, 1)
    assert env.events_processed == 2 + 2 * mongo.retries


def test_a_duplicate_key_fails_the_result_and_is_not_retried(client):
    env, mongo = client
    mongo.retry = RetryPolicy()
    first = mongo.insert_one("jobs", {"_id": 1})
    second = mongo.insert_one("jobs", {"_id": 1})
    env.run()
    assert first.ok and not second.ok
    assert isinstance(second.value, DuplicateKeyError)
    assert (mongo.retries, env.events_processed) == (0, 4)
