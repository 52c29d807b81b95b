"""A store keeps no document version that nothing reads.

Only a replica set's tail reads an oplog, so a standalone database keeps
none (DESIGN.md, "What each store and log keeps"): after 100 ``$set`` /
``$push`` updates of one document, the current version is the only one
alive, in a bare ``MongoDatabase`` and in the federation dispatcher's
intent store alike.  A replica-set member keeps every version in the
log its set's tail reads, which shows the weak references see a kept
one.
"""

import gc
import weakref

import pytest

from repro.federation import FederationBus, FederationDispatcher
from repro.mongo import MongoDatabase, MongoReplicaSet
from repro.sim import Environment, RngRegistry

UPDATES = 100


class Marker:
    """A value a weak reference can follow (a dict cannot be one)."""


def live_versions(collection, update):
    """Versions of document ``j1`` still alive after ``UPDATES`` calls of
    ``update``, each of which ``$set``s a fresh marker: a superseded
    version is the only holder of its marker."""
    markers = []
    for step in range(UPDATES):
        update({"$set": {"marker": Marker(), "status": step},
                "$push": {"history": step}})
        markers.append(weakref.ref(collection._documents["j1"]["marker"]))
    gc.collect()
    return sum(marker() is not None for marker in markers)


def direct(store):
    collection = store.collection("jobs")
    collection.insert_one({"_id": "j1", "history": []})
    return live_versions(collection, lambda update: collection.update_one(
        {"_id": "j1"}, update))


def test_a_standalone_database_keeps_only_the_current_version():
    assert direct(MongoDatabase()) == 1


def test_the_dispatchers_intent_store_keeps_only_the_current_version():
    env = Environment()
    rng = RngRegistry(0)
    dispatcher = FederationDispatcher(env, rng, FederationBus(env, rng), [])
    client = dispatcher.mongo_client

    def through_client(update):
        done = client.update_one("intents", {"_id": "j1"}, update)
        env.run(until=env.now + 1.0)
        assert done.value == 1

    client.insert_one("intents", {"_id": "j1", "history": []})
    env.run(until=1.0)
    collection = dispatcher.mongo.collection("intents")
    assert live_versions(collection, through_client) == 1


@pytest.mark.parametrize("secondaries", [0, 2])
def test_a_replica_set_member_keeps_its_log(secondaries):
    replica_set = MongoReplicaSet(Environment(), secondaries=secondaries)
    assert direct(replica_set) == UPDATES
    assert len(replica_set.primary.oplog) == UPDATES + 1
