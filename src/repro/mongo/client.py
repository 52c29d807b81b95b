"""Latency-modelled client for MongoDB, mirroring :class:`EtcdClient`.

FfDL's API service persists job metadata through this client; its higher
per-op latency relative to etcd is what the status-store ablation measures.
"""

from __future__ import annotations

from typing import Any, Dict, Union

from repro.errors import StoreUnavailableError
from repro.mongo.collection import Collection
from repro.mongo.database import MongoDatabase, MongoReplicaSet
from repro.resilience import StoreClient
from repro.sim.core import Event

#: Request latency of MongoDB for small documents (an order of magnitude
#: slower than etcd for the coordination workload, per the paper's rationale).
DEFAULT_MONGO_LATENCY_S = 0.015

#: Only unreachability is retryable; semantic errors (duplicate key,
#: malformed update or query) would fail identically on every attempt.
RETRYABLE_MONGO_ERRORS = (StoreUnavailableError,)


class MongoClient(StoreClient):
    """Issue MongoDB operations that take simulated time.

    Mirrors :class:`~repro.etcd.client.EtcdClient`; ``retry`` carries an
    operation across replica-set failovers, and ``set_available`` is the
    chaos hook for standalone (non-replica-set) backends.
    """

    backend: Union[MongoDatabase, MongoReplicaSet]
    latency_s = DEFAULT_MONGO_LATENCY_S
    stream = "resilience:mongo-client"
    retryable = RETRYABLE_MONGO_ERRORS
    unavailable = "mongodb is unavailable"
    site = "mongo-op"

    def _collection(self, name: str) -> Collection:
        return self.backend.collection(name)

    def insert_one(self, collection: str, document: Dict[str, Any]) -> Event:
        return self._call(lambda: self._collection(collection)
                          .insert_one(document))

    def update_one(self, collection: str, query: Dict[str, Any],
                   update: Dict[str, Any], upsert: bool = False) -> Event:
        return self._call(lambda: self._collection(collection)
                          .update_one(query, update, upsert=upsert))

    def find_one(self, collection: str, query: Dict[str, Any]) -> Event:
        return self._call(lambda: self._collection(collection)
                          .find_one(query))
