"""MongoDB substrate: documents by ``_id`` in replica sets."""

from repro.mongo.client import DEFAULT_MONGO_LATENCY_S, MongoClient
from repro.mongo.collection import Collection
from repro.mongo.database import MongoDatabase, MongoReplicaSet

__all__ = [
    "Collection",
    "DEFAULT_MONGO_LATENCY_S",
    "MongoClient",
    "MongoDatabase",
    "MongoReplicaSet",
]
