"""etcd substrate: KV store with revisions, watches, leases; Raft-replicated."""

from repro.etcd.client import DEFAULT_ETCD_LATENCY_S, EtcdClient
from repro.etcd.kv import (
    DELETE,
    EtcdStore,
    KeyValue,
    Lease,
    PUT,
    WatchEvent,
    Watcher,
)
from repro.etcd.replicated import ReplicatedEtcd

__all__ = [
    "DEFAULT_ETCD_LATENCY_S",
    "DELETE",
    "EtcdClient",
    "EtcdStore",
    "KeyValue",
    "Lease",
    "PUT",
    "ReplicatedEtcd",
    "Watcher",
    "WatchEvent",
]
