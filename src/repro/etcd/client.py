"""Client facade over standalone or replicated etcd.

FfDL components (Guardian, controller, LCM) talk to etcd through this
client.  Every call returns a sim :class:`Event` that fires after the
configured request latency — the paper's rationale for choosing etcd over
MongoDB for coordination ("much faster", streaming watches) is reproduced by
giving the two stores their measured latency profiles (see the
``ablation_status_store`` benchmark).
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro.errors import ConsensusError, StoreUnavailableError
from repro.etcd.kv import EtcdStore, Watcher
from repro.etcd.replicated import ReplicatedEtcd
from repro.resilience import StoreClient
from repro.sim.core import Event

#: Request latency of a lightly loaded etcd (single-digit milliseconds).
DEFAULT_ETCD_LATENCY_S = 0.002

#: etcd failures worth retrying: injected outages and Raft proposals that
#: could not commit (leader loss, partition) — never semantic errors.
RETRYABLE_ETCD_ERRORS = (StoreUnavailableError, ConsensusError)

Backend = Union[EtcdStore, ReplicatedEtcd]


class EtcdClient(StoreClient):
    """Issue etcd operations that take simulated time.

    Every operation is one :class:`~repro.resilience.TimedCall`: a
    latency timer whose callback acts on the store and resolves the
    returned event.  ``set_available(False)`` models a dead standalone
    etcd; replicated outages go through Raft faults.
    """

    backend: Backend
    latency_s = DEFAULT_ETCD_LATENCY_S
    stream = "resilience:etcd-client"
    retryable = RETRYABLE_ETCD_ERRORS
    unavailable = "etcd is unavailable"
    site = "etcd-op"

    @property
    def _replicated(self) -> bool:
        return isinstance(self.backend, ReplicatedEtcd)

    def _read_store(self) -> EtcdStore:
        if self._replicated:
            return self.backend.hub
        return self.backend

    # -- writes ----------------------------------------------------------------

    def put(self, key: str, value: Any,
            lease_id: Optional[int] = None) -> Event:
        return self._call(lambda: self.backend.put(key, value, lease_id))

    def delete_prefix(self, prefix: str) -> Event:
        return self._call(lambda: self.backend.delete_prefix(prefix))

    # -- reads ------------------------------------------------------------------

    def get(self, key: str) -> Event:
        return self._call(lambda: self._read_store().get(key))

    def get_value(self, key: str) -> Event:
        """Like :meth:`get` but resolves with the bare value (or None)."""

        def read():
            kv = self._read_store().get(key)
            return kv.value if kv is not None else None

        return self._call(read)

    # -- watches -----------------------------------------------------------------

    def watch(self, key: str) -> Watcher:
        return self._read_store().watch(key)

    def watch_prefix(self, prefix: str) -> Watcher:
        return self._read_store().watch_prefix(prefix)

    # -- leases -------------------------------------------------------------------

    def grant_lease(self, ttl_s: float) -> Event:
        return self._call(lambda: self.backend.grant_lease(ttl_s))

    def keepalive(self, lease_id: int,
                  lands_at: Optional[float] = None) -> Event:
        return self._call(lambda: self.backend.keepalive(lease_id),
                          lands_at)

    def revoke(self, lease_id: int) -> Event:
        if self._replicated:
            return self._call(lambda: self.backend.hub.revoke(lease_id))
        return self._call(lambda: self.backend.revoke(lease_id))

    def lease_alive(self, lease_id: int) -> bool:
        return self._read_store().lease_alive(lease_id)
