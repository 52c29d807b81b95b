"""Raft-replicated etcd.

Three (by default) :class:`~repro.raft.node.RaftNode` replicas each apply the
committed command stream to their own :class:`EtcdStore`.  A *hub* store —
the linearized, first-apply-wins view of the committed sequence — serves
reads, watches and leases, mirroring how the real etcd leader serves
linearizable reads and owns the lessor.

Lease expiry routes the deletions of attached keys back through consensus so
the replicas stay byte-identical to the hub.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import StoreError
from repro.etcd.kv import EtcdStore, Lease, Watcher
from repro.raft import RaftCluster, StateMachine
from repro.sim.core import Environment, Event
from repro.sim.rng import RngRegistry


def apply_command(store: EtcdStore, command: dict,
                  honor_leases: bool) -> Any:
    """Apply one committed command dict to an :class:`EtcdStore`."""
    op = command["op"]
    if op == "put":
        lease_id = command.get("lease_id") if honor_leases else None
        if lease_id is not None and not store.lease_alive(lease_id):
            lease_id = None  # lease died between submit and apply
        return store.put(command["key"], command["value"], lease_id)
    if op == "delete":
        return store.delete(command["key"])
    if op == "delete_prefix":
        return store.delete_prefix(command["prefix"])
    raise StoreError(f"unknown etcd command {op!r}")


class _ReplicaStateMachine(StateMachine):
    """Per-node state machine: a local EtcdStore replica + hub forwarding."""

    def __init__(self, owner: "ReplicatedEtcd", node_id: str,
                 env: Environment):
        self.owner = owner
        self.node_id = node_id
        self.store = EtcdStore(env)

    def apply(self, index: int, command: Any) -> Any:
        result = apply_command(self.store, command, honor_leases=False)
        self.owner._forward_to_hub(index, command)
        return result

    def reset(self) -> None:
        self.store = EtcdStore(self.store.env)


class ReplicatedEtcd:
    """An etcd service replicated over a from-scratch Raft group."""

    def __init__(self, env: Environment, rng: RngRegistry, size: int = 3,
                 name: str = "etcd"):
        self.env = env
        self.hub = EtcdStore(env)
        self.hub.on_lease_expired = self._on_lease_expired
        self._hub_applied_index = 0
        self.replicas: Dict[str, _ReplicaStateMachine] = {}

        def factory(node_id: str) -> StateMachine:
            sm = _ReplicaStateMachine(self, node_id, env)
            self.replicas[node_id] = sm
            return sm

        self.cluster = RaftCluster(env, rng, factory, size=size, name=name)

    # -- consensus plumbing -------------------------------------------------

    def _forward_to_hub(self, index: int, command: dict) -> None:
        if index <= self._hub_applied_index:
            return  # another replica already delivered this index
        if index != self._hub_applied_index + 1:
            # Should not happen: per-node applies are gapless and in order,
            # and the hub takes the first replica to reach each index.
            raise StoreError(
                f"hub apply gap: expected {self._hub_applied_index + 1}, "
                f"got {index}")
        self._hub_applied_index = index
        apply_command(self.hub, command, honor_leases=True)

    def _on_lease_expired(self, lease: Lease) -> None:
        """Route expiry deletions through consensus; revoke hub-side record."""
        for key in list(lease.keys):
            self.cluster.propose({"op": "delete", "key": key})
        lease.revoked = True
        self.hub._leases.pop(lease.lease_id, None)

    # -- write path ------------------------------------------------------------

    def submit(self, command: dict) -> Event:
        """Submit a write command; returns the process event of the proposal."""
        return self.cluster.propose(command)

    def put(self, key: str, value: Any,
            lease_id: Optional[int] = None) -> Event:
        cmd = {"op": "put", "key": key, "value": value}
        if lease_id is not None:
            cmd["lease_id"] = lease_id
        return self.submit(cmd)

    def delete(self, key: str) -> Event:
        return self.submit({"op": "delete", "key": key})

    def delete_prefix(self, prefix: str) -> Event:
        return self.submit({"op": "delete_prefix", "prefix": prefix})

    # -- read / watch / lease path (hub-served) -----------------------------------

    def get(self, key: str):
        return self.hub.get(key)

    def watch(self, key: str) -> Watcher:
        return self.hub.watch(key)

    def grant_lease(self, ttl_s: float) -> Lease:
        return self.hub.grant_lease(ttl_s)

    def keepalive(self, lease_id: int) -> bool:
        return self.hub.keepalive(lease_id)

    # -- fault hooks ----------------------------------------------------------------

    def crash_replica(self, node_id: str) -> None:
        self.cluster.crash(node_id)

    def restart_replica(self, node_id: str) -> None:
        self.cluster.restart(node_id)

    def crash_leader(self) -> Optional[str]:
        return self.cluster.crash_leader()
