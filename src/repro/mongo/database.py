"""MongoDB database and replica set.

:class:`MongoDatabase` is a bag of named collections.  :class:`MongoReplicaSet`
models primary/secondary replication with an asynchronous oplog tail and
automatic failover — enough fidelity for the paper's claim that "MongoDB ...
[is] also replicated for high availability" and for the ablation comparing
etcd vs MongoDB as the status-coordination store.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import StoreError, StoreUnavailableError
from repro.mongo.collection import Collection
from repro.sim.core import Environment, Event, Timeout


class MongoDatabase:
    """A named set of collections writing one oplog of ``(op, payload,
    collection)`` entries, as MongoDB's ``local.oplog.rs``.

    Passing ``env`` registers the database as a shared store so that
    document accesses feed the runtime race detector; without it the
    database is a plain in-memory bag (replica-set secondaries and unit
    tests use it that way).
    """

    def __init__(self, name: str = "ffdl",
                 env: Optional[Environment] = None):
        self.name = name
        self._env = env
        self._race_label = (env.register_shared_store(f"mongo:{name}", self)
                            if env is not None else None)
        self._collections: Dict[str, Collection] = {}
        self.oplog: List[tuple] = []

    def collection(self, name: str) -> Collection:
        if name not in self._collections:
            self._collections[name] = Collection(
                name, env=self._env, race_label=self._race_label,
                oplog=self.oplog)
        return self._collections[name]


class MongoReplicaSet:
    """A primary plus N secondaries tailing the primary's oplog."""

    def __init__(self, env: Environment, secondaries: int = 2,
                 replication_lag_s: float = 0.05, name: str = "rs0",
                 election_delay_s: float = 0.0):
        if secondaries < 0:
            raise StoreError("secondaries must be >= 0")
        if election_delay_s < 0:
            raise StoreError("election_delay_s must be >= 0")
        # Zero would spin the tick at one instant; the kernel rejects < 0.
        if not replication_lag_s > 0:
            raise StoreError("replication_lag_s must be > 0")
        self.env = env
        self.name = name
        self.replication_lag_s = replication_lag_s
        #: How long the set is primary-less after losing its primary
        #: (real MongoDB elections take ~2-12s; the default 0 keeps the
        #: legacy instant-failover behaviour for existing callers).
        self.election_delay_s = election_delay_s
        self._election_until: float = 0.0
        #: (primary_lost_at, new_primary_elected_at, new_primary_index)
        self.failover_log: List[tuple] = []
        self.members: List[MongoDatabase] = [
            MongoDatabase(f"{name}-{i}", env=env)
            for i in range(secondaries + 1)]
        self._primary_index = 0
        self._down: set[int] = set()
        #: Oplog entries each member has applied; the primary's own count
        #: is refreshed by every current-epoch catch-up.
        self._positions: List[int] = [0] * len(self.members)
        #: Primary epoch: bumped on failover.  A member whose recorded epoch
        #: is stale performs a full resync from the new primary, since its
        #: oplog position referred to the old primary's log.
        self._epoch = 0
        self._member_epochs: List[int] = [0] * len(self.members)
        #: Primary (oplog length, collection count) - both only grow under
        #: one primary - when every live member, the primary's position
        #: too, was last caught up; None after a restart or a failover.
        self._synced_at: Optional[tuple] = (0, 0)
        _ReplicationTimer(self)

    @property
    def primary(self) -> MongoDatabase:
        if self._primary_index in self._down:
            if self.env.now < self._election_until:
                raise StoreUnavailableError("primary election in progress")
            raise StoreUnavailableError("no primary available")
        return self.members[self._primary_index]

    @property
    def has_primary(self) -> bool:
        return self._primary_index not in self._down

    @property
    def primary_index(self) -> int:
        return self._primary_index

    def collection(self, name: str) -> Collection:
        """Collection handle on the current primary (reads and writes)."""
        return self.primary.collection(name)

    # -- failover ---------------------------------------------------------------

    def crash_member(self, index: int) -> None:
        self._down.add(index)
        if index == self._primary_index:
            self._begin_election()

    def restart_member(self, index: int) -> None:
        """Bring a member back: it catches up from its own oplog position,
        or resyncs from the primary's full state if it missed a failover."""
        self._down.discard(index)
        self._synced_at = None
        if all(i in self._down for i in range(len(self.members))):
            return
        if self._primary_index in self._down:
            self._begin_election()

    def _begin_election(self) -> None:
        """Elect a new primary, after ``election_delay_s`` of downtime.

        With the default zero delay failover is instantaneous (legacy
        behaviour); chaos scenarios set a positive delay so that writes
        issued mid-election actually observe an unavailable primary.
        """
        lost_at = self.env.now
        if self.election_delay_s <= 0:
            self._elect_new_primary(lost_at)
            return
        self._election_until = max(self._election_until,
                                   lost_at + self.election_delay_s)

        def election():
            yield self.env.timeout(self.election_delay_s)
            if self._primary_index in self._down:
                self._elect_new_primary(lost_at)

        self.env.process(election(), name=f"mongo-election:{self.name}")

    def _elect_new_primary(self, lost_at: float) -> None:
        candidates = [i for i in range(len(self.members))
                      if i not in self._down]
        if not candidates:
            return  # total outage; restart_member will re-elect
        # Pick the most-up-to-date secondary (most oplog entries applied).
        new_primary = max(candidates, key=self._positions.__getitem__)
        if new_primary != self._primary_index:
            self._primary_index = new_primary
            self._epoch += 1
            self._member_epochs[new_primary] = self._epoch
            self._synced_at = None
            self.failover_log.append((lost_at, self.env.now, new_primary))

    # -- replication tail ----------------------------------------------------------

    def _tick(self) -> None:
        primary_idx = self._primary_index
        if primary_idx in self._down:
            return
        primary = self.members[primary_idx]
        shape = (len(primary.oplog), len(primary._collections))
        if shape == self._synced_at:
            return
        for member_idx in range(len(self.members)):
            if member_idx != primary_idx and member_idx not in self._down:
                self._catch_up(primary_idx, member_idx, shape[0])
        synced = self._positions[primary_idx] == shape[0]
        self._synced_at = shape if synced else None

    def _catch_up(self, primary_idx: int, member_idx: int, head: int) -> None:
        primary, member = self.members[primary_idx], self.members[member_idx]
        stale = self._member_epochs[member_idx] != self._epoch
        # A member holds every collection of the primary, empty ones too;
        # a full resync shares the primary's (never mutated) documents.
        for name, source in primary._collections.items():
            target = member.collection(name)
            if stale:
                target._documents = dict(source._documents)
        if stale:
            self._member_epochs[member_idx] = self._epoch
        else:
            for entry in primary.oplog[self._positions[member_idx]:]:
                member.collection(entry[2]).apply_oplog_entry(entry)
            self._positions[primary_idx] = head
        self._positions[member_idx] = head


class _ReplicationTimer:
    """The replication tail: a timer every ``replication_lag_s``, armed first
    where the replaced process's init event sat; ``name`` is its family."""

    def __init__(self, replica_set: MongoReplicaSet):
        self.name = f"mongo-repl:{replica_set.name}"
        self._replica_set = replica_set
        replica_set.env.event().succeed().callbacks.append(self._fire)

    def _fire(self, event: Event) -> None:
        rs = self._replica_set
        if isinstance(event, Timeout):  # a tick, not the start event
            rs._tick()
        rs.env.timeout(rs.replication_lag_s).callbacks.append(self._fire)
