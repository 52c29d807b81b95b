"""MongoDB database and replica set.

:class:`MongoDatabase` is a bag of named collections.  :class:`MongoReplicaSet`
models primary/secondary replication with an asynchronous oplog tail and
automatic failover — enough fidelity for the paper's claim that "MongoDB ...
[is] also replicated for high availability" and for the ablation comparing
etcd vs MongoDB as the status-coordination store.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional

from repro.errors import StoreError, StoreUnavailableError
from repro.mongo.collection import Collection
from repro.sim.core import Environment


class MongoDatabase:
    """A named set of collections.

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

    def collection(self, name: str) -> Collection:
        if name not in self._collections:
            self._collections[name] = Collection(
                name, env=self._env, race_label=self._race_label)
        return self._collections[name]

    def __getitem__(self, name: str) -> Collection:
        return self.collection(name)

    def collection_names(self) -> List[str]:
        return sorted(self._collections)

    def drop_collection(self, name: str) -> None:
        self._collections.pop(name, None)


class MongoReplicaSet:
    """A primary plus N secondaries tailing the primary's oplogs."""

    def __init__(self, env: Environment, secondaries: int = 2,
                 replication_lag_s: float = 0.05, name: str = "rs0",
                 election_delay_s: float = 0.0):
        if secondaries < 0:
            raise StoreError("secondaries must be >= 0")
        if election_delay_s < 0:
            raise StoreError("election_delay_s must be >= 0")
        # Zero would spin the replication loop at one instant; a negative
        # lag fails a process nobody waits on.
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
        #: replication positions: member index -> collection -> applied count
        self._positions: Dict[int, Dict[str, int]] = {
            i: {} for i in range(len(self.members))}
        #: Primary epoch: bumped on failover.  A member whose recorded epoch
        #: is stale performs a full resync from the new primary, since its
        #: oplog positions referred to the old primary's log.
        self._epoch = 0
        self._member_epochs: Dict[int, int] = {
            i: 0 for i in range(len(self.members))}
        self._repl_process = env.process(self._replicate(),
                                         name=f"mongo-repl:{name}")

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
        """Bring a member back; it resyncs from the primary's full state."""
        self._down.discard(index)
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
        # Pick the most-up-to-date secondary (highest total applied ops).
        def applied(i: int) -> int:
            return sum(self._positions[i].values())

        new_primary = max(candidates, key=applied)
        if new_primary != self._primary_index:
            self._primary_index = new_primary
            self._epoch += 1
            self._member_epochs[new_primary] = self._epoch
            self.failover_log.append((lost_at, self.env.now, new_primary))

    # -- replication loop ----------------------------------------------------------

    def _replicate(self):
        while True:
            yield self.env.timeout(self.replication_lag_s)
            primary_idx = self._primary_index
            if primary_idx in self._down:
                continue
            primary = self.members[primary_idx]
            for member_idx, member in enumerate(self.members):
                if member_idx == primary_idx or member_idx in self._down:
                    continue
                self._catch_up(primary_idx, primary, member_idx, member)

    def _catch_up(self, primary_idx: int, primary: MongoDatabase,
                  member_idx: int, member: MongoDatabase) -> None:
        positions = self._positions[member_idx]
        stale = self._member_epochs[member_idx] != self._epoch
        if stale:
            self._full_resync(primary, member, positions)
            self._member_epochs[member_idx] = self._epoch
            return
        for coll_name in primary.collection_names():
            source = primary.collection(coll_name)
            target = member.collection(coll_name)
            applied = positions.get(coll_name, 0)
            for entry in source.oplog[applied:]:
                target.apply_oplog_entry(entry)
            positions[coll_name] = len(source.oplog)
        # Track the primary's own position over its oplog.
        self._positions[primary_idx] = {
            name: len(primary.collection(name).oplog)
            for name in primary.collection_names()}

    @staticmethod
    def _full_resync(primary: MongoDatabase, member: MongoDatabase,
                     positions: Dict[str, int]) -> None:
        """Copy the primary's full state; realign oplog positions."""
        for coll_name in primary.collection_names():
            source = primary.collection(coll_name)
            target = member.collection(coll_name)
            target._documents = copy.deepcopy(source._documents)
            positions[coll_name] = len(source.oplog)
