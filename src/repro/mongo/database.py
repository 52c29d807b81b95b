"""MongoDB database and replica set.

:class:`MongoDatabase` is a bag of named collections.  :class:`MongoReplicaSet`
models primary/secondary replication with an asynchronous oplog tail and
automatic failover — enough fidelity for the paper's claim that "MongoDB ...
[is] also replicated for high availability" and for the ablation comparing
etcd vs MongoDB as the status-coordination store.  Only a replica set's
members keep an oplog: a standalone database's would have no reader
(DESIGN.md, "What each store and log keeps").
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Callable, Dict, List, MutableSequence, Optional

from repro.errors import StoreError, StoreUnavailableError
from repro.mongo.collection import Collection
from repro.sim.core import Environment, Event
from repro.sim.floatchain import chain


class MongoDatabase:
    """A named set of collections.

    Passing ``env`` registers the database as a shared store so that
    document accesses feed the runtime race detector; without it the
    database is a plain in-memory bag (the platform's standalone store
    and unit tests use it that way).  ``on_change`` is called after
    every write and every new collection, and by :meth:`changed`: a
    replica set passes its tail's wake.

    A replica-set member (one with ``on_change``) writes one oplog of
    ``(op, document, collection)`` entries, as MongoDB's
    ``local.oplog.rs``, which its set's tail reads.  A standalone
    database has no reader, so its oplog keeps nothing, and a
    superseded document version dies with its last reference.
    """

    def __init__(self, name: str = "ffdl",
                 env: Optional[Environment] = None,
                 on_change: Optional[Callable[[], None]] = None):
        self.name = name
        self._env = env
        self._race_label = (env.register_shared_store(f"mongo:{name}", self)
                            if env is not None else None)
        self._collections: Dict[str, Collection] = {}
        # A zero-length deque drops every entry appended to it.
        self.oplog: MutableSequence[tuple] = \
            [] if on_change is not None else deque(maxlen=0)
        self._on_change = on_change

    def collection(self, name: str) -> Collection:
        if name not in self._collections:
            self._collections[name] = Collection(
                name, env=self._env, race_label=self._race_label,
                oplog=self.oplog, on_write=self._on_change)
            self.changed()
        return self._collections[name]

    def changed(self) -> None:
        """Tell ``on_change`` that this database changed (its replica set
        calls it when the member goes down, comes back or is elected)."""
        if self._on_change is not None:
            self._on_change()


class MongoReplicaSet:
    """A primary plus N secondaries tailing the primary's oplog."""

    def __init__(self, env: Environment, secondaries: int = 2,
                 replication_lag_s: float = 0.05,
                 election_delay_s: float = 0.0):
        if secondaries < 0:
            raise StoreError("secondaries must be >= 0")
        if election_delay_s < 0:
            raise StoreError("election_delay_s must be >= 0")
        # Zero would spin the tick at one instant; the kernel rejects < 0.
        if not replication_lag_s > 0:
            raise StoreError("replication_lag_s must be > 0")
        self.env = env
        self.name = "rs0"
        self.replication_lag_s = replication_lag_s
        #: How long the set is primary-less after losing its primary
        #: (real MongoDB elections take ~2-12s; at 0 a new primary is
        #: elected in the instant the old one is lost).
        self.election_delay_s = election_delay_s
        self._election_until: float = 0.0
        #: (primary_lost_at, new_primary_elected_at, new_primary_index)
        self.failover_log: List[tuple] = []
        tail = _ReplicationTail(self)
        self.members: List[MongoDatabase] = [
            MongoDatabase(f"{self.name}-{i}", env=env, on_change=tail.wake)
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
        self.members[index].changed()
        if index == self._primary_index:
            self._begin_election()

    def restart_member(self, index: int) -> None:
        """Bring a member back: it catches up from its own oplog position,
        or resyncs from the primary's full state if it missed a failover."""
        self._down.discard(index)
        self._synced_at = None
        self.members[index].changed()
        if all(i in self._down for i in range(len(self.members))):
            return
        if self._primary_index in self._down:
            self._begin_election()

    def _begin_election(self) -> None:
        """Elect a new primary, after ``election_delay_s`` of downtime.

        With a zero delay the new primary is elected at once; chaos
        scenarios set a positive delay so that writes issued mid-election
        actually observe an unavailable primary.
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
            self.members[new_primary].changed()

    # -- replication tail ----------------------------------------------------------

    def _tick(self) -> bool:
        """Catch every live secondary up to the primary; returns whether
        the next tick could change anything while no member changes."""
        primary_idx = self._primary_index
        if primary_idx in self._down:
            return False
        primary = self.members[primary_idx]
        shape = (len(primary.oplog), len(primary._collections))
        if shape == self._synced_at:
            return False
        caught = False
        for member_idx in range(len(self.members)):
            if member_idx != primary_idx and member_idx not in self._down:
                self._catch_up(primary_idx, member_idx, shape[0])
                caught = True
        synced = self._positions[primary_idx] == shape[0]
        self._synced_at = shape if synced else None
        # Unsynced, every member caught up was resynced, and the next
        # tick's catch-ups move the primary's own position.
        return caught and not synced

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


class _ReplicationTail:
    """The replication tail: a tick every ``replication_lag_s``, on the
    grid the set's construction instant starts.  While a tick leaves
    nothing for the next one to do, the tail is arithmetic (DESIGN.md,
    "Arithmetic until something could change it"): ``due``, its next
    tick, is in ``env.chains``, and a change to any member wakes it back
    onto timers.  ``name`` is its profiler family."""

    def __init__(self, replica_set: MongoReplicaSet):
        self.name = f"mongo-repl:{replica_set.name}"
        self._replica_set = replica_set
        self._idle()

    def _idle(self) -> None:
        rs = self._replica_set
        self.due = rs.env.now + rs.replication_lag_s
        rs.env.chains[self] = rs

    def settle(self, now: float) -> None:
        """Pass the ticks strictly before ``now``: idle, they change
        nothing, so ``due`` becomes the first tick at or after ``now``."""
        self.due = chain(self.due, self._replica_set.replication_lag_s, inf,
                         now)[1]

    def wake(self) -> None:
        """Back onto timers: the next tick fires at its grid instant."""
        env = self._replica_set.env
        if self in env.chains:
            self.settle(env.now)
            del env.chains[self]
            env.timeout_at(self.due).callbacks.append(self._fire)

    def _fire(self, _timer: Event) -> None:
        rs = self._replica_set
        if rs._tick():
            rs.env.timeout(rs.replication_lag_s).callbacks.append(self._fire)
        else:
            self._idle()
