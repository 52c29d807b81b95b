"""The replication timer against the ``mongo-repl`` process it replaces.

The reference is ``MongoReplicaSet``'s tail as it stood while a process
ran it, kept verbatim below (``ProcessReplicaSet``: ``__init__``,
``_elect_new_primary``, ``_replicate``, ``_catch_up``, ``_full_resync``
but for the one line its docstring names; crashes, restarts and
elections are inherited), over members as they
were then: one oplog per collection, and a secondary that stores a deep
copy of every entry it applies (``CopyingDatabase``).  Random programs -
inserts, updates and reads (which create a collection, empty or not)
over three collections, primary and
secondary crashes and restarts (also both in one kernel event),
``election_delay_s`` of zero and above, steps at exact tick instants -
are played on twin environments under tie-break seeds 0 and 1: from
timers queued before the set exists, from timers each step queues for
the next, or from outside the kernel between ``run()`` calls.  After
every step each member's documents (by ``repr``), the oplog entries each
member has applied, ``failover_log``, ``primary_index``, the step's
outcome, ``events_processed`` and ``env.now`` must be equal by ``==``.
"""

import copy
import itertools
from functools import partial
from typing import Dict, List

from hypothesis import example, given, settings, strategies as st

from repro.errors import StoreError
from repro.mongo import Collection, MongoDatabase, MongoReplicaSet
from repro.sim import Environment

from tests.conftest import examples


class CopyingCollection(Collection):
    """A collection with its own oplog whose secondaries copy entries."""

    def apply_oplog_entry(self, entry: tuple) -> None:
        """Apply a change-log entry verbatim (used by secondaries)."""
        op, payload = entry[:2]
        if op == "insert":
            self._documents[payload["_id"]] = copy.deepcopy(payload)
        elif op == "update":
            self._documents[payload["_id"]] = copy.deepcopy(payload)
        elif op == "delete":
            self._documents.pop(payload, None)


class CopyingDatabase(MongoDatabase):
    """A member as it was: one oplog per collection."""

    def collection(self, name: str) -> Collection:
        if name not in self._collections:
            self._collections[name] = CopyingCollection(
                name, env=self._env, race_label=self._race_label)
        return self._collections[name]

    def collection_names(self) -> List[str]:
        return sorted(self._collections)


class ProcessReplicaSet(MongoReplicaSet):
    """``MongoReplicaSet`` of the parent commit: the process tail."""

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
            CopyingDatabase(f"{name}-{i}", env=env)
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
        """Copy the primary's full state; realign oplog positions.

        The one line that is not the parent's: ``positions.clear()``.
        Without it a position the member held in a collection the new
        primary lacks outlived the resync, and once the primary created
        that collection the member skipped as many of its writes (the
        second ``@example`` below); the timer form keeps one position
        per member and never did."""
        positions.clear()
        for coll_name in primary.collection_names():
            source = primary.collection(coll_name)
            target = member.collection(coll_name)
            target._documents = copy.deepcopy(source._documents)
            positions[coll_name] = len(source.oplog)


def applied(rs) -> List[int]:
    """Oplog entries each member has applied, in either form."""
    if isinstance(rs, ProcessReplicaSet):
        return [sum(rs._positions[i].values()) for i in rs._positions]
    return list(rs._positions)


COLLECTIONS = ("jobs", "users", "intents")
HORIZON = 2.0
VERBS = ("insert", "insert", "update", "update", "find", "crash", "restart",
         "bounce")
#: An instant: a float, or the index of a replication tick (its exact
#: float, the process form's running sum of lags).
_AT = st.one_of(st.floats(min_value=0.0, max_value=HORIZON),
                st.integers(0, 25))
_STEP = st.tuples(_AT, st.sampled_from(VERBS), st.integers(0, 5),
                  st.integers(0, 4))


def play(rs_class, via, secondaries, lag, delay, tiebreak, program):
    env = Environment(tiebreak_seed=tiebreak)
    ticks = list(itertools.accumulate(itertools.repeat(lag, 26)))
    steps = sorted(((ticks[at] if isinstance(at, int) else at), *rest)
                   for at, *rest in program)
    values = itertools.count()
    seen = []
    rs = None

    def state():
        members = [repr(sorted((name, coll._documents)
                               for name, coll in member._collections.items()
                               if coll._documents))
                   for member in rs.members]
        return (env.now, env.events_processed, rs.primary_index,
                rs.has_primary, list(rs.failover_log), applied(rs), members)

    def act(verb, a, b):
        coll, doc_id, index = COLLECTIONS[a % 3], f"d{b}", a % len(rs.members)
        value = next(values)
        try:
            if verb == "insert":
                rs.collection(coll).insert_one({"_id": doc_id, "h": []})
            elif verb == "update":
                rs.collection(coll).update_one(
                    {"_id": doc_id}, {"$set": {"v": value},
                                      "$push": {"h": value}})
            elif verb == "find":  # creates the collection, empty or not
                rs.collection(coll).find_one({"_id": doc_id})
            elif verb == "crash":
                rs.crash_member(index)
            elif verb == "restart":
                rs.restart_member(index)
            else:  # both in one kernel event
                rs.crash_member(index)
                rs.restart_member(index)
            outcome = "ok"
        except StoreError as err:
            outcome = type(err).__name__
        seen.append((verb, outcome, state()))

    def step_at(index, _timer=None):
        _instant, verb, a, b = steps[index]
        act(verb, a, b)
        if via == "chained" and index + 1 < len(steps):
            queue(index + 1)

    def queue(index):
        env.timeout_at(steps[index][0]).callbacks.append(
            partial(step_at, index))

    if via == "timers":
        # Queued before the set exists: a step at a tick's instant runs
        # ahead of the tick.
        for index in range(len(steps)):
            queue(index)
    rs = rs_class(env, secondaries=secondaries, replication_lag_s=lag,
                  election_delay_s=delay)
    if via == "chained" and steps:
        queue(0)
    if via == "main":
        # Between run() calls: a step at a tick's instant runs after it.
        for index, (instant, *_rest) in enumerate(steps):
            env.run(until=instant)
            step_at(index)
    env.run(until=HORIZON + 1.0)
    seen.append(("end", None, state()))
    return seen


@settings(max_examples=examples(500), deadline=None)
# A secondary restarted behind an idle primary must still catch up ...
@example(via="timers", secondaries=2, lag=0.05, delay=0.0, tiebreak=0,
         program=[(0.01, "crash", 2, 0), (0.02, "insert", 0, 0),
                  (0.2, "restart", 2, 0)])
# ... and so must a new primary's write before its first tick, even when
# its oplog is as long as the old primary's was.
@example(via="timers", secondaries=2, lag=0.05, delay=0.0, tiebreak=0,
         program=[(0.01, "insert", 0, 0), (0.21, "crash", 0, 0),
                  (0.22, "insert", 0, 1)])
# A collection that is empty on the primary still exists on its
# secondaries, so a resync from one of them empties it on a member
# that rejoins holding a write that was never replicated.
@example(via="timers", secondaries=1, lag=0.05, delay=0.0, tiebreak=0,
         program=[(0.0, "find", 2, 0), (1.01, "insert", 2, 0),
                  (1.02, "bounce", 0, 0)])
# A resync from a primary that lacks a collection the member holds
# forgets the member's position in it: both forms read [1, 1, 1] ...
@example(via="timers", secondaries=2, lag=0.05, delay=0.12, tiebreak=0,
         program=[(0.0, "insert", 0, 0)] * 8 + [
             (1.0, "insert", 1, 0), (1, "crash", 0, 0),
             (20, "crash", 1, 0), (20, "restart", 0, 0)])
# ... so the primary's first write to that collection reaches the member.
@example(via="timers", secondaries=2, lag=0.05, delay=0.12, tiebreak=0,
         program=[(0.0, "insert", 0, 0)] * 8 + [
             (1.0, "insert", 1, 0), (1, "crash", 0, 0),
             (20, "crash", 1, 0), (20, "restart", 0, 0),
             (2.0, "insert", 1, 1)])
@given(via=st.sampled_from(["timers", "chained", "main"]),
       secondaries=st.sampled_from([0, 1, 2, 2, 3]),
       lag=st.sampled_from([0.05, 0.05, 0.03, 0.1]),
       delay=st.sampled_from([0.0, 0.0, 0.12, 0.5]),
       tiebreak=st.sampled_from([0, 1]),
       program=st.lists(_STEP, min_size=4, max_size=30))
def test_timer_replicates_as_the_process_did(via, secondaries, lag, delay,
                                             tiebreak, program):
    args = (via, secondaries, lag, delay, tiebreak, program)
    assert play(MongoReplicaSet, *args) == play(ProcessReplicaSet, *args)


def test_an_idle_set_costs_one_event_per_tick_and_no_catch_up(monkeypatch):
    env = Environment()
    rs = MongoReplicaSet(env, secondaries=2, replication_lag_s=0.05)
    rs.collection("jobs").insert_one({"_id": "j1"})
    env.run(until=1.025)
    calls = []
    catch_up = MongoReplicaSet._catch_up
    monkeypatch.setattr(MongoReplicaSet, "_catch_up",
                        lambda *args: calls.append(catch_up(*args)))
    before = env.events_processed
    env.run(until=11.025)
    assert env.events_processed - before == 200  # 10 s of 0.05 s ticks
    assert calls == []
    # A write costs one catch-up per live secondary at the next tick.
    rs.collection("jobs").insert_one({"_id": "j2"})
    env.run(until=11.075)
    assert len(calls) == 2
    assert all(member.collection("jobs").count() == 2
               for member in rs.members)
