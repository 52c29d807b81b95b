"""The replication tail against the ``mongo-repl`` process it replaces.

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
outcome and ``env.now`` must be equal by ``==``.  An idle tail is
arithmetic and costs no event, so ``events_processed`` is not compared.

The contract's same-float ties are discarded (DESIGN.md, "Arithmetic
until something could change it").  Under tie-break seed 0: a step at a
tick's exact float, unless it runs from a timer queued before the set
exists.  An idle tail's tick at that float is armed by the step's own
write, after it; the process's tick ran before it if it was queued
first - as it is for a step run from outside the kernel and for a step
queued by a step less than a lag earlier.  Timers queued before the set
exists run ahead of every tick in both forms.  Under seed 1 the forms
number their events differently (an idle tick is no event), so any two
of a step, a tick and an election's timer at one float may meet in
either order.  Where such a tie is discarded, a step drawn at a tick
index runs one float after the tick, and a program with a tie left is
assumed away.

A second test adds an idle stretch of 10**3 to 10**4 seconds (10**5
under the ``long`` profile) to such a program, with reads of every
member's state inside it: the tail's walk crosses binades, and the
steps after the stretch fall on ticks too.
"""

import copy
import itertools
import math
from functools import partial
from typing import Dict, List

from hypothesis import assume, example, given, settings, strategies as st

from repro.chaos import ChaosEngine, get_scenario
from repro.errors import StoreError
from repro.mongo import Collection, MongoDatabase, MongoReplicaSet
from repro.sim import Environment, RaceDetector

from tests.conftest import examples

LONG = examples(1) > 1


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
    """A member as it was: one oplog per collection.  As the set does
    for its members, the reference hands each member collection the log
    it writes; a ``MongoDatabase`` outside a set keeps none."""

    def collection(self, name: str) -> Collection:
        if name not in self._collections:
            self._collections[name] = CopyingCollection(
                name, env=self._env, race_label=self._race_label,
                oplog=[])
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
#: An idle stretch ``(begin, length, reads)``: 10**3 to 10**4 seconds
#: (10**5 under the ``long`` profile), read at each fraction in ``reads``.
_STRETCH = st.tuples(
    st.floats(min_value=0.0, max_value=HORIZON),
    st.floats(3.0, 5.0 if LONG else 4.0).map(lambda e: 10.0 ** e),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
             max_size=3))


def grid(lag, start=0.0):
    """The ticks after ``start``: repeated addition of ``lag``."""
    return itertools.accumulate(itertools.repeat(lag), initial=start)


def first_tick(lag, at):
    """The first tick at or after ``at`` (> 0) of a set built at 0."""
    return next(tick for tick in grid(lag) if tick >= at)


def schedule(lag, program, stretch=None, exact=True):
    """The program's steps as ``(instant, verb, a, b)``, in order.

    A tick index is that tick's float, or with ``exact`` false the next
    float after it.  With a stretch ``(begin, length, reads)``, a step
    after ``begin`` runs ``length`` later - a tick index then counts from
    the first tick at or after ``begin + length`` - and a ``read`` sits
    at each fraction of the stretch in ``reads``."""
    def at_tick(ticks, index):
        return ticks[index] if exact else math.nextafter(ticks[index],
                                                         math.inf)

    ticks = list(itertools.islice(grid(lag), 1, 27))
    steps = [((at_tick(ticks, at) if isinstance(at, int) else at), at,
              *rest) for at, *rest in program]
    if stretch is None:
        return sorted((instant, *rest) for instant, _at, *rest in steps)
    begin, length, reads = stretch
    far = list(itertools.islice(grid(lag, first_tick(lag, begin + length)),
                                26))
    return sorted(
        [(instant, *rest) for instant, _at, *rest in steps
         if instant <= begin]
        + [((at_tick(far, at) if isinstance(at, int)
             else instant + length), *rest)
           for instant, at, *rest in steps if instant > begin]
        + [(begin + fraction * length, "read", 0, 0)
           for fraction in reads])


def on_ticks(lag, instants):
    """The ``instants`` that are a tick's exact float."""
    ticks, hits = grid(lag), set()
    next(ticks)  # the set's start, not a tick
    tick = next(ticks)
    for instant in sorted(instants):
        while tick < instant:
            tick = next(ticks)
        if tick == instant:
            hits.add(instant)
    return hits


def play(rs_class, via, secondaries, lag, delay, tiebreak, steps):
    env = Environment(tiebreak_seed=tiebreak)
    values = itertools.count()
    seen = []
    rs = None

    def state():
        members = [repr(sorted((name, coll._documents)
                               for name, coll in member._collections.items()
                               if coll._documents))
                   for member in rs.members]
        return (env.now, rs.primary_index, rs.has_primary,
                list(rs.failover_log), applied(rs), members)

    def act(verb, a, b):
        coll, doc_id, index = COLLECTIONS[a % 3], f"d{b}", a % len(rs.members)
        value = next(values)
        try:
            if verb == "read":
                pass
            elif verb == "insert":
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
    env.run(until=max(HORIZON, steps[-1][0] if steps else 0.0) + 1.0)
    seen.append(("end", None, state()))
    return seen


def check(via, secondaries, lag, delay, tiebreak, program, stretch=None):
    # Where the forms may order a step and a tick at one float
    # differently, a tick index means the float just after the tick.
    steps = schedule(lag, program, stretch,
                     exact=via == "timers" and not tiebreak)
    instants = {instant for instant, *_rest in steps}
    if tiebreak:
        # The forms number their events differently, so a permuted tie
        # between any two of a step, a tick and an election's timer (by
        # the instant the election began) may go either way.
        elections = {}
        for instant, verb, *_rest in steps:
            if delay and verb in ("crash", "restart", "bounce"):
                elections.setdefault(instant + delay, set()).add(instant)
        assume(not instants & set(elections))
        assume(all(len(began) == 1 for began in elections.values()))
        assume(not on_ticks(lag, instants | set(elections)))
    elif via != "timers":
        assume(not on_ticks(lag, instants))
    args = (via, secondaries, lag, delay, tiebreak, steps)
    assert play(MongoReplicaSet, *args) == play(ProcessReplicaSet, *args)


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
    check(via, secondaries, lag, delay, tiebreak, program)


@settings(max_examples=examples(10), deadline=None)
# A write before a stretch that crosses 2**12, read before and after the
# crossing; then a write at 4501.0, read at the tick that replicates it
# (its timer runs first) and at the next.
@example(via="timers", secondaries=2, lag=0.05, delay=0.0, tiebreak=0,
         program=[(0.01, "insert", 0, 0), (1.0, "insert", 1, 0),
                  (10, "read", 0, 0), (11, "read", 0, 0)],
         stretch=(0.5, 4500.0, [0.0, 0.9, 0.95]))
@given(via=st.sampled_from(["timers", "chained", "main"]),
       secondaries=st.sampled_from([0, 1, 2, 2, 3]),
       lag=st.sampled_from([0.05, 0.05, 0.03, 0.1]),
       delay=st.sampled_from([0.0, 0.0, 0.12, 0.5]),
       tiebreak=st.sampled_from([0, 1]),
       program=st.lists(_STEP, min_size=2, max_size=12),
       stretch=_STRETCH)
def test_an_idle_stretch_replicates_as_the_process_did(
        via, secondaries, lag, delay, tiebreak, program, stretch):
    check(via, secondaries, lag, delay, tiebreak, program, stretch)


def test_an_idle_set_costs_no_event_and_a_write_one_catch_up(monkeypatch):
    env = Environment()
    rs = MongoReplicaSet(env, secondaries=2, replication_lag_s=0.05)
    rs.collection("jobs").insert_one({"_id": "j1"})
    env.run(until=1.025)
    calls = []
    catch_up = MongoReplicaSet._catch_up
    monkeypatch.setattr(MongoReplicaSet, "_catch_up",
                        lambda *args: calls.append((env.now, catch_up(*args))))
    before = env.events_processed
    env.run(until=11.025)
    assert env.events_processed == before  # 10 s idle: no kernel event
    assert calls == []
    # A write costs one catch-up per live secondary at the next tick.
    rs.collection("jobs").insert_one({"_id": "j2"})
    env.run(until=11.125)
    tick = first_tick(0.05, 11.025)
    assert calls == [(tick, None), (tick, None)]
    assert all(member.collection("jobs").count() == 2
               for member in rs.members)


def test_run_without_until_returns_on_an_idle_set():
    env = Environment()
    rs = MongoReplicaSet(env, secondaries=2)
    rs.collection("jobs").insert_one({"_id": "j1"})
    env.run()
    assert env.now == 0.05
    assert list(env.chains.values()) == [rs]
    assert all(member.collection("jobs").count() == 1
               for member in rs.members)


def test_a_write_after_a_long_idle_stretch_lands_on_the_tick_grid():
    env = Environment()
    rs = MongoReplicaSet(env, secondaries=1, replication_lag_s=0.05)
    env.run(until=1e5 + 0.01)
    assert env.events_processed == 0
    rs.collection("jobs").insert_one({"_id": "j1"})
    tick = first_tick(0.05, env.now)
    env.run(until=math.nextafter(tick, 0.0))
    assert rs.members[1].collection("jobs").count() == 0
    env.run(until=tick)
    assert rs.members[1].collection("jobs").count() == 1
    assert env.events_processed == 1


def test_an_idle_tail_stays_arithmetic_under_the_race_detector():
    env = Environment()
    RaceDetector(env)
    rs = MongoReplicaSet(env, secondaries=2)
    rs.collection("jobs").insert_one({"_id": "j1"})
    env.run(until=100.0)
    assert list(env.chains.values()) == [rs]
    assert env.events_processed == 1


def test_mongo_failover_under_churn_costs_a_twentieth_of_its_events():
    # Seed 0 took 23 822 kernel events while every tick was an event.
    engine = ChaosEngine(get_scenario("mongo-failover-under-churn"), seed=0)
    assert engine.run().passed
    assert engine.env.events_processed <= 1_100
