"""Write-behind buffering of MongoDB job records (graceful degradation).

The paper's API layer "stores all the metadata in MongoDB before
acknowledging the request"; its dependability companion paper adds that
status updates must survive store outages.  :class:`BufferedJobWriter`
reconciles the two under failure: every job-record write is enqueued
here, a single drain process applies them **in order** through the
(retrying, breaker-guarded) Mongo client, and writes that cannot be
applied stay queued — never dropped — until the store recovers.  While
the queue is blocked the platform is *degraded*: submissions are
acknowledged from memory and flushed later, which is the documented
deviation that keeps jobs flowing through an outage with zero lost
records.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.errors import DuplicateKeyError, SimulationError, StoreError
from repro.resilience.policy import RetryPolicy, TRANSIENT_ERRORS
from repro.sim.core import Environment, Event


class _PendingWrite:
    """One queued operation plus the event its enqueuer may wait on."""

    __slots__ = ("op", "collection", "args", "done", "enqueued_at")

    def __init__(self, env: Environment, op: str, collection: str, args):
        self.op = op
        self.collection = collection
        self.args = args
        self.done = env.event()
        self.enqueued_at = env.now


class BufferedJobWriter:
    """Ordered, never-dropping write-behind queue over a Mongo client."""

    def __init__(self, env: Environment, client,
                 policy: Optional[RetryPolicy] = None,
                 stream: Optional[random.Random] = None,
                 cooldown_s: float = 1.0):
        self.env = env
        self.client = client
        self.policy = policy or RetryPolicy(max_attempts=3,
                                            base_delay_s=0.1,
                                            max_delay_s=1.0)
        self.stream = stream
        self.cooldown_s = cooldown_s
        self._queue: Deque[_PendingWrite] = deque()
        self._wake = env.event()
        self._degraded_event = env.event()
        self.total_enqueued = 0
        self.total_flushed = 0
        self.write_errors = 0
        #: Inserts whose ``_id`` was already durable (idempotent retries
        #: of an already-applied write — suppressed, not errors).
        self.duplicates_suppressed = 0
        self.peak_pending = 0
        self._closed = False
        self._drain_waiters: List[Event] = []
        self.degraded_since: Optional[float] = None
        #: Closed degradation windows: (entered, recovered).
        self.degraded_periods: List[Tuple[float, float]] = []
        self._runner = env.process(self._drain(), name="job-writer")

    # -- enqueue API --------------------------------------------------------

    def insert(self, collection: str, document: dict) -> Event:
        return self._enqueue("insert", collection, (document,))

    def update(self, collection: str, query: dict, update: dict) -> Event:
        return self._enqueue("update", collection, (query, update))

    def _enqueue(self, op: str, collection: str, args) -> Event:
        if self._closed:
            raise SimulationError(
                "BufferedJobWriter is closed; no further writes accepted")
        item = _PendingWrite(self.env, op, collection, args)
        self._queue.append(item)
        self.total_enqueued += 1
        self.peak_pending = max(self.peak_pending, len(self._queue))
        if not self._wake.triggered:
            self._wake.succeed()
        return item.done

    # -- state --------------------------------------------------------------

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def degraded(self) -> bool:
        return self.degraded_since is not None

    @property
    def closed(self) -> bool:
        return self._closed

    def drained_event(self) -> Event:
        """Event firing when the queue next becomes empty (immediately if
        it is empty now).  Writes buffered through an outage are flushed
        first — drain waits for the store to recover rather than dropping
        anything."""
        done = self.env.event()
        if not self._queue:
            done.succeed()
        else:
            self._drain_waiters.append(done)
        return done

    def close(self) -> Event:
        """Shutdown: reject further enqueues, keep flushing what is
        queued, and return the drain event.  The documented shutdown
        contract — nothing buffered is ever dropped."""
        self._closed = True
        return self.drained_event()

    def pending_ids(self, collection: str) -> List[str]:
        """``_id`` values of queued writes against ``collection`` —
        records that are buffered (not lost) but not yet durable."""
        ids = []
        for write in self._queue:
            target = write.args[0]
            record_id = target.get("_id")
            if write.collection == collection and record_id is not None:
                ids.append(record_id)
        return ids

    def degraded_event(self) -> Event:
        """Event firing when the writer next enters degraded mode (or
        immediately, if it is degraded now).  Submission paths race this
        against their write's durability so an outage never blocks the
        acknowledgement path."""
        if self.degraded and not self._degraded_event.triggered:
            self._degraded_event.succeed()
        return self._degraded_event

    def _enter_degraded(self) -> None:
        if self.degraded_since is None:
            self.degraded_since = self.env.now
        if not self._degraded_event.triggered:
            self._degraded_event.succeed()

    def _leave_degraded(self) -> None:
        if self.degraded_since is not None:
            self.degraded_periods.append((self.degraded_since,
                                          self.env.now))
            self.degraded_since = None
            if self._degraded_event.triggered:
                self._degraded_event = self.env.event()

    # -- drain loop ---------------------------------------------------------

    def _drain(self):
        while True:
            if not self._queue:
                self._wake = self.env.event()
                yield self._wake
                continue
            head = self._queue[0]
            outcome = yield from self._flush_one(head)
            if outcome == "transient":
                # Head-of-line stays queued: ordering (insert before its
                # updates) is what makes recovery lossless.
                self._enter_degraded()
                yield self.env.timeout(self.cooldown_s)
                continue
            self._leave_degraded()
            self._queue.popleft()
            if outcome == "flushed":
                self.total_flushed += 1
                if not head.done.triggered:
                    head.done.succeed()
            elif outcome == "duplicate":
                # The record is already durable (an idempotent re-insert
                # after a retry): suppressed, and the enqueuer sees the
                # same success it would have seen the first time.
                self.duplicates_suppressed += 1
                if not head.done.triggered:
                    head.done.succeed()
            else:  # semantic store error: a bug upstream, not an outage
                self.write_errors += 1
                if not head.done.triggered:
                    head.done.succeed(None)
            if not self._queue:
                waiters, self._drain_waiters = self._drain_waiters, []
                for waiter in waiters:
                    if not waiter.triggered:
                        waiter.succeed()

    def _flush_one(self, item: _PendingWrite):
        """Bounded attempt run for one write.

        Returns ``"flushed"`` when durable, ``"transient"`` when the
        store is unreachable (the item must stay queued),
        ``"duplicate"`` when an insert's ``_id`` is already durable (an
        idempotent retry of an applied write — the property the
        federation dispatcher's intent log relies on), ``"error"`` when
        the store rejected the write semantically (bad update) —
        retrying such a write would wedge the queue.
        """
        for attempt in range(self.policy.max_attempts):
            try:
                yield self._issue(item)
            except DuplicateKeyError:
                if item.op == "insert":
                    return "duplicate"
                return "error"
            except TRANSIENT_ERRORS:
                if attempt + 1 >= self.policy.max_attempts:
                    return "transient"
                yield self.env.timeout(
                    self.policy.backoff_s(attempt, self.stream))
                continue
            except StoreError:
                return "error"
            return "flushed"
        return "transient"

    def _issue(self, item: _PendingWrite) -> Event:
        if item.op == "insert":
            (document,) = item.args
            return self.client.insert_one(item.collection, document)
        query, update = item.args
        return self.client.update_one(item.collection, query, update)
