"""Synchronization and resource-contention primitives for the sim kernel.

These are the building blocks for modelling queues (:class:`Store`) and
shared network / storage bandwidth (:class:`FairShareLink`, used to
reproduce the heavy-load degradation in Figure 5 of the paper).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from functools import reduce
from itertools import count, repeat
from math import inf
from operator import add
from typing import Any, Optional

from repro.errors import SimulationError
from repro.sim.core import NORMAL, URGENT, Environment, Event, Timeout


class Store:
    """An unbounded FIFO channel of items; ``get()`` blocks until available."""

    def __init__(self, env: Environment):
        self.env = env
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        ev = self.env.event()
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)


class FairShareLink:
    """Processor-sharing bandwidth link.

    ``capacity_bps`` is shared equally among all in-flight transfers, so a
    transfer of ``size`` bytes takes ``size * n / capacity`` seconds while
    ``n`` transfers are active.  This models the shared 1GbE / object-storage
    bandwidth whose saturation causes the V100 slowdown in Figure 5.

    No process runs the link: every transfer has made the same progress
    since ``_settled_at``, so the state is three parallel lists and that
    instant.  A state change queues one ``URGENT`` settle for its instant
    (the arrivals of an instant are judged as one batch), and a settle
    arms the one timer of the next completion.

    The lists are sorted by remaining bytes, ascending, and carry each
    transfer's arrival number beside it.  Progress subtracts one
    ``moved`` from every residual (floored at zero), and ``fl(x -
    moved)`` is monotone in ``x``, so it never reorders them: the
    nearest completion is the first, the finished transfers are a
    prefix (succeeded in arrival order, as an arrival-ordered list
    would), and an arrival is one ``bisect``.
    """

    def __init__(self, env: Environment, capacity_bps: float,
                 name: str = "link"):
        if not capacity_bps > 0:  # also catches NaN
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity_bps = float(capacity_bps)
        self.name = name  # KernelProfiler site family of the callbacks
        self._remaining: list[float] = []
        self._done: list[Event] = []
        self._arrival: list[int] = []
        self._arrivals = count()
        self._settled_at = env.now
        #: The queued settle (delay 0) or the completion timer that
        #: counts; a timer a state change superseded fires dead.
        self._timer: Optional[Timeout] = None
        self.bytes_transferred = 0.0

    @property
    def active_transfers(self) -> int:
        return len(self._remaining)

    def transfer(self, size_bytes: float) -> Event:
        """Start a transfer; the returned event fires on completion."""
        if not 0 <= size_bytes < inf:  # also catches NaN
            raise SimulationError(f"bad transfer size: {size_bytes}")
        done = self.env.event()
        if size_bytes == 0:
            done.succeed(0.0)
            return done
        self._progress()
        size = float(size_bytes)
        at = bisect_right(self._remaining, size)
        self._remaining.insert(at, size)
        self._done.insert(at, done)
        self._arrival.insert(at, next(self._arrivals))
        self._changed()
        return done

    def set_capacity(self, capacity_bps: float) -> None:
        """Re-rate the link mid-flight (brownout / recovery).

        Progress already made at the old rate is settled first, so
        in-flight transfers finish their remaining bytes at the new rate.
        """
        if not capacity_bps > 0:  # also catches NaN
            raise SimulationError("capacity must be positive")
        self._progress()
        self.capacity_bps = float(capacity_bps)
        self._changed()

    # -- internals ----------------------------------------------------------

    def _progress(self) -> None:
        """Account for bytes moved since the last state change."""
        now, remaining = self.env.now, self._remaining
        if remaining and now != self._settled_at:
            moved = self.capacity_bps / len(remaining) \
                * (now - self._settled_at)
            self._remaining = [left - moved if left > moved else 0.0
                               for left in remaining]
            # One addition per transfer, in order: ``len * moved`` and
            # ``sum()`` (compensated since 3.12) round differently.
            self.bytes_transferred = reduce(
                add, repeat(moved, len(remaining)), self.bytes_transferred)
        self._settled_at = now

    def _changed(self) -> None:
        if self._timer is None or self._timer.delay:  # no settle queued yet
            self._arm(0.0, URGENT)

    def _arm(self, delay: float, priority: int) -> None:
        self._timer = self.env.timeout(delay, priority=priority)
        self._timer.callbacks.append(self._settle)

    def _settle(self, timer: Event) -> None:
        """Complete what is done and time the next completion."""
        if timer is not self._timer:
            return
        self._timer = None
        self._progress()
        remaining = self._remaining
        if not remaining:
            return
        rate = self.capacity_bps / len(remaining)
        # A transfer is done when its residual would complete within a
        # nanosecond at the current rate: a pure byte epsilon can leave
        # residuals whose completion time is below the clock's float
        # resolution, which would stall the simulation.
        finished = bisect_right(remaining, max(1e-9, rate * 1e-9))
        if finished:
            completed = sorted(zip(self._arrival[:finished],
                                   self._done[:finished]))
            del remaining[:finished], self._done[:finished], \
                self._arrival[:finished]
            for _arrival, done in completed:
                done.succeed(self.env.now)
            if not remaining:
                return
            rate = self.capacity_bps / len(remaining)
        self._arm(max(1e-9, remaining[0] / rate), NORMAL)
