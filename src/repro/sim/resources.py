"""Synchronization and resource-contention primitives for the sim kernel.

These are the building blocks for modelling queues (:class:`Store`),
capacity-limited services (:class:`Resource`) and shared network / storage
bandwidth (:class:`FairShareLink`, used to reproduce the heavy-load
degradation in Figure 5 of the paper).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.errors import SimulationError
from repro.sim.core import Environment, Event


class Resource:
    """A counted resource; ``request()`` events fire FIFO as capacity frees."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        self._waiters: deque[Event] = deque()

    def request(self) -> Event:
        """Return an event that fires once a unit is acquired."""
        ev = self.env.event()
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Release one unit; hands it to the oldest waiter if any."""
        if self.in_use <= 0:
            raise SimulationError("release without acquire")
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.triggered:
                waiter.succeed(self)
                return
        self.in_use -= 1

    @property
    def queue_length(self) -> int:
        return sum(1 for w in self._waiters if not w.triggered)


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


class _Transfer:
    __slots__ = ("remaining", "done", "last_update")

    def __init__(self, size: float, done: Event, now: float):
        self.remaining = float(size)
        self.done = done
        self.last_update = now


class FairShareLink:
    """Processor-sharing bandwidth link.

    ``capacity_bps`` is shared equally among all in-flight transfers, so a
    transfer of ``size`` bytes takes ``size * n / capacity`` seconds while
    ``n`` transfers are active.  This models the shared 1GbE / object-storage
    bandwidth whose saturation causes the V100 slowdown in Figure 5.
    """

    def __init__(self, env: Environment, capacity_bps: float,
                 name: str = "link"):
        if capacity_bps <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity_bps = float(capacity_bps)
        self.name = name
        self._transfers: list[_Transfer] = []
        self._wakeup: Optional[Event] = None
        self._runner = env.process(self._run(), name=f"link:{name}")
        self.bytes_transferred = 0.0

    @property
    def active_transfers(self) -> int:
        return len(self._transfers)

    def current_rate_per_transfer(self) -> float:
        """Bandwidth each in-flight transfer currently receives (bps)."""
        n = len(self._transfers)
        return self.capacity_bps / n if n else self.capacity_bps

    def transfer(self, size_bytes: float) -> Event:
        """Start a transfer; the returned event fires on completion."""
        if size_bytes < 0:
            raise SimulationError("negative transfer size")
        done = self.env.event()
        if size_bytes == 0:
            done.succeed(0.0)
            return done
        self._drain_progress()
        self._transfers.append(_Transfer(size_bytes, done, self.env.now))
        self._kick()
        return done

    def set_capacity(self, capacity_bps: float) -> None:
        """Re-rate the link mid-flight (brownout / recovery).

        Progress already made at the old rate is settled first, so
        in-flight transfers finish their remaining bytes at the new rate.
        """
        if capacity_bps <= 0:
            raise SimulationError("capacity must be positive")
        self._drain_progress()
        self.capacity_bps = float(capacity_bps)
        self._kick()

    # -- internals ----------------------------------------------------------

    def _drain_progress(self) -> None:
        """Account for bytes moved since the last state change."""
        now = self.env.now
        n = len(self._transfers)
        if not n:
            return
        rate = self.capacity_bps / n
        for tr in self._transfers:
            moved = rate * (now - tr.last_update)
            remaining = tr.remaining - moved
            tr.remaining = remaining if remaining > 0.0 else 0.0
            tr.last_update = now
            self.bytes_transferred += moved

    def _kick(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _run(self):
        while True:
            self._drain_progress()
            # A transfer is done when its residual would complete within a
            # nanosecond at the current rate: a pure byte epsilon can leave
            # residuals whose completion time is below the clock's float
            # resolution, which would stall the simulation.
            rate = self.capacity_bps / max(1, len(self._transfers))
            epsilon = max(1e-9, rate * 1e-9)
            finished = [t for t in self._transfers
                        if t.remaining <= epsilon]
            self._transfers = [t for t in self._transfers
                               if t.remaining > epsilon]
            for tr in finished:
                tr.done.succeed(self.env.now)
            if not self._transfers:
                self._wakeup = self.env.event()
                yield self._wakeup
                continue
            rate = self.capacity_bps / len(self._transfers)
            next_done = max(1e-9,
                            min(t.remaining for t in self._transfers) / rate)
            self._wakeup = self.env.event()
            yield self.env.any_of([self.env.timeout(next_done), self._wakeup])
