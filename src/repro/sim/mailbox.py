"""Deterministically merged mailboxes for cross-cell messaging.

A plain :class:`~repro.sim.resources.Store` delivers same-instant puts
in kernel scheduling order — exactly the order the tie-break mixer is
free to permute, so two federated cells whose messages land on a third
party in the same simulated instant would make the run
schedule-sensitive.  :class:`Mailbox` closes that hole: puts arriving
within one instant are buffered until the instant settles (an
:data:`~repro.sim.core.OBSERVER`-priority zero-timeout) and then merged
in canonical order of their ``key`` — ``(sender name, per-sender
sequence number)`` for the federation bus — before any getter sees
them.  Two runs under different tie-break seeds therefore drain the
same messages in the same order, which is what keeps a multi-cell
federation byte-reproducible under ``--perturb``.

Keys must be unique among one instant's puts (the bus's per-sender
counters make them unique per message); messages from one sender are
never reordered against each other.  A mailbox holds only the messages
not yet taken and one instant's keys, never a key it has delivered.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict

from repro.errors import SimulationError
from repro.sim.core import Environment, Event, OBSERVER


class Mailbox:
    """An unbounded queue whose same-instant arrivals merge canonically."""

    def __init__(self, env: Environment, name: str = "mailbox"):
        self.env = env
        self.name = name
        #: Arrived this instant, by merge key, not yet visible to getters.
        self._pending: Dict[Any, Any] = {}
        self._settle_scheduled = False
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any, key: Any) -> None:
        """Enqueue ``item`` under a canonical merge ``key``.

        The item becomes visible to getters only after the current
        instant settles, together with — and canonically ordered
        against — every other item that arrived at the same instant.
        """
        if key in self._pending:
            raise SimulationError(
                f"mailbox {self.name!r}: duplicate merge key {key!r}")
        self._pending[key] = item
        if not self._settle_scheduled:
            self._settle_scheduled = True
            settle = self.env.timeout(0.0, priority=OBSERVER)
            settle.callbacks.append(self._settle)

    def _settle(self, _event: Event) -> None:
        self._settle_scheduled = False
        batch, self._pending = self._pending, {}
        for key in sorted(batch):
            item = batch[key]
            delivered = False
            while self._getters:
                getter = self._getters.popleft()
                if not getter.triggered:
                    getter.succeed(item)
                    delivered = True
                    break
            if not delivered:
                self._items.append(item)

    def get(self) -> Event:
        """Event resolving with the next merged item."""
        ev = self.env.event()
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items) + len(self._pending)
