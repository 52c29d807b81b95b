"""The federation message bus: latency, FIFO links, deterministic merge.

Cross-cell traffic (dispatch RPCs, health probes, completion
notifications) rides this bus instead of touching peer objects
directly.  Three properties make the federation byte-reproducible:

* **Strictly positive link latency.**  The race detector's vector
  clocks are epoch-scoped per simulated instant, so a send and its
  delivery never share an epoch and cross-cell causality can never be
  misread as a data race.  Latencies are derived from per-link named
  RNG streams (``federation:bus:<src>-><dst>``), not from draw order,
  so they are identical no matter which link happens to be exercised
  first.

* **Canonical same-instant merge.**  Deliveries land in the
  destination's :class:`~repro.sim.mailbox.Mailbox` keyed by
  ``(sender, per-sender seq)``; messages from different senders that
  arrive in the same instant are ordered by that key, not by kernel
  scheduling order, so ``--perturb`` cannot reorder them.

* **Serialized execution per destination.**  Each destination drains
  its mailbox one message at a time (an API ingress queue); handlers
  for two messages never interleave, which removes the last source of
  schedule sensitivity.  Handlers must therefore be short-lived —
  long-running work (watching a job to completion) is spawned as a
  cell-local process and reports back with a separate :meth:`send`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ReproError, SimulationError
from repro.sim.core import Environment, Event
from repro.sim.mailbox import Mailbox
from repro.sim.rng import RngRegistry


@dataclass
class _Message:
    sender: str
    seq: int
    action: Callable[[], Any]
    reply: Optional[Event]  # None for one-way sends


@dataclass
class BusStats:
    messages: int = 0
    replies: int = 0
    failures: int = 0
    by_link: Dict[Tuple[str, str], int] = field(default_factory=dict)


class FederationBus:
    """Point-to-point RPC and one-way sends between federation members."""

    def __init__(self, env: Environment, rng: RngRegistry,
                 base_latency_s: float = 0.004,
                 jitter_s: float = 0.004):
        if base_latency_s <= 0.0:
            raise ValueError("bus latency must be strictly positive "
                             "(race epochs must not collapse)")
        self.env = env
        self._rng = rng
        self.base_latency_s = base_latency_s
        self.jitter_s = jitter_s
        self._mailboxes: Dict[str, Mailbox] = {}
        self._send_seq: Dict[str, int] = {}
        self._latencies: Dict[Tuple[str, str], float] = {}
        self.stats = BusStats()

    def register(self, name: str) -> None:
        """Attach a member; its inbound messages drain in merge order."""
        if name in self._mailboxes:
            raise SimulationError(f"bus member {name!r} already registered")
        mailbox = Mailbox(self.env, name=f"bus:{name}")
        self._mailboxes[name] = mailbox
        self.env.process(self._drain(name, mailbox), name=f"bus-drain:{name}")

    def link_latency_s(self, src: str, dst: str) -> float:
        """One-way latency of the (src, dst) link; fixed per link and
        derived from the link's name so first-use order is irrelevant."""
        key = (src, dst)
        if key not in self._latencies:
            stream = self._rng.stream(f"federation:bus:{src}->{dst}")
            self._latencies[key] = (self.base_latency_s
                                    + self.jitter_s * stream.random())
        return self._latencies[key]

    def call(self, src: str, dst: str,
             action: Callable[[], Any]) -> Event:
        """RPC: run ``action`` at ``dst``, resolve with its result.

        The request pays the (src, dst) latency, the reply pays the
        (dst, src) latency.  If the action raises (or the Event it
        returns fails), the reply event fails with the same error.
        """
        return self._post(src, dst, action, want_reply=True)

    def send(self, src: str, dst: str, action: Callable[[], Any]) -> None:
        """One-way message: run ``action`` at ``dst``, no reply leg."""
        self._post(src, dst, action, want_reply=False)

    def _post(self, src: str, dst: str, action: Callable[[], Any],
              want_reply: bool) -> Optional[Event]:
        if dst not in self._mailboxes:
            raise SimulationError(f"bus has no member {dst!r}")
        mailbox = self._mailboxes[dst]
        seq = self._send_seq.get(src, 0)
        self._send_seq[src] = seq + 1
        reply = self.env.event() if want_reply else None
        message = _Message(sender=src, seq=seq, action=action, reply=reply)
        self.stats.messages += 1
        link = (src, dst)
        self.stats.by_link[link] = self.stats.by_link.get(link, 0) + 1

        def deliver(_event: Event) -> None:
            mailbox.put(message, key=(message.sender, message.seq))

        transit = self.env.timeout(self.link_latency_s(src, dst))
        transit.callbacks.append(deliver)
        return reply

    def _drain(self, name: str, mailbox: Mailbox):
        while True:
            message = yield mailbox.get()
            result: Any = None
            error: Optional[BaseException] = None
            try:
                result = message.action()
                if isinstance(result, Event):
                    result = yield result
            except ReproError as err:
                error = err
            if message.reply is None:
                if error is not None:
                    self.stats.failures += 1
                continue
            # Reply leg pays the return-path latency.
            yield self.env.timeout(self.link_latency_s(name, message.sender))
            if message.reply.triggered:
                continue  # caller gave up (deadline); drop the late reply
            if error is None:
                self.stats.replies += 1
                message.reply.succeed(result)
            else:
                self.stats.failures += 1
                message.reply.fail(error)
