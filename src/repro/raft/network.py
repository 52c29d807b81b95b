"""Simulated message-passing network for Raft nodes.

Supports per-link latency, message drops, and named partitions, which the
tests use to drive the protocol through leader failures and healing.

While the group on it is idle, its heartbeat rounds are float arithmetic
(``node.IdleRounds``, DESIGN.md "An idle Raft group is a deadline"):
every fault-control call, change of a link setting and send first turns
them back into events.  So does a second live ``Network`` on the same
``raft-network`` stream, and the rounds of neither are arithmetic while
both draw from it.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.sim.core import Environment, Timeout
from repro.sim.rng import RngRegistry

Handler = Callable[[str, Any], None]

#: The live networks drawing from each ``raft-network`` stream.
_DRAWING = weakref.WeakKeyDictionary()


class Network:
    """Delivers messages between registered endpoints with latency/faults."""

    #: KernelProfiler site family of a delivery (``_deliver``).
    name = "net"

    def __init__(self, env: Environment, rng: RngRegistry,
                 base_latency_s: float = 0.002,
                 jitter_s: float = 0.001,
                 drop_probability: float = 0.0):
        self.env = env
        self.rng = rng.stream("raft-network")
        self._base_latency_s = base_latency_s
        self._jitter_s = jitter_s
        self._drop_probability = drop_probability
        self._handlers: Dict[str, Handler] = {}
        self._down: Set[str] = set()
        self._cut_links: Set[Tuple[str, str]] = set()
        self._sent = 0
        self.messages_dropped = 0
        #: Deliveries scheduled and not yet due.
        self.in_flight = 0
        #: The idle group's ``node.IdleRounds`` while its heartbeats are
        #: arithmetic, else None.
        self.idle: Optional[Any] = None
        drawing = _DRAWING.setdefault(self.rng, weakref.WeakSet())
        for other in list(drawing):  # at most one of them is idle
            other.wake()
        drawing.add(self)

    @property
    def messages_sent(self) -> int:
        self.env.settle()
        return self._sent

    @property
    def shares_stream(self) -> bool:
        """Whether another live network draws from ``raft-network`` too:
        the settle order of two groups' rounds is not their event order."""
        return len(_DRAWING[self.rng]) > 1

    # Whether an idle group's rounds can be arithmetic depends on these
    # three, so setting one first turns the rounds back into events.

    @property
    def base_latency_s(self) -> float:
        return self._base_latency_s

    @base_latency_s.setter
    def base_latency_s(self, value: float) -> None:
        self.wake()
        self._base_latency_s = value

    @property
    def jitter_s(self) -> float:
        return self._jitter_s

    @jitter_s.setter
    def jitter_s(self, value: float) -> None:
        self.wake()
        self._jitter_s = value

    @property
    def drop_probability(self) -> float:
        return self._drop_probability

    @drop_probability.setter
    def drop_probability(self, value: float) -> None:
        self.wake()
        self._drop_probability = value

    def wake(self) -> None:
        """Settle, then turn the idle rounds back into the leader's timer,
        the followers' timers and the deliveries still in flight."""
        idle = self.idle
        if idle is not None:
            self.idle = None
            idle.resume(self.env.now)

    def register(self, node_id: str, handler: Handler) -> None:
        if node_id in self._handlers:
            raise SimulationError(f"duplicate endpoint {node_id!r}")
        self._handlers[node_id] = handler

    def handler(self, node_id: str) -> Optional[Handler]:
        return self._handlers.get(node_id)

    # -- fault control -------------------------------------------------------

    def take_down(self, node_id: str) -> None:
        """Isolate a node: all traffic to/from it is dropped."""
        self.wake()
        self._down.add(node_id)

    def bring_up(self, node_id: str) -> None:
        self.wake()
        self._down.discard(node_id)

    def cut(self, a: str, b: str) -> None:
        """Cut the bidirectional link between two nodes.

        A node's link to itself cannot be cut: local delivery never
        crosses the network, so ``cut(a, a)`` is a no-op (a node only
        loses self-reachability by going down entirely).
        """
        if a == b:
            return
        self.wake()
        self._cut_links.add((a, b))
        self._cut_links.add((b, a))

    def heal(self, a: str, b: str) -> None:
        self.wake()
        self._cut_links.discard((a, b))
        self._cut_links.discard((b, a))

    def partition(self, group_a: Set[str], group_b: Set[str]) -> None:
        """Cut every link crossing the two groups.

        A node listed in *both* groups keeps its self-link (local
        delivery) but loses its links to every other node in either
        group — the "flaky switch port" topology where one node is cut
        off from both sides.
        """
        for a in sorted(group_a):
            for b in sorted(group_b):
                self.cut(a, b)

    def heal_all(self) -> None:
        """Heal every cut link.  A node taken down stays down: its
        endpoint returns at ``bring_up`` (a node's ``restart``)."""
        self.wake()
        self._cut_links.clear()

    def is_reachable(self, src: str, dst: str) -> bool:
        return (src not in self._down and dst not in self._down
                and (src, dst) not in self._cut_links)

    # -- delivery -------------------------------------------------------------

    def send(self, src: str, dst: str, message: Any) -> None:
        """Asynchronously deliver ``message`` from ``src`` to ``dst``."""
        self.wake()
        self._sent += 1
        if dst not in self._handlers:
            self.messages_dropped += 1
            return
        if not self.is_reachable(src, dst):
            self.messages_dropped += 1
            return
        if self._drop_probability and \
                self.rng.random() < self._drop_probability:
            self.messages_dropped += 1
            return
        self.in_flight += 1
        self.env.timeout(self.latency(), (src, dst, message)).callbacks.append(
            self._deliver)

    def latency(self) -> float:
        """One link latency, drawn from ``raft-network``."""
        return self._base_latency_s + self.rng.random() * self._jitter_s

    def deliver_at(self, when: float, src: str, dst: str,
                   message: Any) -> None:
        """Put a message sent earlier in flight, landing at ``when``."""
        self.in_flight += 1
        self.env.timeout_at(when, (src, dst, message)).callbacks.append(
            self._deliver)

    def _deliver(self, timeout: Timeout) -> None:
        self.in_flight -= 1
        src, dst, message = timeout.value
        # Re-check reachability at delivery time (partition may have
        # happened while the message was in flight).
        if self.is_reachable(src, dst):
            self._handlers[dst](src, message)
        else:
            self.messages_dropped += 1
