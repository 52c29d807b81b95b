"""Cell health classification: HEALTHY / BROWNOUT / BLACKOUT.

Per cell, a monitor fires a no-op API probe over the federation bus on
a fixed cadence and classifies the cell from nothing but probe
outcomes — the cell never self-reports:

* ``BLACKOUT_FAILURES`` *consecutive* probe failures (deadline misses,
  open circuits, unreachable cell) → **BLACKOUT**.  A dead cell cannot
  say it is dead; only silence is observable.
* ``BROWNOUT_PROBES`` of the last ``LATENCY_WINDOW`` probes slower than
  ``BROWNOUT_LATENCY_S`` → **BROWNOUT**.  Elevated round-trip latency
  is the crash-storm/overload signature; one slow probe is noise.
* ``RECOVER_PROBES`` consecutive fast successes from a degraded state
  → back to **HEALTHY** (hysteresis, so a flapping cell does not cause
  migration storms).

Every probe outcome also feeds the cell's
:class:`~repro.resilience.CircuitBreaker`, so the dispatcher's
selection filter and the monitor's classification can never disagree
for long about a dead cell.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.errors import ReproError
from repro.federation.bus import FederationBus
from repro.federation.cell import Cell
from repro.sim.core import Environment, OBSERVER

HEALTHY = "HEALTHY"
BROWNOUT = "BROWNOUT"
BLACKOUT = "BLACKOUT"

#: on_transition(cell, old_state, new_state)
TransitionHook = Callable[[Cell, str, str], None]


PROBE_INTERVAL_S = 5.0
PROBE_TIMEOUT_S = 3.0
#: Rolling window of recent probe round-trips considered for brownout
#: classification.
LATENCY_WINDOW = 6
BROWNOUT_LATENCY_S = 0.5
BROWNOUT_PROBES = 3
BLACKOUT_FAILURES = 3
RECOVER_PROBES = 3


class CellHealthMonitor:
    """Probe loop + classifier for one cell."""

    def __init__(self, env: Environment, bus: FederationBus, cell: Cell,
                 on_transition: Optional[TransitionHook] = None,
                 monitor_name: str = "dispatcher"):
        self.env = env
        self.bus = bus
        self.cell = cell
        self.on_transition = on_transition
        self.monitor_name = monitor_name
        self.state = HEALTHY
        self.transitions = 0
        self.probes_sent = 0
        self.probes_failed = 0
        self._consecutive_failures = 0
        self._consecutive_ok = 0
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._stopped = False
        self.process = env.process(self._probe_loop(),
                                   name=f"health:{cell.name}")

    def stop(self) -> None:
        self._stopped = True

    # -- probe loop --------------------------------------------------------

    def _probe_loop(self):
        while not self._stopped:
            yield self.env.timeout(PROBE_INTERVAL_S)
            if self._stopped:
                return
            self.probes_sent += 1
            started = self.env.now
            deadline_s = PROBE_TIMEOUT_S
            reply = self.bus.call(self.monitor_name, self.cell.name,
                                  lambda: self.cell.probe(
                                      deadline_s=deadline_s))
            # Race the reply against a local timeout: a wedged cell must
            # not wedge its monitor.  The OBSERVER priority lets a reply
            # landing exactly at the timeout instant win.
            cutoff = self.env.timeout(
                deadline_s + 2 * self.bus.link_latency_s(
                    self.monitor_name, self.cell.name),
                priority=OBSERVER)
            try:
                yield self.env.any_of([reply, cutoff])
            except ReproError:
                pass  # probe failed fast (dark cell, open circuit, ...)
            if reply.triggered and reply.ok:
                self._on_probe_ok(self.env.now - started)
            else:
                # Timed out (reply abandoned; a late arrival is dropped
                # by the bus) or the probe failed outright.
                self._on_probe_failure()

    def _on_probe_ok(self, latency_s: float) -> None:
        self._consecutive_failures = 0
        self._latencies.append(latency_s)
        self.cell.breaker.record_success()
        slow = sum(1 for lat in self._latencies if lat > BROWNOUT_LATENCY_S)
        if slow >= BROWNOUT_PROBES:
            self._consecutive_ok = 0
            self._transition(BROWNOUT)
            return
        if latency_s <= BROWNOUT_LATENCY_S:
            self._consecutive_ok += 1
        else:
            self._consecutive_ok = 0
        if self.state != HEALTHY \
                and self._consecutive_ok >= RECOVER_PROBES:
            self._transition(HEALTHY)

    def _on_probe_failure(self) -> None:
        self.probes_failed += 1
        self._consecutive_ok = 0
        self._consecutive_failures += 1
        # Failures do not enter the latency window: brownout is a
        # *successful-but-slow* signature; outright failures drive the
        # blackout counter instead.
        self.cell.breaker.record_failure()
        if self._consecutive_failures >= BLACKOUT_FAILURES:
            self._transition(BLACKOUT)

    def _transition(self, new_state: str) -> None:
        if new_state == self.state:
            return
        old_state, self.state = self.state, new_state
        self.transitions += 1
        if new_state == HEALTHY:
            # Forget degraded-era latencies so a recovered cell is not
            # re-classified from stale samples.
            self._latencies.clear()
        if self.on_transition is not None:
            self.on_transition(self.cell, old_state, new_state)
