"""Fault injection for the simulated cluster.

The paper's failure analysis (Section 5.6) is driven by real node failures
over months of operation; we reproduce the same distributions by injecting
faults from configurable stochastic processes.  A :class:`FaultInjector`
schedules :class:`FaultSpec` occurrences against named targets and invokes a
callback so the substrate (kubelet, node controller, FfDL component) can
react exactly as it would to an organic failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.sim.core import Environment, Process
from repro.sim.rng import RngRegistry


@dataclass
class FaultSpec:
    """One recurring fault source.

    ``kind`` is a free-form label (``node-crash``, ``gpu-fault``, ...);
    ``mtbf_s`` is the mean time between faults (exponential inter-arrivals);
    ``duration_s`` is the mean outage duration (0 for instantaneous faults
    such as a container crash).  Outage durations are exponential around
    that mean unless ``deterministic_duration`` is set, and never fall
    below ``min_duration_s`` (e.g. a crashed node stays down at least as
    long as failure detection takes).
    """

    kind: str
    mtbf_s: float
    duration_s: float = 0.0
    deterministic_duration: bool = False
    min_duration_s: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.deterministic_duration, bool):
            raise TypeError("deterministic_duration must be a bool, got "
                            f"{self.deterministic_duration!r}")
        if self.mtbf_s <= 0:
            raise ValueError("mtbf_s must be positive")
        if self.duration_s < 0:
            raise ValueError("duration_s must be non-negative")
        if self.min_duration_s < 0:
            raise ValueError("min_duration_s must be non-negative")


@dataclass
class FaultEvent:
    """A recorded occurrence of a fault."""

    time: float
    kind: str
    target: str
    duration_s: float = 0.0
    detail: dict = field(default_factory=dict)


class _FaultProcState:
    """Where a fault process currently is: between faults or mid-outage."""

    __slots__ = ("phase",)

    def __init__(self) -> None:
        self.phase = "waiting"


class FaultInjector:
    """Drives fault processes and keeps an audit log of every occurrence."""

    def __init__(self, env: Environment, rng: RngRegistry):
        self.env = env
        self.rng = rng
        self.log: List[FaultEvent] = []
        self._stopped = False
        self._active: List[Tuple[Process, _FaultProcState]] = []

    def record(self, kind: str, target: str, duration_s: float = 0.0,
               **detail) -> FaultEvent:
        """Record a fault that some other component decided to inject."""
        event = FaultEvent(self.env.now, kind, target, duration_s, detail)
        self.log.append(event)
        return event

    def inject_recurring(
        self,
        spec: FaultSpec,
        target: str,
        on_fault: Callable[[FaultEvent], None],
        on_recover: Optional[Callable[[FaultEvent], None]] = None,
    ) -> Process:
        """Start a process firing ``spec`` faults against ``target`` forever."""
        state = _FaultProcState()
        proc = self.env.process(
            self._recurring(spec, target, on_fault, on_recover, state),
            name=f"fault:{spec.kind}:{target}")
        self._active.append((proc, state))
        return proc

    def inject_once(self, kind: str, target: str, delay_s: float,
                    on_fault: Callable[[FaultEvent], None],
                    duration_s: float = 0.0,
                    on_recover: Optional[Callable[[FaultEvent], None]] = None,
                    ) -> Process:
        """Schedule a single fault ``delay_s`` from now."""
        state = _FaultProcState()

        def one_shot():
            yield self.env.timeout(delay_s)
            event = self.record(kind, target, duration_s)
            state.phase = "outage"
            on_fault(event)
            if duration_s > 0:
                yield self.env.timeout(duration_s)
            if on_recover is not None:
                on_recover(event)

        proc = self.env.process(one_shot(),
                                name=f"fault-once:{kind}:{target}")
        self._active.append((proc, state))
        return proc

    def stop(self) -> None:
        """Stop injecting: no further faults fire, not even ones whose
        inter-arrival timeout is already pending; outages that are already
        in flight still run their recovery callback (faults are never left
        half-applied)."""
        self._stopped = True
        for proc, state in self._active:
            if proc.is_alive and state.phase == "waiting":
                # An escaped Interrupt is a clean termination for the
                # kernel, so this cancels the pending fault outright.
                proc.interrupt("fault injector stopped")

    def events_of_kind(self, kind: str) -> List[FaultEvent]:
        return [e for e in self.log if e.kind == kind]

    # -- internals ----------------------------------------------------------

    def _recurring(self, spec: FaultSpec, target: str,
                   on_fault: Callable[[FaultEvent], None],
                   on_recover: Optional[Callable[[FaultEvent], None]],
                   state: _FaultProcState):
        stream = self.rng.stream(f"fault:{spec.kind}:{target}")
        while not self._stopped:
            wait = stream.expovariate(1.0 / spec.mtbf_s)
            state.phase = "waiting"
            yield self.env.timeout(wait)
            if self._stopped:
                return
            duration = 0.0
            if spec.duration_s > 0:
                duration = spec.duration_s if spec.deterministic_duration \
                    else stream.expovariate(1.0 / spec.duration_s)
                duration = max(duration, spec.min_duration_s)
            event = self.record(spec.kind, target, duration)
            state.phase = "outage"
            on_fault(event)
            if duration > 0:
                yield self.env.timeout(duration)
            if on_recover is not None:
                on_recover(event)
