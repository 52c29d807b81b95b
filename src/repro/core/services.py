"""Replicated FfDL microservices and their crash/recovery behaviour.

"Each microservice is replicated, with the number of replicas chosen based
on the size of the cluster ... gRPC requests to them are automatically
load balanced by K8S among the available replicas" (Section 3.7).  The
Table 3 benchmark crashes replicas and measures time-to-recovery; requests
issued while every replica is down wait for the first recovery, which is
how the "stateless microservices restart fastest" property shows up.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.metrics import TrainingMetricsService
from repro.errors import CircuitOpenError, DeadlineExceededError
from repro.resilience import CircuitBreaker, Deadline
from repro.sim.core import Environment, Event
from repro.sim.rng import RngRegistry

#: One request's service time; a cell brownout multiplies it.
REQUEST_LATENCY_S = 0.003


class Microservice:
    """A load-balanced replica set of one FfDL core service.

    An optional :class:`~repro.resilience.CircuitBreaker` guards the
    call path: deadline misses against a fully-crashed replica set count
    as failures, an OPEN breaker fails calls fast with
    :class:`~repro.errors.CircuitOpenError` (instead of burning each
    caller's deadline against the same dead backend), and the HALF_OPEN
    probe after the reset window rides an ordinary request.
    """

    def __init__(self, env: Environment, rng: RngRegistry, name: str,
                 replicas: int = 2,
                 recovery_range_s: Tuple[float, float] = (3.0, 5.0),
                 metrics: Optional[TrainingMetricsService] = None,
                 breaker: Optional[CircuitBreaker] = None):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.env = env
        self.rng = rng.stream(f"microservice:{name}")
        self.name = name
        self.replicas = replicas
        self.replicas_up = replicas
        self.recovery_range_s = recovery_range_s
        self.request_latency_s = REQUEST_LATENCY_S
        self.metrics = metrics
        self.breaker = breaker
        self._recovered = env.event()
        #: True while a whole-cell blackout holds every replica down;
        #: pending per-replica recoveries are ignored until restore().
        self._held_down = False
        self.crash_count = 0
        self.requests_served = 0
        self.recovery_log: List[Tuple[float, float]] = []  # (down, up)

    @property
    def available(self) -> bool:
        return self.replicas_up > 0

    def crash_replica(self) -> float:
        """Kill one replica; returns the sampled recovery duration."""
        if self.replicas_up <= 0:
            return 0.0
        self.replicas_up -= 1
        self.crash_count += 1
        if self.metrics is not None:
            self.metrics.record_failure(self.name)
        lo, hi = self.recovery_range_s
        recovery = lo + (hi - lo) * self.rng.random()
        down_at = self.env.now
        self.env.process(self._recover(recovery, down_at),
                         name=f"recover:{self.name}")
        return recovery

    def take_down(self) -> None:
        """Hold the whole replica set down (whole-cell blackout): no
        replica restarts until :meth:`restore`."""
        self.crash_count += self.replicas_up
        self.replicas_up = 0
        self._held_down = True
        if self.metrics is not None:
            self.metrics.record_failure(self.name)

    def restore(self) -> None:
        """End a blackout: every replica comes back at once."""
        if not self._held_down:
            return
        self._held_down = False
        self.replicas_up = self.replicas
        self.recovery_log.append((self.env.now, self.env.now))
        if self.metrics is not None:
            self.metrics.record_recovery(self.name)
        if not self._recovered.triggered:
            self._recovered.succeed()

    def _recover(self, after_s: float, down_at: float):
        yield self.env.timeout(after_s)
        if self._held_down or self.replicas_up >= self.replicas:
            # A blackout swallowed this restart, or restore() already
            # brought the full set back while it was pending.
            return
        self.replicas_up += 1
        self.recovery_log.append((down_at, self.env.now))
        if self.metrics is not None:
            self.metrics.record_recovery(self.name)
        if not self._recovered.triggered:
            self._recovered.succeed()

    def call(self, action: Callable[[], object],
             deadline_s: Optional[float] = None) -> Event:
        """Invoke ``action`` through the service: waits for availability,
        pays the request latency, resolves with the result (awaiting any
        Event the action returns).

        With ``deadline_s``, the wait for an available replica is raced
        against the deadline — a request to a fully-crashed replica set
        consumes its deadline against recovery time and fails with
        :class:`DeadlineExceededError` instead of hanging for the whole
        recovery.  With a breaker attached, an OPEN circuit rejects the
        call immediately with :class:`CircuitOpenError`.
        """
        deadline = Deadline(self.env, deadline_s) \
            if deadline_s is not None else None
        breaker = self.breaker

        def request():
            if breaker is not None and not breaker.allow():
                raise CircuitOpenError(
                    f"circuit {breaker.name!r} is {breaker.state}")
            try:
                while not self.available:
                    if deadline is not None and deadline.expired:
                        raise DeadlineExceededError(
                            f"{self.name} unavailable past the "
                            f"{deadline.timeout_s}s deadline")
                    self._recovered = self.env.event() \
                        if self._recovered.triggered else self._recovered
                    if deadline is None:
                        yield self._recovered
                    else:
                        yield self.env.any_of([
                            self._recovered,
                            self.env.timeout(deadline.remaining_s)])
                yield self.env.timeout(self.request_latency_s)
            except DeadlineExceededError:
                if breaker is not None:
                    breaker.record_failure()
                raise
            self.requests_served += 1
            # A served request proves the replica set is reachable; a
            # semantic error from the action is not an availability
            # signal, so the breaker closes here (half-open probes
            # included), before the action runs.
            if breaker is not None:
                breaker.record_success()
            result = action()
            if isinstance(result, Event):
                result = yield result
            return result

        return self.env.process(request(), name=f"rpc:{self.name}")
