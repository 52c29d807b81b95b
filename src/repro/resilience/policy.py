"""Retry policies, deadlines and circuit breakers for backend clients.

Everything here runs on simulated time: backoff sleeps are
``env.timeout`` events and deadlines compare against ``env.now``, so a
month of retries replays in milliseconds and two runs with the same seed
produce byte-identical schedules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import (
    CircuitOpenError,
    ConsensusError,
    ObjectStorageUnavailableError,
    ResilienceError,
    RetryExhaustedError,
    SimulationError,
    StoreUnavailableError,
)
from repro.sim.core import Environment, Event, Interrupt, Timeout
from repro.sim.rng import RngRegistry

#: The errors every layer agrees are transient: worth retrying, worth
#: buffering behind, never worth surfacing as a semantic failure.
TRANSIENT_ERRORS: Tuple[type, ...] = (
    StoreUnavailableError,
    ObjectStorageUnavailableError,
    ConsensusError,
    ResilienceError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with (optional) full jitter.

    ``backoff_s(attempt, stream)`` returns the sleep after failed attempt
    number ``attempt`` (0-based): ``base * multiplier**attempt`` capped at
    ``max_delay_s``, scaled by a uniform draw from ``stream`` when
    ``jitter`` is on (AWS-style "full jitter", which decorrelates the
    retry storms of many clients hitting the same dead backend).
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0:
            raise ValueError("base_delay_s must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_delay_s < self.base_delay_s:
            raise ValueError("max_delay_s must be >= base_delay_s")

    def backoff_s(self, attempt: int, stream: Optional[random.Random]
                  ) -> float:
        delay = min(self.max_delay_s,
                    self.base_delay_s * self.multiplier ** attempt)
        if self.jitter:
            if stream is None:
                raise SimulationError(
                    "jittered RetryPolicy needs an RngRegistry stream")
            delay *= stream.random()
        return delay


class Deadline:
    """A fixed point in simulated time that a call must not outlive."""

    def __init__(self, env: Environment, timeout_s: float):
        if timeout_s < 0:
            raise ValueError("deadline timeout must be non-negative")
        self.env = env
        self.timeout_s = timeout_s
        self.expires_at = env.now + timeout_s

    @property
    def remaining_s(self) -> float:
        return max(0.0, self.expires_at - self.env.now)

    @property
    def expired(self) -> bool:
        return self.env.now >= self.expires_at


#: CircuitBreaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Classic three-state breaker driven by simulated time.

    CLOSED counts consecutive failures; at ``failure_threshold`` it trips
    OPEN and :meth:`allow` rejects calls for ``reset_timeout_s``.  The
    first allowance after the reset window is a HALF_OPEN probe: success
    closes the breaker, failure re-opens it for another window.
    """

    def __init__(self, env: Environment, failure_threshold: int = 5,
                 reset_timeout_s: float = 10.0, name: str = "breaker"):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_s < 0:
            raise ValueError("reset_timeout_s must be non-negative")
        self.env = env
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self._probe_in_flight = False
        #: (time, from_state, to_state) — for the chaos audit log.
        self.transitions: list = []
        #: Called before each failure is counted: a store client turns
        #: its arithmetic keepalive chains back into events there, since
        #: their next success resets the count.
        self.before_failure: List[Callable[[], None]] = []

    def _move(self, to_state: str) -> None:
        if to_state != self.state:
            self.transitions.append((self.env.now, self.state, to_state))
            self.state = to_state

    def allow(self) -> bool:
        """May a call proceed right now?  (HALF_OPEN admits one probe.)"""
        if self.state == OPEN:
            if self.opened_at is not None and \
                    self.env.now >= self.opened_at + self.reset_timeout_s:
                self._move(HALF_OPEN)
                self._probe_in_flight = False
            else:
                return False
        if self.state == HALF_OPEN:
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self._probe_in_flight = False
        self._move(CLOSED)

    def record_failure(self) -> None:
        for hook in self.before_failure:
            hook()
        self.consecutive_failures += 1
        if self.state == HALF_OPEN or \
                self.consecutive_failures >= self.failure_threshold:
            self._move(OPEN)
            self.opened_at = self.env.now
            self._probe_in_flight = False


def retry_call(env: Environment,
               stream: Optional[random.Random],
               make_attempt: Callable[[], object],
               policy: RetryPolicy,
               retry_on: Tuple[type, ...] = TRANSIENT_ERRORS,
               breaker: Optional[CircuitBreaker] = None,
               on_retry: Optional[Callable[[int, BaseException], None]]
               = None):
    """Generator: run ``make_attempt`` under ``policy``; ``yield from`` it.

    ``make_attempt`` is called once per attempt; if it returns an
    :class:`Event` the attempt's outcome is the event's outcome,
    otherwise its return value (or synchronous raise) is the outcome.
    Only ``retry_on`` exceptions are retried; everything else propagates
    on the first attempt.  Raises :class:`RetryExhaustedError` when the
    budget runs out and :class:`CircuitOpenError` when the breaker
    rejects the call.
    """
    last_error: Optional[BaseException] = None
    for attempt in range(policy.max_attempts):
        if breaker is not None and not breaker.allow():
            raise CircuitOpenError(
                f"circuit {breaker.name!r} is {breaker.state}"
            ) from last_error
        try:
            result = make_attempt()
            if isinstance(result, Event):
                result = yield result
        except retry_on as err:
            if breaker is not None:
                breaker.record_failure()
            last_error = err
            if attempt + 1 >= policy.max_attempts:
                break
            if on_retry is not None:
                on_retry(attempt, err)
            yield env.timeout(policy.backoff_s(attempt, stream))
            continue
        if breaker is not None:
            breaker.record_success()
        return result
    raise RetryExhaustedError(
        f"call failed after {policy.max_attempts} attempt(s): "
        f"{last_error!r}") from last_error


class StoreClient:
    """The half of a store client that :class:`TimedCall` reads.

    A subclass sets its default ``latency_s``, its jitter ``stream``
    name, its ``retryable`` errors, its ``unavailable`` message and its
    KernelProfiler ``site``, and adds the operations, each a
    :meth:`_call`.  ``retry`` and ``breaker`` guard every operation;
    without either, one attempt: a transient error reaches the caller.

    ``set_available`` and a failure counted by ``breaker`` first turn the
    keepalive chains over this client back into events (DESIGN.md, "A
    healthy lease is a deadline").
    """

    def __init__(self, env: Environment, backend,
                 latency_s: Optional[float] = None,
                 rng: Optional[RngRegistry] = None,
                 retry: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None):
        self.env = env
        self.backend = backend
        if latency_s is not None:
            self.latency_s = latency_s
        self.retry = retry
        self.breaker = breaker
        self.retry_stream = rng.stream(self.stream) \
            if rng is not None else None
        self._ops_issued = 0
        self.retries = 0
        #: Chaos hook: while False every request fails with
        #: StoreUnavailableError after the request latency.
        self.available = True
        if breaker is not None:
            breaker.before_failure.append(self.fall_back)

    @property
    def ops_issued(self) -> int:
        """Operations issued so far, the chains' keepalives included."""
        self.env.settle()
        return self._ops_issued

    @ops_issued.setter
    def ops_issued(self, count: int) -> None:
        self._ops_issued = count

    def set_available(self, available: bool) -> None:
        self.fall_back()
        self.available = available

    def fall_back(self) -> None:
        """Turn every arithmetic chain over this client into events, now."""
        for chain in [chain for chain, over in self.env.chains.items()
                      if over is self]:
            chain.fall_back()

    def _call(self, action: Callable[[], object],
              lands_at: Optional[float] = None) -> Event:
        """Run ``action`` after the request latency; resolve with its result.

        ``lands_at`` is for a call an arithmetic chain sent, and counted,
        earlier: its latency ends at that instant."""
        if lands_at is None:
            self._ops_issued += 1
        return TimedCall(self, action, lands_at).done


class TimedCall:
    """One store-client operation: a latency ``Timeout`` whose callback
    acts and resolves ``done`` - two kernel events, no process.

    An attempt made while ``client.available`` is false fails with the
    client's ``unavailable`` message, and its ``retry`` / ``breaker``,
    when either is set, guard the call as ``env.process(retry_call(...))``
    would (jitter from its ``retry_stream``, counted in its ``retries``)
    - the same checks in the same order, so the action still runs in the
    ``NORMAL`` slot at ``now + latency`` and instants, jitter draws and
    breaker transitions are the process form's (DESIGN.md, "When a
    ``Process`` is warranted").  ``done`` is a plain event: nothing to
    interrupt.
    """

    __slots__ = ("client", "action", "name", "policy", "done", "attempt",
                 "last_error")

    def __init__(self, client: StoreClient, action: Callable[[], object],
                 lands_at: Optional[float] = None):
        self.client = client
        self.action = action
        self.name = client.site  # KernelProfiler site family of callbacks
        self.done = Event(client.env)
        self.attempt = 0
        self.last_error: Optional[BaseException] = None
        if client.retry is None and client.breaker is None:
            # Unguarded: a transient error is the caller's, as raised.
            self.policy = None
        else:
            self.policy = client.retry or RetryPolicy(max_attempts=1)
        if lands_at is None:
            self._open()
        else:  # its breaker let it through when it was sent
            client.env.timeout_at(lands_at).callbacks.append(self._act)

    def _open(self, _backoff: Optional[Event] = None) -> None:
        """Start an attempt: breaker, then the request latency."""
        client = self.client
        breaker = client.breaker
        if breaker is not None and not breaker.allow():
            self._give_up(CircuitOpenError(
                f"circuit {breaker.name!r} is {breaker.state}"))
        else:
            Timeout(client.env, client.latency_s).callbacks.append(self._act)

    def _act(self, _latency: Event) -> None:
        if not self.client.available:
            self._failed(StoreUnavailableError(self.client.unavailable))
            return
        try:
            result = self.action()
        except Interrupt:
            raise
        except Exception as err:  # noqa: BLE001 - the caller's, via done
            self._failed(err)
            return
        if not isinstance(result, Event):
            self._succeeded(result)
        elif result._processed:
            self._settled(result)
        else:  # a Raft proposal: its outcome is the attempt's
            result.callbacks.append(self._settled)

    def _settled(self, result: Event) -> None:
        if result._ok:
            self._succeeded(result._value)
        else:
            self._failed(result._value)

    def _succeeded(self, value: object) -> None:
        if self.client.breaker is not None:
            self.client.breaker.record_success()
        self.done.succeed(value)

    def _failed(self, err: BaseException) -> None:
        client, policy = self.client, self.policy
        if policy is None or not isinstance(err, client.retryable):
            self.done.fail(err)  # unguarded, or would fail again the same way
            return
        if client.breaker is not None:
            client.breaker.record_failure()
        # Kept without its traceback: the frames the error unwound still
        # reach ``_act`` and the event loop's frames through ``f_back``
        # (clearing their locals leaves that), and those hold this call,
        # so a traceback would make a call that failed once a reference
        # cycle (DESIGN.md, "What the collector costs").
        self.last_error = err.with_traceback(None)
        if self.attempt + 1 >= policy.max_attempts:
            self._give_up(RetryExhaustedError(
                f"call failed after {policy.max_attempts} attempt(s): "
                f"{err!r}"))
            return
        client.retries += 1
        delay = policy.backoff_s(self.attempt, client.retry_stream)
        self.attempt += 1
        Timeout(client.env, delay).callbacks.append(self._open)

    def _give_up(self, err: ResilienceError) -> None:
        err.__cause__ = self.last_error
        self.done.fail(err)
