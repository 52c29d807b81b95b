"""Unit tests for RetryPolicy, Deadline, CircuitBreaker and retry_call."""

import pytest

from repro.errors import (
    CircuitOpenError,
    DuplicateKeyError,
    RetryExhaustedError,
    SimulationError,
    StoreUnavailableError,
)
from repro.resilience import (
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    retry_call,
)
from repro.sim import Environment, RngRegistry


def make_env(seed=0):
    env = Environment()
    return env, RngRegistry(seed).stream("test-retry")


def run_retry(env, stream, make_attempt, policy, **kwargs):
    proc = env.process(
        retry_call(env, stream, make_attempt, policy, **kwargs),
        name="retry-under-test")
    return env.run_until_complete(proc)


# -- RetryPolicy -----------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay_s=-1)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay_s=1.0, max_delay_s=0.5)


def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5,
                         jitter=False)
    delays = [policy.backoff_s(a, None) for a in range(5)]
    assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]


def test_jittered_backoff_draws_from_stream_deterministically():
    policy = RetryPolicy(base_delay_s=1.0, jitter=True)
    _env, stream_a = make_env(3)
    _env, stream_b = make_env(3)
    draws_a = [policy.backoff_s(0, stream_a) for _ in range(5)]
    draws_b = [policy.backoff_s(0, stream_b) for _ in range(5)]
    assert draws_a == draws_b
    assert all(0.0 <= d <= 1.0 for d in draws_a)
    assert len(set(draws_a)) > 1


def test_jittered_backoff_without_stream_is_an_error():
    policy = RetryPolicy(jitter=True)
    with pytest.raises(SimulationError):
        policy.backoff_s(0, None)


# -- Deadline --------------------------------------------------------------


def test_deadline_tracks_simulated_time():
    env, _ = make_env()
    deadline = Deadline(env, 10.0)
    assert not deadline.expired
    assert deadline.remaining_s == 10.0
    env.run(until=4.0)
    assert deadline.remaining_s == pytest.approx(6.0)
    env.run(until=11.0)
    assert deadline.expired
    assert deadline.remaining_s == 0.0


def test_deadline_rejects_negative_timeout():
    env, _ = make_env()
    with pytest.raises(ValueError):
        Deadline(env, -1.0)


# -- CircuitBreaker --------------------------------------------------------


def test_breaker_trips_after_threshold_and_recovers_via_probe():
    env, _ = make_env()
    breaker = CircuitBreaker(env, failure_threshold=3, reset_timeout_s=5.0)
    for _ in range(3):
        assert breaker.allow()
        breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()
    env.run(until=5.5)
    # First call after the reset window is the half-open probe...
    assert breaker.allow()
    assert breaker.state == "half-open"
    # ...and only one probe is admitted at a time.
    assert not breaker.allow()
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.allow()


def test_breaker_reopens_on_failed_probe():
    env, _ = make_env()
    breaker = CircuitBreaker(env, failure_threshold=1, reset_timeout_s=2.0)
    breaker.record_failure()
    assert breaker.state == "open"
    env.run(until=2.5)
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()
    states = [(frm, to) for _t, frm, to in breaker.transitions]
    assert states == [("closed", "open"), ("open", "half-open"),
                      ("half-open", "open")]


# -- retry_call ------------------------------------------------------------


def test_retry_call_succeeds_after_transient_failures():
    env, stream = make_env()
    calls = []

    def attempt():
        calls.append(env.now)
        if len(calls) < 3:
            raise StoreUnavailableError("down")
        return "ok"

    result = run_retry(env, stream, attempt,
                       RetryPolicy(max_attempts=4, jitter=False))
    assert result == "ok"
    assert len(calls) == 3
    assert calls[1] > calls[0]  # backoff slept between attempts


def test_retry_call_exhausts_and_chains_last_error():
    env, stream = make_env()

    def attempt():
        raise StoreUnavailableError("always down")

    with pytest.raises(RetryExhaustedError) as exc_info:
        run_retry(env, stream, attempt, RetryPolicy(max_attempts=3))
    assert isinstance(exc_info.value.__cause__, StoreUnavailableError)


def test_retry_call_does_not_retry_semantic_errors():
    env, stream = make_env()
    calls = []

    def attempt():
        calls.append(env.now)
        raise DuplicateKeyError("j1")

    with pytest.raises(DuplicateKeyError):
        run_retry(env, stream, attempt, RetryPolicy(max_attempts=5))
    assert len(calls) == 1


def test_retry_call_awaits_event_attempts():
    env, stream = make_env()
    attempts = []

    def attempt():
        def op():
            yield env.timeout(0.5)
            attempts.append(env.now)
            if len(attempts) < 2:
                raise StoreUnavailableError("down")
            return "done"
        return env.process(op())

    result = run_retry(env, stream, attempt,
                       RetryPolicy(max_attempts=3, jitter=False))
    assert result == "done"
    assert len(attempts) == 2


def test_retry_call_raises_when_breaker_open():
    env, stream = make_env()
    breaker = CircuitBreaker(env, failure_threshold=1,
                             reset_timeout_s=100.0)
    breaker.record_failure()

    def attempt():
        raise AssertionError("must not be called")

    with pytest.raises(CircuitOpenError):
        run_retry(env, stream, attempt, RetryPolicy(), breaker=breaker)


def test_retry_call_feeds_breaker():
    env, stream = make_env()
    breaker = CircuitBreaker(env, failure_threshold=2,
                             reset_timeout_s=100.0)

    def attempt():
        raise StoreUnavailableError("down")

    with pytest.raises(RetryExhaustedError):
        run_retry(env, stream, attempt,
                  RetryPolicy(max_attempts=2, jitter=False),
                  breaker=breaker)
    assert breaker.state == "open"


def test_retry_call_reports_retries_via_callback():
    env, stream = make_env()
    seen = []
    state = {"calls": 0}

    def attempt():
        state["calls"] += 1
        if state["calls"] < 3:
            raise StoreUnavailableError("down")
        return "ok"

    run_retry(env, stream, attempt, RetryPolicy(max_attempts=4),
              on_retry=lambda attempt_no, err: seen.append(attempt_no))
    assert seen == [0, 1]
