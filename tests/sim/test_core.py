"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Interrupt
from repro.sim.core import OBSERVER, URGENT


def test_timeout_advances_clock():
    env = Environment()
    fired = []

    def proc():
        yield env.timeout(5.0)
        fired.append(env.now)

    env.process(proc())
    env.run()
    assert fired == [5.0]
    assert env.now == 5.0


def test_timeouts_fire_in_order():
    env = Environment()
    order = []

    def proc(delay, label):
        yield env.timeout(delay)
        order.append(label)

    env.process(proc(3, "c"))
    env.process(proc(1, "a"))
    env.process(proc(2, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    env = Environment()
    order = []

    def proc(label):
        yield env.timeout(1.0)
        order.append(label)

    for label in "abcd":
        env.process(proc(label))
    env.run()
    assert order == list("abcd")


def test_timeout_fills_every_event_slot():
    # Timeout.__init__ does not call Event.__init__; a slot added to
    # Event must be added there too.
    env = Environment()
    plain, timeout = env.event(), env.timeout(1, value="v")
    for slot in type(plain).__slots__:
        assert hasattr(timeout, slot), slot
    assert (timeout.triggered, timeout.ok, timeout.value) == (True, True, "v")
    assert timeout.callbacks == [] and timeout.env is env


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_nan_timeout_rejected_rather_than_stalling_the_run():
    # NaN compares false with everything: "delay < 0" let it through,
    # the entry sorted nowhere, reached the heap root and made run()
    # return with later timers still queued and no error.
    env = Environment()
    fired = []
    for delay in (1.0, float("nan"), 0.5):
        try:
            env.timeout(delay).callbacks.append(
                lambda _event, delay=delay: fired.append(delay))
        except SimulationError:
            fired.append("rejected")
    env.run()
    assert fired == ["rejected", 0.5, 1.0]
    assert env.now == 1.0 and not env._queue
    with pytest.raises(SimulationError):
        env.timeout_at(float("nan"))


def test_timeout_at_fires_at_exactly_the_instant_given():
    env = Environment()
    env.run(until=0.0005)
    when = env.now
    for _ in range(5):
        when += 0.001
    # The case a relative timeout gets wrong: when > 2 * now.
    assert when == 0.0055000000000000005
    assert env.now + (when - env.now) == 0.005500000000000001
    timer = env.timeout_at(when, value="v")
    assert (timer.triggered, timer.ok, timer.value) == (True, True, "v")
    for slot in type(env.event()).__slots__:
        assert hasattr(timer, slot), slot
    fired = []
    timer.callbacks.append(lambda _event: fired.append(env.now))
    env.run()
    assert fired == [when]


def test_timeout_at_is_a_normal_timeout_in_line_with_the_others():
    env = Environment()
    order = []

    def note(label):
        return lambda _event: order.append(label)

    env.timeout(1.0, priority=OBSERVER).callbacks.append(note("observer"))
    env.timeout(1.0).callbacks.append(note("first"))
    env.timeout_at(1.0).callbacks.append(note("at"))
    env.timeout(1.0).callbacks.append(note("last"))
    env.timeout(1.0, priority=URGENT).callbacks.append(note("urgent"))
    env.run()
    assert order == ["urgent", "first", "at", "last", "observer"]
    assert env.events_scheduled == env.events_processed == 5


def test_timeout_at_rejects_a_past_instant():
    env = Environment()
    env.run(until=2.0)
    with pytest.raises(SimulationError):
        env.timeout_at(1.999)
    env.timeout_at(2.0)  # now itself is fine
    assert env.events_scheduled == 1


# -- tie-break permutation -------------------------------------------------


def _tie_order(tiebreak_seed, labels="abcdefgh"):
    """Fire len(labels) simultaneous timeouts; return completion order."""
    env = Environment(tiebreak_seed=tiebreak_seed)
    order = []

    def proc(label):
        yield env.timeout(1.0)
        order.append(label)

    for label in labels:
        env.process(proc(label))
    env.run()
    return order


def test_negative_tiebreak_seed_rejected():
    with pytest.raises(SimulationError):
        Environment(tiebreak_seed=-1)


def test_perturbed_seed_actually_permutes_ties():
    fifo = _tie_order(0)
    assert fifo == list("abcdefgh")
    permuted = _tie_order(1)
    assert sorted(permuted) == sorted(fifo)
    assert permuted != fifo


def test_perturbed_order_is_deterministic():
    assert _tie_order(7) == _tie_order(7)
    assert _tie_order(7) != _tie_order(8)


def test_perturbed_seed_still_respects_time_ordering():
    env = Environment(tiebreak_seed=5)
    order = []

    def proc(delay, label):
        yield env.timeout(delay)
        order.append(label)

    env.process(proc(3, "c"))
    env.process(proc(1, "a"))
    env.process(proc(2, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_observer_timeout_fires_after_normal_events_of_same_tick():
    from repro.sim.core import OBSERVER

    for seed in (0, 1, 2, 3):
        env = Environment(tiebreak_seed=seed)
        order = []

        def observer():
            yield env.timeout(1.0, priority=OBSERVER)
            order.append("observer")

        def worker(label):
            yield env.timeout(1.0)
            order.append(label)

        env.process(observer())
        for label in "abc":
            env.process(worker(label))
        env.run()
        # Whatever the tie-break seed does to a/b/c, the observer
        # samples the settled tick: it always runs last.
        assert order[-1] == "observer"
        assert sorted(order[:-1]) == list("abc")


def test_run_until_stops_clock():
    env = Environment()
    seen = []

    def proc():
        while True:
            yield env.timeout(10)
            seen.append(env.now)

    env.process(proc())
    env.run(until=35)
    assert seen == [10, 20, 30]
    assert env.now == 35


def test_run_until_in_past_rejected():
    env = Environment(initial_time=100)
    with pytest.raises(SimulationError):
        env.run(until=50)


def test_process_waits_on_process():
    env = Environment()
    trace = []

    def child():
        yield env.timeout(4)
        trace.append("child")
        return 42

    def parent():
        value = yield env.process(child())
        trace.append(("parent", value, env.now))

    env.process(parent())
    env.run()
    assert trace == ["child", ("parent", 42, 4.0)]


def test_yield_already_completed_process():
    env = Environment()
    results = []

    def quick():
        yield env.timeout(1)
        return "done"

    def waiter(proc):
        yield env.timeout(10)
        value = yield proc
        results.append((env.now, value))

    proc = env.process(quick())
    env.process(waiter(proc))
    env.run()
    assert results == [(10.0, "done")]


def test_event_succeed_value_delivered():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        value = yield ev
        got.append(value)

    env.process(waiter())

    def trigger():
        yield env.timeout(2)
        ev.succeed("payload")

    env.process(trigger())
    env.run()
    assert got == ["payload"]


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as err:
            caught.append(str(err))

    env.process(waiter())

    def trigger():
        yield env.timeout(1)
        ev.fail(ValueError("boom"))

    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_any_of_fires_on_first():
    env = Environment()
    results = []

    def waiter():
        t1 = env.timeout(5, "slow")
        t2 = env.timeout(2, "fast")
        yield env.any_of([t1, t2])
        results.append(env.now)

    env.process(waiter())
    env.run()
    assert results == [2.0]


def test_all_of_waits_for_every_event():
    env = Environment()
    results = []

    def waiter():
        events = [env.timeout(d) for d in (1, 4, 3)]
        yield env.all_of(events)
        results.append(env.now)

    env.process(waiter())
    env.run()
    assert results == [4.0]


def test_all_of_empty_fires_immediately():
    env = Environment()
    results = []

    def waiter():
        yield env.all_of([])
        results.append(env.now)

    env.process(waiter())
    env.run()
    assert results == [0.0]


def test_interrupt_raises_in_process():
    env = Environment()
    trace = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as intr:  # staticcheck: ignore[SAF001] test asserts interrupt delivery
            trace.append(("interrupted", intr.cause, env.now))

    proc = env.process(victim())

    def killer():
        yield env.timeout(7)
        proc.interrupt("crash")

    env.process(killer())
    env.run()
    assert trace == [("interrupted", "crash", 7.0)]


def test_interrupted_process_can_rewait():
    env = Environment()
    trace = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt:  # staticcheck: ignore[SAF001] test asserts re-wait after interrupt
            trace.append("hit")
        yield env.timeout(5)
        trace.append(env.now)

    proc = env.process(victim())

    def killer():
        yield env.timeout(3)
        proc.interrupt()

    env.process(killer())
    env.run()
    assert trace == ["hit", 8.0]


def test_stale_wakeup_after_interrupt_is_ignored():
    env = Environment()
    trace = []

    def victim():
        try:
            yield env.timeout(10)
            trace.append("should-not-happen")
        except Interrupt:  # staticcheck: ignore[SAF001] test asserts stale wakeup is dropped
            pass
        yield env.timeout(50)
        trace.append(env.now)

    proc = env.process(victim())

    def killer():
        yield env.timeout(1)
        proc.interrupt()

    env.process(killer())
    env.run()
    # The abandoned t=10 timeout must not resume the process early.
    assert trace == [51.0]


def test_interrupt_dead_process_is_noop():
    env = Environment()

    def victim():
        yield env.timeout(1)

    proc = env.process(victim())
    env.run()
    proc.interrupt()  # must not raise
    assert proc.triggered


def test_process_exception_propagates_to_waiter():
    env = Environment()
    caught = []

    def failing():
        yield env.timeout(1)
        raise RuntimeError("inner")

    def parent():
        try:
            yield env.process(failing())
        except RuntimeError as err:
            caught.append(str(err))

    env.process(parent())
    env.run()
    assert caught == ["inner"]


def test_run_until_complete_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(3)
        return "ok"

    assert env.run_until_complete(env.process(proc())) == "ok"


def test_run_until_complete_returns_before_the_process_event_fires():
    # The process has triggered, but its own termination event is still
    # queued: a waiter on it has not run.  Firing it here instead would
    # move events_processed in every recorded digest.
    env = Environment()
    woken = []

    def proc():
        yield env.timeout(3)
        return "ok"

    process = env.process(proc())
    process.callbacks.append(lambda event: woken.append(event.value))
    assert env.run_until_complete(process) == "ok"
    assert woken == []
    assert env.now == 3
    assert len(env._queue) == 1 and env._queue[0][3] is process
    assert env.events_processed == env.events_scheduled - 1
    env.run()
    assert woken == ["ok"]
    assert env.events_processed == env.events_scheduled


def test_run_until_complete_respects_limit():
    env = Environment()

    def proc():
        yield env.timeout(10)

    with pytest.raises(SimulationError, match="did not finish by t=5"):
        env.run_until_complete(env.process(proc()), limit=5)
    # The refused event stays queued and the clock is not moved to it.
    assert env.now == 0 and len(env._queue) == 1


def test_run_until_complete_raises_on_failure():
    env = Environment()

    def proc():
        yield env.timeout(1)
        raise KeyError("nope")

    with pytest.raises(KeyError):
        env.run_until_complete(env.process(proc()))


def test_run_until_complete_detects_deadlock():
    env = Environment()

    def proc():
        yield env.event()  # never fires

    with pytest.raises(SimulationError, match="deadlock"):
        env.run_until_complete(env.process(proc()))


def test_yield_non_event_is_error():
    env = Environment()

    def bad():
        yield 42

    proc = env.process(bad())
    env.run()
    assert not proc.ok
    assert isinstance(proc.value, SimulationError)
