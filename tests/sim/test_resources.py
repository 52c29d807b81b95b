"""Unit tests for Store and FairShareLink."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, FairShareLink, Store


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    def producer():
        for i in range(3):
            yield env.timeout(1)
            store.put(i)

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [0, 1, 2]


def test_store_get_before_put_blocks():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, env.now))

    env.process(consumer())

    def producer():
        yield env.timeout(9)
        store.put("x")

    env.process(producer())
    env.run()
    assert got == [("x", 9.0)]


def test_store_len_counts_buffered_items():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    assert len(store) == 2


def test_fair_share_single_transfer_full_rate():
    env = Environment()
    link = FairShareLink(env, capacity_bps=100.0)
    times = []

    def sender():
        yield link.transfer(1000.0)
        times.append(env.now)

    env.process(sender())
    env.run(until=100)
    assert times == [pytest.approx(10.0)]


def test_fair_share_two_transfers_halve_rate():
    env = Environment()
    link = FairShareLink(env, capacity_bps=100.0)
    times = {}

    def sender(label, size):
        yield link.transfer(size)
        times[label] = env.now

    env.process(sender("a", 1000.0))
    env.process(sender("b", 1000.0))
    env.run(until=100)
    # Two equal transfers sharing 100 bps: both finish at 2x the solo time.
    assert times["a"] == pytest.approx(20.0)
    assert times["b"] == pytest.approx(20.0)


def test_fair_share_late_joiner_slows_first():
    env = Environment()
    link = FairShareLink(env, capacity_bps=100.0)
    times = {}

    def sender(label, size, start):
        yield env.timeout(start)
        yield link.transfer(size)
        times[label] = env.now

    env.process(sender("first", 1000.0, 0.0))
    env.process(sender("second", 1000.0, 5.0))
    env.run(until=200)
    # First moves 500 bytes alone in 5s, then shares: 500 left at 50 bps = 10s.
    assert times["first"] == pytest.approx(15.0)
    # Second: 10s shared (500 bytes) then 500 bytes alone at 100 bps = 5s.
    assert times["second"] == pytest.approx(20.0)


def test_fair_share_zero_size_completes_immediately():
    env = Environment()
    link = FairShareLink(env, capacity_bps=10.0)
    ev = link.transfer(0.0)
    assert ev.triggered


def test_fair_share_rejects_negative_size():
    env = Environment()
    link = FairShareLink(env, capacity_bps=10.0)
    with pytest.raises(SimulationError):
        link.transfer(-5)


def test_fair_share_tracks_bytes_transferred():
    env = Environment()
    link = FairShareLink(env, capacity_bps=100.0)

    def sender():
        yield link.transfer(300.0)

    env.process(sender())
    env.run(until=50)
    assert link.bytes_transferred == pytest.approx(300.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_fair_share_rejects_a_size_that_is_not_a_finite_amount(bad):
    # NaN used to pass the `< 0` check, vanish from the link without
    # ever completing and turn bytes_transferred into NaN.
    env = Environment()
    link = FairShareLink(env, capacity_bps=10.0)
    with pytest.raises(SimulationError):
        link.transfer(bad)
    assert link.active_transfers == 0


@pytest.mark.parametrize("bad", [float("nan"), 0.0, -1.0])
def test_fair_share_rejects_a_capacity_that_is_not_positive(bad):
    env = Environment()
    with pytest.raises(SimulationError):
        FairShareLink(env, capacity_bps=bad)
    link = FairShareLink(env, capacity_bps=10.0)
    with pytest.raises(SimulationError):
        link.set_capacity(bad)
    assert link.capacity_bps == 10.0


# -- kernel-event tripwires: nobody runs the link, it is one timer ------------


def test_fair_share_idle_link_holds_no_queued_event():
    env = Environment()
    link = FairShareLink(env, capacity_bps=100.0)
    assert env.events_scheduled == 0
    link.transfer(100.0)
    env.run()
    # One settle, one completion timer, one done event; then nothing.
    assert (env.now, env.events_processed, env.events_scheduled) == \
        (1.0, 3, 3)


def test_fair_share_arrivals_of_one_instant_share_a_settle_and_a_timer():
    env = Environment()
    link = FairShareLink(env, capacity_bps=100.0)
    link.transfer(1000.0)
    env.run(until=1.0)  # busy: one transfer in flight, its timer pending
    before = env.events_scheduled
    batch = [link.transfer(100.0) for _ in range(5)]
    assert env.events_scheduled - before == 1  # the settle, once
    env.run(until=1.0)
    assert env.events_scheduled - before == 2  # and the one new timer
    assert not any(done.triggered for done in batch)
    processed = env.events_processed
    env.run(until=7.0)  # 5 x 100 B at 100/6 B/s each: done at t=7
    assert [done.value for done in batch] == [7.0] * 5
    # A completion is the timer that counted and one done event per
    # finished transfer; the survivor's re-armed timer is pending.
    assert env.events_processed - processed == 1 + 5
    assert link.active_transfers == 1
    processed = env.events_processed
    env.run()
    # The timer the batch superseded (due at 10) fires dead, once; the
    # survivor's 800 B take until 15: its timer and its done event.
    assert (env.now, env.events_processed - processed) == (15.0, 1 + 2)


def test_fair_share_re_rating_supersedes_the_pending_timer():
    env = Environment()
    link = FairShareLink(env, capacity_bps=100.0)
    done = link.transfer(1000.0)
    env.run(until=5.0)
    link.set_capacity(50.0)
    link.set_capacity(250.0)  # same instant: still one settle
    env.run()
    # 500 B left at t=5, 250 B/s: done at 7; the first timer, due at
    # 10, fires dead and is the last thing in the queue.  Two settles,
    # two timers, one done event.
    assert done.value == 7.0
    assert (env.now, env.events_processed) == (10.0, 5)
    assert link.bytes_transferred == 1000.0
