"""Property-based tests for the simulation kernel."""

import ast
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st

import repro.sim
from repro.sim import Environment, FairShareLink
from repro.sim.core import NORMAL, OBSERVER, URGENT

from tests.conftest import examples


@settings(max_examples=examples(50), deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=1000.0),
                       min_size=1, max_size=30))
def test_events_fire_in_nondecreasing_time_order(delays):
    env = Environment()
    fired = []

    def proc(delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(proc(delay))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert env.now == pytest.approx(max(delays))


@settings(max_examples=examples(50), deadline=None)
@given(delays=st.lists(st.floats(min_value=0.01, max_value=100.0),
                       min_size=2, max_size=10))
def test_all_of_fires_at_max_any_of_at_min(delays):
    env = Environment()
    observed = {}

    def waiter():
        events_all = [env.timeout(d) for d in delays]
        yield env.all_of(events_all)
        observed["all"] = env.now

    def any_waiter():
        events_any = [env.timeout(d) for d in delays]
        yield env.any_of(events_any)
        observed["any"] = env.now

    env.process(waiter())
    env.process(any_waiter())
    env.run()
    assert observed["all"] == pytest.approx(max(delays))
    assert observed["any"] == pytest.approx(min(delays))


@settings(max_examples=examples(40), deadline=None)
@given(sizes=st.lists(st.floats(min_value=1.0, max_value=1e6),
                      min_size=1, max_size=12),
       capacity=st.floats(min_value=10.0, max_value=1e5))
def test_fair_share_conserves_bytes_and_bounds_rate(sizes, capacity):
    env = Environment()
    link = FairShareLink(env, capacity_bps=capacity)
    finish = {}

    def sender(index, size):
        yield link.transfer(size)
        finish[index] = env.now

    for i, size in enumerate(sizes):
        env.process(sender(i, size))
    env.run(until=1e9)
    assert len(finish) == len(sizes)
    # Conservation: all bytes moved.
    assert link.bytes_transferred == pytest.approx(sum(sizes), rel=1e-6)
    # Aggregate rate bound: total bytes / makespan <= capacity.
    makespan = max(finish.values())
    assert sum(sizes) / makespan <= capacity * (1 + 1e-6)
    # No transfer beats its solo time.
    for i, size in enumerate(sizes):
        assert finish[i] >= size / capacity * (1 - 1e-9)


@settings(max_examples=examples(40), deadline=None)
@given(st.data())
def test_fair_share_equal_transfers_finish_together(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    size = data.draw(st.floats(min_value=10.0, max_value=1e5))
    env = Environment()
    link = FairShareLink(env, capacity_bps=1000.0)
    finish = []

    def sender():
        yield link.transfer(size)
        finish.append(env.now)

    for _ in range(n):
        env.process(sender())
    env.run(until=1e9)
    assert len(finish) == n
    assert max(finish) - min(finish) < 1e-6
    assert max(finish) == pytest.approx(n * size / 1000.0)


# -- the single event path against a sort oracle ------------------------------

#: One node of a random program: ``(kind, delay, priority, children)``.
#: Firing a node schedules its children, so a zero delay (or a plain
#: event, always URGENT at the current time) lands in the very instant
#: being drained.  Few distinct delays: ties are the point.  ``at`` is
#: ``timeout_at(now + delay)``: the same queue, seq counter and slot.
_KIND = st.sampled_from(["timeout", "event", "at"])
_DELAY = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0])
_PRIORITY = st.sampled_from([URGENT, NORMAL, OBSERVER])
_NODE = st.recursive(
    st.tuples(_KIND, _DELAY, _PRIORITY, st.just(())),
    lambda children: st.tuples(_KIND, _DELAY, _PRIORITY,
                               st.lists(children, max_size=3)),
    max_leaves=20)


def _drive_by_step(env, _fired):
    while env._queue:
        env.step()
        assert env.events_scheduled == \
            env.events_processed + len(env._queue)
        assert env.heap_pushes == env.events_scheduled


def _play(program, tiebreak_seed, drive):
    """Run ``program``; every firing must be the minimum ``(time,
    priority, permuted seq)`` among the events pending at that moment
    (kept in a plain list, not a heap).  Returns the fired keys."""
    env = Environment(tiebreak_seed=tiebreak_seed)
    pending, fired = [], []

    def schedule(node):
        kind, delay, priority, children = node
        raw = env.events_scheduled
        seq = env._permute_seq(raw) if tiebreak_seed else raw
        if kind == "event":
            delay, priority = 0.0, URGENT
            event = env.event()
        elif kind == "at":
            priority = NORMAL
            event = env.timeout_at(env.now + delay)
        else:
            event = env.timeout(delay, priority=priority)
        key = (env.now + delay, priority, seq)
        pending.append(key)

        def fire(_event):
            assert key == min(pending)
            pending.remove(key)
            fired.append(key)
            assert env.now == key[0]
            for child in children:
                schedule(child)

        event.callbacks.append(fire)
        if kind == "event":
            event.succeed()

    for node in program:
        schedule(node)
    drive(env, fired)
    assert not pending and not env._queue
    assert env.events_processed == env.events_scheduled == len(fired)
    assert env.heap_pushes == env.events_scheduled
    return fired


@settings(max_examples=examples(60), deadline=None)
@given(program=st.lists(_NODE, min_size=1, max_size=6),
       tiebreak_seed=st.sampled_from([0, 1, 7]),
       until=st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]))
def test_single_event_path_fires_in_sorted_key_order(program, tiebreak_seed,
                                                     until):
    stepped = _play(program, tiebreak_seed, _drive_by_step)

    def run_in_two_legs(env, fired):
        env.run(until=until)
        assert env.now == until
        assert all(key[0] <= until for key in fired)
        assert all(entry[0] > until for entry in env._queue)
        assert env.events_scheduled == \
            env.events_processed + len(env._queue)
        env.run()

    # step(), run() and run(until=) are one loop: same firing sequence.
    assert _play(program, tiebreak_seed,
                 lambda env, fired: env.run()) == stepped
    assert _play(program, tiebreak_seed, run_in_two_legs) == stepped


def test_sim_layer_imports_nothing_from_perf():
    # The profiler attaches to the kernel from outside; the kernel
    # itself must not depend on it.
    for path in sorted(Path(repro.sim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name == "repro.perf"
                           or name.startswith("repro.perf.")
                           for name in names), f"{path.name} imports {names}"
