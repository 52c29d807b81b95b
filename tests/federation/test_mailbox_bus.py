"""Unit tests for the deterministic Mailbox merge and the FederationBus."""

from collections import deque

import pytest

from repro.errors import CellUnavailableError, SimulationError
from repro.federation import FederationBus
from repro.sim import Environment, RngRegistry
from repro.sim.mailbox import Mailbox


# -- Mailbox ---------------------------------------------------------------


def test_same_instant_puts_merge_in_key_order_not_put_order():
    env = Environment()
    mailbox = Mailbox(env)
    got = []

    def getter():
        while len(got) < 3:
            item = yield mailbox.get()
            got.append(item)

    env.process(getter())
    # Puts in deliberately scrambled key order, all at t=0.
    mailbox.put("from-b", key=("b", 0))
    mailbox.put("from-a-second", key=("a", 1))
    mailbox.put("from-a-first", key=("a", 0))
    env.run(until=1.0)
    assert got == ["from-a-first", "from-a-second", "from-b"]


def test_items_invisible_until_the_instant_settles():
    env = Environment()
    mailbox = Mailbox(env)
    mailbox.put("x", key=("a", 0))
    # Not yet settled (no kernel step has run): a getter at this exact
    # point must still see the canonical merge, not the raw put.
    assert len(mailbox) == 1
    got = env.run_until_complete(env.process(iter_get(env, mailbox)),
                                 limit=1.0)
    assert got == "x"


def iter_get(env, mailbox):
    item = yield mailbox.get()
    return item


def test_duplicate_merge_key_rejected():
    env = Environment()
    mailbox = Mailbox(env)
    mailbox.put("x", key=("a", 0))
    with pytest.raises(SimulationError):
        mailbox.put("y", key=("a", 0))


def test_a_drained_mailbox_keeps_no_per_message_state():
    """A merge key need only be unique among one instant's puts, so
    10 000 messages over as many instants leave nothing behind once
    they are taken: no delivered key, no settled batch."""
    env = Environment()
    mailbox = Mailbox(env)
    got = []

    def getter():
        for _ in range(10_000):
            got.append((yield mailbox.get()))

    def put_at(seq):
        env.timeout(float(seq)).callbacks.append(
            lambda _event: mailbox.put(seq, key=("a", seq)))

    env.process(getter())
    for seq in range(10_000):
        put_at(seq)
    env.run()
    assert got == list(range(10_000))
    held = {name: len(value) for name, value in vars(mailbox).items()
            if isinstance(value, (deque, dict, list, set))}
    assert held and not any(held.values()), held


# -- FederationBus ---------------------------------------------------------


def make_bus(seed=0):
    env = Environment()
    bus = FederationBus(env, RngRegistry(seed))
    return env, bus


def test_bus_latency_is_strictly_positive_and_fixed_per_link():
    env, bus = make_bus()
    first = bus.link_latency_s("a", "b")
    assert first > 0.0
    assert bus.link_latency_s("a", "b") == first
    # The reply leg is its own link with its own (positive) latency.
    assert bus.link_latency_s("b", "a") > 0.0


def test_bus_latency_independent_of_first_use_order():
    env1, bus1 = make_bus()
    env2, bus2 = make_bus()
    lat_ab_1 = bus1.link_latency_s("a", "b")
    bus2.link_latency_s("x", "y")  # touch another link first
    assert bus2.link_latency_s("a", "b") == lat_ab_1


def test_call_round_trips_and_pays_latency():
    env, bus = make_bus()
    bus.register("svc")

    def flow():
        result = yield bus.call("client", "svc", lambda: 41 + 1)
        return result, env.now

    result, when = env.run_until_complete(env.process(flow()), limit=5)
    assert result == 42
    assert when >= (bus.link_latency_s("client", "svc")
                    + bus.link_latency_s("svc", "client"))
    assert bus.stats.messages == 1
    assert bus.stats.replies == 1


def test_call_propagates_action_failure():
    env, bus = make_bus()
    bus.register("svc")

    def boom():
        raise CellUnavailableError("dark")

    def flow():
        return (yield bus.call("client", "svc", boom))

    with pytest.raises(CellUnavailableError):
        env.run_until_complete(env.process(flow()), limit=5)
    assert bus.stats.failures == 1


def test_one_way_send_runs_at_destination():
    env, bus = make_bus()
    bus.register("svc")
    seen = []
    bus.send("client", "svc", lambda: seen.append(env.now))
    assert seen == []  # nothing runs before the link latency elapses
    env.run(until=1.0)
    assert len(seen) == 1 and seen[0] > 0.0


def test_destination_drains_serially_in_sender_seq_order():
    """Two same-instant sends from one sender arrive in seq order and
    their handlers never interleave."""
    env, bus = make_bus()
    bus.register("svc")
    order = []
    bus.send("client", "svc", lambda: order.append("first"))
    bus.send("client", "svc", lambda: order.append("second"))
    env.run(until=1.0)
    assert order == ["first", "second"]


def test_unknown_destination_rejected():
    env, bus = make_bus()
    with pytest.raises(SimulationError):
        bus.send("client", "nowhere", lambda: None)
