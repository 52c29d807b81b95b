"""Raft's election / heartbeat timer: its cost, its inputs, its errors.

A node's timer is a deadline and at most one live ``Timeout``
(``RaftNode._due`` / ``_timer``); ``tests/raft/test_ticker_oracle.py``
compares it with the ticker process it replaced, and
``tests/raft/test_heartbeat_oracle.py`` an idle group's arithmetic
rounds with the events they replaced.  Here: what it costs in kernel
events, which timing parameters a node accepts, and that an exception
raised on the timer's path stops the run.
"""

import math
import random

import pytest

from repro.errors import ConsensusError, InvariantViolation
from repro.raft import (
    AppendEntries,
    CallbackStateMachine,
    Network,
    RaftCluster,
    RaftNode,
    RequestVote,
)
from repro.sim import Environment, RngRegistry
from repro.staticcheck import RaftInvariantChecker

from tests.golden import next_draw
from tests.raft.test_heartbeat_oracle import EventNetwork, EventNode


def machine(_node_id=None):
    return CallbackStateMachine(lambda index, command: command)


def idle_group(size=3):
    env = Environment()
    cluster = RaftCluster(env, RngRegistry(0), machine, size=size)
    env.run(until=2.0)
    return env, cluster


def after_draws(stream, n):
    peek = random.Random(0)
    peek.setstate(stream.getstate())
    for _ in range(n):
        peek.random()
    return peek.getstate()


# -- kernel events ------------------------------------------------------------


def test_an_idle_group_costs_no_kernel_event_per_heartbeat():
    # 1 000 idle seconds are 20 000 heartbeat rounds: arithmetic, and
    # sending and drawing exactly what the event form sent and drew.
    def idle_seconds(node_class, network_class):
        env, rng = Environment(), RngRegistry(0)
        network = network_class(env, rng)
        ids = ["n0", "n1", "n2"]
        for node_id in ids:
            node_class(env, rng, network, node_id, ids, machine())
        env.run(until=2.0)
        processed = env.events_processed
        env.run(until=1002.0)
        return (env.events_processed - processed, network.messages_sent,
                {name: next_draw(stream)
                 for name, stream in sorted(rng._streams.items())
                 if name.startswith("raft")})

    events, sent, draws = idle_seconds(RaftNode, Network)
    reference_events, *reference = idle_seconds(EventNode, EventNetwork)
    assert events == 0
    assert reference_events > 100_000
    assert [sent, draws] == reference


def test_three_kicks_in_one_kernel_event_draw_the_election_timeout_once():
    env, cluster = idle_group()
    leader = cluster.leader()
    follower = next(n for n in cluster.nodes.values() if n is not leader)
    heartbeat = AppendEntries(leader.current_term, leader.node_id,
                              follower.last_log_index,
                              follower.last_log_term, [],
                              follower.commit_index)

    def deliver(times, _timer):
        for _ in range(times):
            follower._on_message(leader.node_id, heartbeat)

    # The idle rounds before now drew from follower.rng too: apply them.
    env.settle()
    once = after_draws(follower.rng, 1)
    env.timeout(0.0).callbacks.append(lambda timer: deliver(3, timer))
    env.run(until=env.now)
    assert follower.rng.getstate() == once
    # In three kernel events they are three draws.
    thrice = after_draws(follower.rng, 3)
    for _ in range(3):
        env.timeout(0.0).callbacks.append(lambda timer: deliver(1, timer))
    env.run(until=env.now)
    assert follower.rng.getstate() == thrice


def test_a_crashed_node_keeps_no_timer_once_its_pending_one_fired():
    env, cluster = idle_group()
    follower = next(n for n in cluster.nodes.values() if not n.is_leader)
    follower.crash()
    env.run(until=follower._timer_at)
    assert follower._timer is None
    assert not any(follower._on_timer in event.callbacks
                   for *_key, event in env._queue)
    # A whole group down drains the queue.
    for node in cluster.nodes.values():
        node.crash()
    env.run(until=env.now + 10.0)
    assert env.events_scheduled == env.events_processed


# -- timing parameters --------------------------------------------------------


@pytest.mark.parametrize("election, heartbeat", [
    pytest.param((0.15, 0.30), 0.0, id="zero-heartbeat"),
    pytest.param((0.15, 0.30), -0.05, id="negative-heartbeat"),
    pytest.param((0.15, 0.30), math.nan, id="nan-heartbeat"),
    pytest.param((0.15, 0.30), 0.15, id="heartbeat-not-below-election"),
    pytest.param((math.nan, 0.30), 0.05, id="nan-election-lo"),
    pytest.param((0.15, math.nan), 0.05, id="nan-election-hi"),
    pytest.param((-0.30, -0.15), 0.05, id="negative-election"),
    pytest.param((0.30, 0.15), 0.05, id="inverted-election"),
    pytest.param((0.15, math.inf), 0.05, id="infinite-election"),
])
def test_timing_parameters_are_checked_at_construction(election, heartbeat):
    # With a zero heartbeat a leader re-broadcast forever at one instant
    # and env.run() never returned; a NaN, negative or inverted window
    # made Timeout raise where nobody waited, and the node never stood
    # for election again.
    env = Environment()
    with pytest.raises(ConsensusError):
        RaftNode(env, RngRegistry(0), Network(env, RngRegistry(0)), "n0",
                 ["n0"], machine(), election_timeout_s=election,
                 heartbeat_interval_s=heartbeat)
    with pytest.raises(ConsensusError):
        RaftCluster(Environment(), RngRegistry(0), machine,
                    election_timeout_s=election,
                    heartbeat_interval_s=heartbeat)


def test_a_fixed_election_timeout_is_accepted():
    env = Environment()
    cluster = RaftCluster(env, RngRegistry(0), machine, size=1,
                          election_timeout_s=(0.2, 0.2))
    env.run(until=0.2)
    assert cluster.leader() is not None


# -- errors on the timer's path -----------------------------------------------


def test_an_invariant_violation_in_a_timer_started_election_stops_the_run():
    # A single-node group elects itself inside the timer's callback.  The
    # ticker process used to fail an event nobody waited on: the run went
    # on and the violation was only on the checker's list.
    env = Environment()
    cluster = RaftCluster(env, RngRegistry(0), machine, size=1)
    checker = RaftInvariantChecker()
    checker.leaders_by_term[1] = "raft-9"
    cluster.attach_tracer(checker)
    with pytest.raises(InvariantViolation, match="ElectionSafety"):
        env.run(until=1.0)


def test_an_error_while_standing_for_election_stops_the_run():
    class NoVotes(Network):
        def send(self, src, dst, message):
            if isinstance(message, RequestVote):
                raise ConnectionError(f"{src} cannot reach {dst}")
            super().send(src, dst, message)

    env = Environment()
    network = NoVotes(env, RngRegistry(0))
    ids = ["a", "b", "c"]
    for node_id in ids:
        RaftNode(env, RngRegistry(0), network, node_id, ids, machine())
    with pytest.raises(ConnectionError, match="cannot reach"):
        env.run(until=1.0)
