"""Unit tests for the simulated Raft network."""

import pytest

from repro.errors import SimulationError
from repro.raft import CallbackStateMachine, Network, RaftCluster
from repro.sim import Environment, RaceDetector, RngRegistry
from repro.sim.race import note_read, note_write


def make_net(drop=0.0):
    env = Environment()
    return env, Network(env, RngRegistry(0), drop_probability=drop)


def test_delivers_with_latency():
    env, net = make_net()
    got = []
    net.register("a", lambda src, msg: None)
    net.register("b", lambda src, msg: got.append((src, msg, env.now)))
    net.send("a", "b", "hello")
    env.run()
    assert len(got) == 1
    src, msg, when = got[0]
    assert (src, msg) == ("a", "hello")
    assert when > 0


def test_duplicate_registration_rejected():
    _env, net = make_net()
    net.register("a", lambda s, m: None)
    with pytest.raises(SimulationError):
        net.register("a", lambda s, m: None)


def test_down_node_receives_nothing():
    env, net = make_net()
    got = []
    net.register("a", lambda s, m: None)
    net.register("b", lambda s, m: got.append(m))
    net.take_down("b")
    net.send("a", "b", "x")
    env.run()
    assert got == []
    assert net.messages_dropped == 1


def test_bring_up_restores_delivery():
    env, net = make_net()
    got = []
    net.register("a", lambda s, m: None)
    net.register("b", lambda s, m: got.append(m))
    net.take_down("b")
    net.send("a", "b", "lost")
    net.bring_up("b")
    net.send("a", "b", "found")
    env.run()
    assert got == ["found"]


def test_cut_link_is_bidirectional():
    env, net = make_net()
    got = []
    net.register("a", lambda s, m: got.append(("a", m)))
    net.register("b", lambda s, m: got.append(("b", m)))
    net.cut("a", "b")
    net.send("a", "b", "1")
    net.send("b", "a", "2")
    env.run()
    assert got == []


def test_heal_restores_link():
    env, net = make_net()
    got = []
    net.register("a", lambda s, m: None)
    net.register("b", lambda s, m: got.append(m))
    net.cut("a", "b")
    net.heal("a", "b")
    net.send("a", "b", "x")
    env.run()
    assert got == ["x"]


def test_partition_cuts_cross_links_only():
    env, net = make_net()
    got = []
    for node in "abcd":
        net.register(node, lambda s, m, node=node: got.append((node, m)))
    net.partition({"a", "b"}, {"c", "d"})
    net.send("a", "b", "in-group")
    net.send("a", "c", "cross")
    env.run()
    assert got == [("b", "in-group")]


def test_message_in_flight_dropped_if_partitioned_mid_flight():
    env, net = make_net()
    got = []
    net.register("a", lambda s, m: None)
    net.register("b", lambda s, m: got.append(m))
    net.send("a", "b", "x")
    net.cut("a", "b")  # cut before delivery completes
    assert net.messages_dropped == 0  # still in flight: not yet a drop
    env.run()
    assert got == []
    assert net.messages_dropped == 1  # counted when delivery was due


def test_delivery_is_one_kernel_event():
    env, net = make_net()
    net.register("a", lambda s, m: None)
    net.register("b", lambda s, m: None)
    net.send("a", "b", "x")
    env.run()
    assert env.events_processed == 1


def test_handler_exception_surfaces_from_run():
    # A delivery is a timeout callback, not a process of its own, so a
    # raising handler stops the run instead of failing an event nobody
    # waits on.
    env, net = make_net()

    def broken(src, message):
        raise ValueError(f"cannot handle {message!r}")

    net.register("a", lambda s, m: None)
    net.register("b", broken)
    net.send("a", "b", "x")
    with pytest.raises(ValueError, match="cannot handle 'x'"):
        env.run()


def test_handler_store_access_is_visible_to_the_race_detector():
    # Deliveries run outside any process; the detector must still see a
    # handler's write as unordered against a same-instant client read.
    env = Environment()
    detector = RaceDetector(env)
    net = Network(env, RngRegistry(0), base_latency_s=0.002, jitter_s=0.0)
    net.register("a", lambda s, m: None)
    net.register("b", lambda s, m: note_write(env, "sm", m, "apply"))

    def client():
        yield env.timeout(0.002)
        note_read(env, "sm", "k", "client.get")

    env.process(client(), name="client")
    net.send("a", "b", "k")
    env.run()
    assert detector.render() == [
        "schedule-sensitive conflict on sm['k'] at t=0.002: write by "
        "'callback' at apply vs read by 'client' at client.get "
        "(no happens-before edge)"]


def test_drop_probability_drops_some():
    env, net = make_net(drop=0.5)
    got = []
    net.register("a", lambda s, m: None)
    net.register("b", lambda s, m: got.append(m))
    for i in range(200):
        net.send("a", "b", i)
    env.run()
    assert 40 < len(got) < 160


def test_unknown_destination_counts_as_drop():
    env, net = make_net()
    net.register("a", lambda s, m: None)
    net.send("a", "ghost", "x")
    env.run()
    assert net.messages_dropped == 1

# -- asymmetric partition semantics ----------------------------------------


def test_self_partition_is_noop():
    env, net = make_net()
    got = []
    net.register("a", lambda s, m: got.append(m))
    net.cut("a", "a")
    net.send("a", "a", "loopback")
    env.run()
    # A node cannot cut its own link: local delivery never crosses the
    # network.
    assert got == ["loopback"]
    assert net.is_reachable("a", "a")


def test_node_in_both_groups_loses_every_cross_link():
    env, net = make_net()
    inbox = {name: [] for name in "abc"}
    for name in "abc":
        net.register(name, lambda s, m, name=name: inbox[name].append(m))
    # "b" sits in both groups: the flaky-switch-port topology.
    net.partition({"a", "b"}, {"b", "c"})
    assert not net.is_reachable("a", "b")
    assert not net.is_reachable("c", "b")
    assert not net.is_reachable("a", "c")
    # ...but keeps its self-link.
    assert net.is_reachable("b", "b")
    net.send("a", "b", "x")
    net.send("c", "b", "y")
    net.send("b", "b", "self")
    env.run()
    assert inbox["b"] == ["self"]


def test_heal_restores_partitioned_pair():
    env, net = make_net()
    got = []
    net.register("a", lambda s, m: None)
    net.register("b", lambda s, m: got.append(m))
    net.partition({"a"}, {"b"})
    assert not net.is_reachable("a", "b")
    net.heal("a", "b")
    assert net.is_reachable("a", "b")
    net.send("a", "b", "after-heal")
    env.run()
    assert got == ["after-heal"]


def test_heal_all_leaves_a_crashed_node_down():
    # heal_all used to clear the down set too: a crashed follower's
    # endpoint came back, and a send to it drew a latency and reached a
    # handler that ignored it instead of counting as dropped.
    env = Environment()
    cluster = RaftCluster(env, RngRegistry(0), lambda _node_id:
                          CallbackStateMachine(lambda index, command: None))
    env.run(until=2.0)
    net, leader = cluster.network, cluster.leader()
    follower = next(node_id for node_id in cluster.node_ids()
                    if node_id != leader.node_id)
    cluster.crash(follower)
    net.partition({leader.node_id}, {follower})
    net.heal_all()
    assert net.is_reachable(leader.node_id, leader.node_id)
    dropped, position = net.messages_dropped, net.rng.getstate()
    net.send(leader.node_id, follower, "ping")
    assert net.messages_dropped == dropped + 1
    assert net.rng.getstate() == position
    cluster.restart(follower)
    assert net.is_reachable(leader.node_id, follower)
