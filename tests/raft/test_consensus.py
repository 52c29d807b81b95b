"""Integration tests for Raft leader election and log replication."""


from repro.errors import NotLeaderError
from repro.raft import CallbackStateMachine, LEADER, RaftCluster
from repro.sim import Environment, RngRegistry


class Recorder:
    """Per-node applied-command log, used as the replicated state machine."""

    def __init__(self):
        self.applied = {}  # node_id -> list of (index, command)

    def factory(self, node_id):
        self.applied[node_id] = []

        def apply(index, command):
            self.applied[node_id].append((index, command))
            return ("ok", command)

        def reset():
            self.applied[node_id].clear()

        return CallbackStateMachine(apply, reset)


def make_cluster(size=3, seed=0):
    env = Environment()
    rec = Recorder()
    cluster = RaftCluster(env, RngRegistry(seed), rec.factory, size=size)
    return env, cluster, rec


def test_elects_exactly_one_leader():
    env, cluster, _rec = make_cluster()
    env.run(until=2.0)
    leaders = [n for n in cluster.nodes.values() if n.state == LEADER]
    assert len(leaders) == 1


def test_single_node_cluster_elects_itself():
    env, cluster, _rec = make_cluster(size=1)
    env.run(until=1.0)
    assert cluster.leader() is not None


def test_proposal_applies_on_all_nodes():
    env, cluster, rec = make_cluster()
    env.run(until=1.0)
    proposal = cluster.propose({"op": "put", "key": "a"})
    env.run_until_complete(proposal, limit=env.now + 10)
    env.run(until=env.now + 1.0)
    for node_id, entries in rec.applied.items():
        assert entries == [(1, {"op": "put", "key": "a"})], node_id


def test_proposal_returns_apply_result():
    env, cluster, _rec = make_cluster()
    env.run(until=1.0)
    result = env.run_until_complete(cluster.propose("cmd"),
                                    limit=env.now + 10)
    assert result == ("ok", "cmd")
    # A commit takes a few network round trips of simulated time.
    assert env.now - 1.0 < 0.1


def test_proposals_apply_in_order():
    env, cluster, rec = make_cluster()
    env.run(until=1.0)
    for i in range(5):
        env.run_until_complete(cluster.propose(i), limit=env.now + 10)
    env.run(until=env.now + 1.0)
    for entries in rec.applied.values():
        assert [cmd for _idx, cmd in entries] == [0, 1, 2, 3, 4]
        assert [idx for idx, _cmd in entries] == [1, 2, 3, 4, 5]


def test_propose_to_follower_fails_fast():
    env, cluster, _rec = make_cluster()
    env.run(until=1.0)
    follower = next(n for n in cluster.nodes.values() if not n.is_leader)
    ev = follower.propose("nope")
    assert ev.triggered and not ev.ok
    assert isinstance(ev.value, NotLeaderError)


def test_new_leader_elected_after_leader_crash():
    env, cluster, _rec = make_cluster()
    env.run(until=1.0)
    old = cluster.crash_leader()
    assert old is not None
    env.run(until=env.now + 2.0)
    new_leader = cluster.leader()
    assert new_leader is not None
    assert new_leader.node_id != old


def test_cluster_survives_leader_crash_and_keeps_committing():
    env, cluster, rec = make_cluster()
    env.run(until=1.0)
    env.run_until_complete(cluster.propose("before"), limit=env.now + 10)
    cluster.crash_leader()
    env.run(until=env.now + 2.0)
    env.run_until_complete(cluster.propose("after"), limit=env.now + 10)
    env.run(until=env.now + 1.0)
    live = [n for n in cluster.nodes.values() if not n._crashed]
    for node in live:
        cmds = [cmd for _i, cmd in rec.applied[node.node_id]]
        assert cmds == ["before", "after"]


def test_restarted_node_catches_up():
    env, cluster, rec = make_cluster()
    env.run(until=1.0)
    victim = next(n for n in cluster.nodes.values() if not n.is_leader)
    victim.crash()
    for i in range(3):
        env.run_until_complete(cluster.propose(f"cmd-{i}"),
                               limit=env.now + 10)
    victim.restart()
    env.run(until=env.now + 2.0)
    cmds = [cmd for _i, cmd in rec.applied[victim.node_id]
            if isinstance(cmd, str) and cmd.startswith("cmd-")]
    assert cmds == ["cmd-0", "cmd-1", "cmd-2"]


def test_minority_partition_cannot_commit():
    env, cluster, _rec = make_cluster(size=3)
    env.run(until=1.0)
    leader = cluster.leader()
    others = [n for n in cluster.nodes if n != leader.node_id]
    # Isolate the leader from both followers.
    cluster.network.partition({leader.node_id}, set(others))
    ev = leader.propose("lost")
    env.run(until=env.now + 2.0)
    # The entry can never commit: either still pending or failed, and the
    # old leader must have been superseded by the majority side.
    assert not (ev.triggered and ev.ok)
    new_leader = cluster.leader()
    assert new_leader is not None
    assert new_leader.node_id != leader.node_id


def test_healed_partition_converges():
    env, cluster, rec = make_cluster(size=3)
    env.run(until=1.0)
    leader = cluster.leader()
    others = [n for n in cluster.nodes if n != leader.node_id]
    cluster.network.partition({leader.node_id}, set(others))
    leader.propose("orphan")  # uncommitted on old leader
    env.run(until=env.now + 2.0)
    env.run_until_complete(cluster.propose("winner"), limit=env.now + 10)
    cluster.network.heal_all()
    env.run(until=env.now + 3.0)
    # All nodes converge to the majority log: 'orphan' is gone everywhere.
    for node_id, entries in rec.applied.items():
        cmds = [c for _i, c in entries]
        assert "winner" in cmds
        assert "orphan" not in cmds


def test_terms_monotonically_increase_across_elections():
    env, cluster, _rec = make_cluster()
    env.run(until=1.0)
    term1 = cluster.leader().current_term
    cluster.crash_leader()
    env.run(until=env.now + 2.0)
    term2 = cluster.leader().current_term
    assert term2 > term1


def test_five_node_cluster_tolerates_two_crashes():
    env, cluster, rec = make_cluster(size=5)
    env.run(until=1.5)
    crashed = 0
    for node in list(cluster.nodes.values()):
        if crashed == 2:
            break
        if not node.is_leader:
            node.crash()
            crashed += 1
    env.run(until=env.now + 1.0)
    env.run_until_complete(cluster.propose("still-works"),
                           limit=env.now + 10)
    live = [n for n in cluster.nodes.values() if not n._crashed]
    assert len(live) == 3
    for node in live:
        env.run(until=env.now + 0.5)
        assert ("still-works" in
                [c for _i, c in rec.applied[node.node_id]])
