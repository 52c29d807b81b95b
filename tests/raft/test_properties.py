"""Property-based tests for the Raft safety invariants.

Random fault schedules (crashes, restarts, partitions, proposals) are driven
against a cluster, then the classic Raft invariants are checked:

* Election safety: at most one leader per term.
* Log matching: if two logs share (index, term) they are identical up to it.
* State-machine safety: applied sequences are prefixes of one another.
"""

from hypothesis import given, settings, strategies as st

from repro.raft import CallbackStateMachine, RaftCluster
from repro.sim import Environment, RngRegistry

from tests.conftest import examples


class Tracker:
    def __init__(self):
        self.applied = {}

    def factory(self, node_id):
        self.applied[node_id] = []

        def apply(index, command):
            self.applied[node_id].append((index, command))
            return index

        def reset():
            self.applied[node_id].clear()

        return CallbackStateMachine(apply, reset)


ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["propose", "crash", "restart", "partition",
                         "heal", "wait"]),
        st.integers(min_value=0, max_value=4),
    ),
    min_size=1, max_size=12,
)


def run_schedule(actions, size, seed):
    env = Environment()
    tracker = Tracker()
    cluster = RaftCluster(env, RngRegistry(seed), tracker.factory, size=size)
    env.run(until=1.0)
    node_ids = cluster.node_ids()
    leaders_by_term = {}

    def snapshot_leaders():
        for node in cluster.nodes.values():
            if node.is_leader:
                leaders_by_term.setdefault(node.current_term,
                                           set()).add(node.node_id)

    counter = 0
    for action, arg in actions:
        snapshot_leaders()
        if action == "propose":
            leader = cluster.leader()
            if leader is not None:
                leader.propose(f"cmd-{counter}")
                counter += 1
        elif action == "crash":
            node = cluster.nodes[node_ids[arg % size]]
            if not node._crashed:
                node.crash()
        elif action == "restart":
            cluster.restart(node_ids[arg % size])
        elif action == "partition":
            split = 1 + arg % max(1, size - 1)
            cluster.network.partition(set(node_ids[:split]),
                                      set(node_ids[split:]))
        elif action == "heal":
            cluster.network.heal_all()
        env.run(until=env.now + 0.4)
        snapshot_leaders()
    # Heal and let the cluster converge.
    cluster.network.heal_all()
    for node_id in node_ids:
        cluster.restart(node_id)
    env.run(until=env.now + 3.0)
    snapshot_leaders()
    return cluster, tracker, leaders_by_term


@settings(max_examples=examples(25), deadline=None)
@given(actions=ACTIONS, seed=st.integers(min_value=0, max_value=100))
def test_election_safety(actions, seed):
    _cluster, _tracker, leaders_by_term = run_schedule(actions, 3, seed)
    for term, leaders in leaders_by_term.items():
        assert len(leaders) == 1, f"term {term} had leaders {leaders}"


@settings(max_examples=examples(25), deadline=None)
@given(actions=ACTIONS, seed=st.integers(min_value=0, max_value=100))
def test_log_matching(actions, seed):
    cluster, _tracker, _ = run_schedule(actions, 3, seed)
    logs = [node.log for node in cluster.nodes.values()]
    for i in range(len(logs)):
        for j in range(i + 1, len(logs)):
            a, b = logs[i], logs[j]
            for idx in range(min(len(a), len(b)) - 1, -1, -1):
                if a[idx].term == b[idx].term:
                    assert a[:idx + 1] == b[:idx + 1]
                    break


@settings(max_examples=examples(25), deadline=None)
@given(actions=ACTIONS, seed=st.integers(min_value=0, max_value=100))
def test_state_machine_safety(actions, seed):
    _cluster, tracker, _ = run_schedule(actions, 3, seed)
    sequences = sorted(tracker.applied.values(), key=len)
    for i in range(len(sequences) - 1):
        shorter, longer = sequences[i], sequences[i + 1]
        assert longer[:len(shorter)] == shorter


@settings(max_examples=examples(15), deadline=None)
@given(actions=ACTIONS, seed=st.integers(min_value=0, max_value=50))
def test_applied_indexes_are_gapless(actions, seed):
    _cluster, tracker, _ = run_schedule(actions, 3, seed)
    for node_id, entries in tracker.applied.items():
        indexes = [i for i, _c in entries]
        assert indexes == list(range(1, len(indexes) + 1)), node_id
