"""The candidate index: exhaustive examination, the (owner, node) count
index, invalidation, gang order and the node-indexed kubelet fanout.

Every scheduling attempt considers every node; the index re-evaluates
only the nodes that changed since the pod's class was last read.
"""

from repro.kube.api import KubeAPI
from repro.kube.objects import Node, NodeCapacity, ObjectMeta
from repro.sim import Environment

from tests.kube.conftest import make_cluster, make_pod, recount_owner_nodes


def _submit_and_run(env, cluster, pods):
    for pod in pods:
        cluster.api.create_pod(pod)
    env.run()


def test_exhaustive_mode_examines_every_node():
    env, cluster = make_cluster(nodes=5, gpus_per_node=4)
    pods = [make_pod(env, f"p{i}", gpus=1, duration=500.0)
            for i in range(3)]
    _submit_and_run(env, cluster, pods)
    scheduler = cluster.scheduler
    assert scheduler.pods_scheduled == 3
    # Every node is considered for every pod ...
    assert scheduler.filter_evals + scheduler.filter_cache_hits == 3 * 5
    # ... but visited only when new to the pod's class or changed since:
    # all five for the first pod, the node just bound to for the others.
    assert scheduler.nodes_examined == scheduler.filter_evals == 5 + 1 + 1


# -- (owner, node) count index ----------------------------------------------


def test_owner_node_index_tracks_bind_and_delete():
    env, cluster = make_cluster(nodes=2, gpus_per_node=8)
    scheduler = cluster.scheduler
    pods = []
    for i in range(6):
        pod = make_pod(env, f"owned-{i}", gpus=1, duration=300.0)
        pod.meta.owner = f"set-{i % 2}"
        pods.append(pod)
        cluster.api.create_pod(pod)
    env.run(until=50.0)
    assert scheduler.pods_scheduled == 6
    assert scheduler._owner_node_counts == recount_owner_nodes(cluster.api)
    # Deleting pods must decrement the exact (owner, node) pairs.
    cluster.delete_pod("owned-0")
    cluster.delete_pod("owned-3")
    env.run(until=100.0)
    assert scheduler._owner_node_counts == recount_owner_nodes(cluster.api)


def test_owner_index_ignores_ownerless_pods():
    env, cluster = make_cluster(nodes=2, gpus_per_node=8)
    scheduler = cluster.scheduler
    pods = [make_pod(env, f"p{i}", gpus=1, duration=300.0)
            for i in range(4)]
    for pod in pods:
        cluster.api.create_pod(pod)
    env.run(until=50.0)
    assert scheduler.pods_scheduled == 4
    # ``_score`` never asks about owner-less pods, so the index does
    # not hold them.
    assert scheduler._owner_node_counts == {}


def test_owner_index_scores_match_reference_scan():
    """The indexed same-owner count must equal what a ``list_pods``
    scan returns, pod for pod."""
    env, cluster = make_cluster(policy="spread", nodes=3, gpus_per_node=8)
    scheduler = cluster.scheduler
    for i in range(9):
        pod = make_pod(env, f"rep-{i}", gpus=1, duration=300.0)
        pod.meta.owner = "replicaset-a"
        cluster.api.create_pod(pod)
    env.run(until=50.0)
    assert scheduler.pods_scheduled == 9
    api = cluster.api
    for (owner, node), count in scheduler._owner_node_counts.items():
        assert count == len(api.list_pods(owner=owner, node_name=node))


# -- candidate-index invalidation ------------------------------------------
#
# Each way a node can change must reach the pod classes that already
# hold a verdict on it: the next pod of the class is ranked against the
# fresh value.


def _place(env, cluster, name, owner=None):
    pod = make_pod(env, name, gpus=1, duration=300.0)
    pod.meta.owner = owner
    cluster.api.create_pod(pod)
    env.run(until=env.now + 5.0)
    return pod.node_name


def test_score_cache_dropped_when_allocation_changes():
    env, cluster = make_cluster(policy="spread", nodes=2, gpus_per_node=8)
    scheduler = cluster.scheduler
    # Two empty nodes tie; the name breaks it.
    assert _place(env, cluster, "first") == "node-K80-1"
    assert scheduler.score_evals == 2
    # Binding reserved a GPU there.  Ranked against the scores computed
    # before the bind, the next pod would follow the first.
    assert _place(env, cluster, "second") == "node-K80-0"
    assert scheduler.score_evals == 3  # only the changed node


def test_node_event_invalidates_scores():
    env, cluster = make_cluster(nodes=2, gpus_per_node=8)
    assert _place(env, cluster, "first") == "node-K80-1"
    cluster.cordon("node-K80-1")
    assert _place(env, cluster, "while-cordoned") == "node-K80-0"
    cluster.uncordon("node-K80-1")
    # Pack: both hold one pod now; the name breaks the tie again.
    assert _place(env, cluster, "after") == "node-K80-1"


def test_owned_pod_binding_or_leaving_a_node_invalidates_its_scores():
    """The same-owner count feeds the score, and it moves when the bind
    commits and when the pod object is deleted — neither of which is an
    allocation change."""
    env, cluster = make_cluster(policy="spread", nodes=2, gpus_per_node=8)
    api = cluster.api
    assert _place(env, cluster, "a", owner="set-a") == "node-K80-1"
    # Three replicas appear on the other node without passing through
    # the scheduler: no reserve, so no allocation change.
    replicas = [make_pod(env, f"replica-{i}", gpus=0) for i in range(3)]
    for replica in replicas:
        replica.meta.owner = "set-a"
        api.create_pod(replica)
        api.bind_pod(replica, "node-K80-0")
    # -100 per replica: one is better than three.
    assert _place(env, cluster, "b", owner="set-a") == "node-K80-1"
    for replica in replicas:
        api.delete_pod(replica.name)
    # Two against none now; against the remembered three, "c" would
    # have followed "a" and "b".
    assert _place(env, cluster, "c", owner="set-a") == "node-K80-0"


def test_gang_view_keeps_node_order_when_a_node_re_enters():
    """BSA draws from the feasible names by position, so they come in
    node order — not in the order nodes last entered the table."""
    env, cluster = make_cluster(gang=True, nodes=3)
    probe = make_pod(env, "probe", gpus=1)
    names = [node.name for node in cluster.api.list_nodes()]

    def view(pod):
        return cluster.scheduler.feasible_nodes(pod.spec.resources,
                                                pod.spec.node_selector)

    assert view(probe) == names
    cluster.cordon(names[0])
    assert view(probe) == names[1:]
    cluster.uncordon(names[0])
    assert view(probe) == names


# -- node-indexed kubelet fanout -------------------------------------------


def test_pod_events_reach_only_the_matching_nodes_kubelet():
    env = Environment()
    api = KubeAPI(env)
    seen = []
    api.subscribe("pods", lambda verb, pod: seen.append(("general", verb)))
    api.subscribe_pods_for_node(
        "n1", lambda verb, pod: seen.append(("n1", verb)))
    api.subscribe_pods_for_node(
        "n2", lambda verb, pod: seen.append(("n2", verb)))
    api.create_node(Node(meta=ObjectMeta(name="n1"),
                         capacity=NodeCapacity(cpus=1, memory_gb=1)))
    pod = make_pod(env, "p0", gpus=0)
    api.create_pod(pod)          # unbound: general only
    api.bind_pod(pod, "n1")      # bound: general + n1
    api.delete_pod("p0")         # still carries node_name=n1
    general = [entry for entry in seen if entry[0] == "general"]
    assert [verb for _, verb in general] == \
        ["ADDED", "MODIFIED", "DELETED"]
    n1 = [entry for entry in seen if entry[0] == "n1"]
    n2 = [entry for entry in seen if entry[0] == "n2"]
    assert [verb for _, verb in n1] == ["MODIFIED", "DELETED"]
    assert n2 == []
