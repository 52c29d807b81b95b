"""Unit tests for the KubeAPI object store and watch fan-out."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConflictError, ObjectNotFoundError
from repro.kube import KubeAPI, ObjectMeta, Pod, PodSpec
from repro.kube.objects import (
    KubeJob,
    Node,
    NodeCapacity,
    PodTemplate,
    ReplicaSet,
)
from repro.sim import Environment


@pytest.fixture
def api():
    return KubeAPI(Environment())


def pod(name):
    return Pod(meta=ObjectMeta(name=name), spec=PodSpec())


def test_create_and_get(api):
    api.create_pod(pod("a"))
    assert api.get_pod("a").name == "a"


def test_duplicate_create_conflicts(api):
    api.create_pod(pod("a"))
    with pytest.raises(ConflictError):
        api.create_pod(pod("a"))


def test_get_missing_raises(api):
    with pytest.raises(ObjectNotFoundError):
        api.get_pod("ghost")
    assert api.try_get_pod("ghost") is None


def test_delete_missing_raises(api):
    with pytest.raises(ObjectNotFoundError):
        api.delete_pod("ghost")


def test_subscribe_receives_lifecycle(api):
    events = []
    api.subscribe("pods", lambda verb, obj: events.append((verb,
                                                           obj.name)))
    api.create_pod(pod("a"))
    api.update_pod(api.get_pod("a"))
    api.delete_pod("a")
    assert events == [("ADDED", "a"), ("MODIFIED", "a"), ("DELETED", "a")]


def test_mark_for_deletion_is_idempotent(api):
    api.create_pod(pod("a"))
    modified = []
    api.subscribe("pods", lambda verb, obj: modified.append(verb))
    first = api.mark_pod_for_deletion("a")
    second = api.mark_pod_for_deletion("a")
    assert first is second
    assert modified.count("MODIFIED") == 1  # only the first mark notifies


def test_mark_missing_pod_returns_none(api):
    assert api.mark_pod_for_deletion("ghost") is None


def test_bind_deleting_pod_conflicts(api):
    api.create_pod(pod("a"))
    api.mark_pod_for_deletion("a")
    with pytest.raises(ConflictError):
        api.bind_pod(api.get_pod("a"), "node-1")


def test_list_pods_filters(api):
    learner = pod("learner-0")
    learner.meta.owner = "uid-x"
    learner.phase = "Running"
    learner.node_name = "n1"
    api.create_pod(learner)
    api.create_pod(pod("other"))
    assert [p.name for p in api.list_pods(owner="uid-x")] == ["learner-0"]
    assert [p.name for p in api.list_pods(phase="Running")] == \
        ["learner-0"]
    assert [p.name for p in api.list_pods(node_name="n1")] == \
        ["learner-0"]


def test_pod_phase_counts(api):
    running = pod("r")
    running.phase = "Running"
    api.create_pod(running)
    api.create_pod(pod("p"))
    counts = api.pod_phase_counts()
    assert counts["Running"] == 1
    assert counts["Pending"] == 1


def test_node_store(api):
    node = Node(meta=ObjectMeta(name="n1"),
                capacity=NodeCapacity(cpus=8, memory_gb=32))
    api.create_node(node)
    assert api.get_node("n1") is node
    assert api.list_nodes() == [node]


OWNER_KINDS = ("replicasets", "statefulsets", "deployments", "jobs")


def replicaset(name):
    return ReplicaSet(meta=ObjectMeta(name=name), replicas=1,
                      template=PodTemplate())


def test_find_by_uid_follows_delete_and_recreate(api):
    first = api.create_replicaset(replicaset("rs"))
    assert api.find_by_uid(OWNER_KINDS, first.meta.uid) is first
    api.delete_replicaset("rs")
    assert api.find_by_uid(OWNER_KINDS, first.meta.uid) is None
    second = api.create_replicaset(replicaset("rs"))  # same name, new uid
    assert second.meta.uid != first.meta.uid
    assert api.find_by_uid(OWNER_KINDS, second.meta.uid) is second
    assert api.find_by_uid(OWNER_KINDS, first.meta.uid) is None


def test_find_by_uid_honours_kinds(api):
    rs = api.create_replicaset(replicaset("rs"))
    job = api.create_job(KubeJob(meta=ObjectMeta(name="job"),
                                 template=PodTemplate()))
    assert api.find_by_uid(("jobs",), rs.meta.uid) is None
    assert api.find_by_uid(("replicasets",), job.meta.uid) is None
    assert api.find_by_uid(("jobs", "replicasets"), rs.meta.uid) is rs
    assert api.find_by_uid(("jobs",), job.meta.uid) is job
    assert api.find_by_uid((), rs.meta.uid) is None


def test_find_by_uid_never_returns_a_pod_for_owner_kinds(api):
    learner = api.create_pod(pod("learner-0"))
    assert api.find_by_uid(OWNER_KINDS, learner.meta.uid) is None
    assert api.find_by_uid(("pods",), learner.meta.uid) is learner
    api.delete_pod("learner-0")
    assert api.find_by_uid(("pods",), learner.meta.uid) is None


NODES = ["n1", "n2", "n3"]


@settings(max_examples=100, deadline=None)
@given(registrations=st.lists(st.sampled_from([None, *NODES]), max_size=12),
       bound_to=st.sampled_from([*NODES, "n4"]))
def test_pod_listeners_run_in_registration_order(registrations, bound_to):
    """Whatever the interleaving of general and per-node registrations,
    a pod event invokes every listener in registration order, node
    listeners filtered by ``pod.node_name`` ("n4" has none)."""
    api = KubeAPI(Environment())
    calls = []

    def listener(index):
        return lambda verb, obj: calls.append((index, verb, obj.name))

    for index, node_name in enumerate(registrations):
        if node_name is None:
            api.subscribe("pods", listener(index))
        else:
            api.subscribe_pods_for_node(node_name, listener(index))

    def expected(verb, obj):
        return [(index, verb, obj.name)
                for index, node_name in enumerate(registrations)
                if node_name is None or node_name == obj.node_name]

    bound, unbound = pod("bound"), pod("unbound")
    script = [
        (api.create_pod, (bound,), "ADDED", bound),      # not bound yet
        (api.create_pod, (unbound,), "ADDED", unbound),
        (api.bind_pod, (bound, bound_to), "MODIFIED", bound),
        (api.update_pod, (bound,), "MODIFIED", bound),
        (api.update_pod, (unbound,), "MODIFIED", unbound),
        (api.delete_pod, ("bound",), "DELETED", bound),  # keeps node_name
        (api.delete_pod, ("unbound",), "DELETED", unbound),
    ]
    for call, args, verb, obj in script:
        del calls[:]
        call(*args)
        assert calls == expected(verb, obj)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.tuples(st.booleans(), st.integers(0, 5),
                                st.sampled_from(["a", "b", None])),
                      max_size=30))
def test_list_pods_by_owner_is_the_scan_over_every_pod(steps):
    # Create (True) or delete (False) pod p<i>: a name deleted and
    # created again comes back last, under whatever owner it has now.
    api = KubeAPI(Environment())
    for create, index, owner in steps:
        name = f"p{index}"
        if create and not api.exists("pods", name):
            new = pod(name)
            new.meta.owner = owner
            api.create_pod(new)
        elif not create and api.exists("pods", name):
            api.delete_pod(name)
        for who in ("a", "b"):
            assert api.list_pods(owner=who) == \
                [p for p in api.list_pods() if p.meta.owner == who]
