"""Property-based tests for scheduler safety invariants.

Random pod workloads (sizes, arrival order, deletions, node events) must
never violate:

* no node is ever over-allocated (GPUs, CPUs, memory),
* every Running pod is bound to a Ready node that fits it,
* released resources return exactly to capacity once the cluster drains,
* at every scheduling attempt the candidate index hands out what a fresh
  evaluation of every node gives - in ``(score, name)`` order, or as BSA
  bias weights and draw lists in node order - the (owner, node) index a
  recount, and ``best_node`` the brute-force best,
* at every failed attempt the FailedScheduling summary from the index's
  counts is what a fresh scan of every node says,
* at every step every queued pod is in exactly one scheduling unit, and
  with gang scheduling off the units are exactly the queued pods, one
  each.
"""

from hypothesis import example, given, settings, strategies as st

from repro.docker import Image
from repro.kube import Cluster, NodeCapacity, SchedulerConfig
from repro.kube.events import (
    PREDICATE_INSUFFICIENT_GPU,
    PREDICATE_MATCH_NODE_SELECTOR,
    PREDICATE_NODE_UNSCHEDULABLE,
)
from repro.kube.objects import ContainerSpec, ObjectMeta, Pod, PodSpec
from repro.kube.resources import ResourceRequest
from repro.kube.scheduling.bsa import ALPHA, bias_weight
from repro.kube.scheduling.placement import class_key
from repro.kube.scheduling.policies import score_node
from repro.sim import Environment, RngRegistry

from tests.conftest import examples
from tests.kube.conftest import fresh_summary, make_pod, recount_owner_nodes


POD_SPECS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),   # gpus
        # cpus; repeated values make pods share a class
        st.one_of(st.sampled_from([1.0, 2.0]),
                  st.floats(min_value=0.5, max_value=8.0)),
        st.integers(min_value=5, max_value=60),  # duration
        st.booleans(),                            # delete mid-run?
        st.sampled_from([None, "set-a", "set-b"]),  # owner
    ),
    min_size=1, max_size=15,
)
CAPACITY = NodeCapacity(cpus=16, memory_gb=64, gpus=4, gpu_type="K80")


def build(seed, gang=False, policy="pack"):
    """Three nodes: the invalidation journal is cut after 22 entries, so
    a run of a few pods already retires classes."""
    env = Environment()
    cluster = Cluster(env, RngRegistry(seed),
                      SchedulerConfig(policy=policy, gang=gang),
                      node_detection_latency_s=4.0,
                      pod_eviction_timeout_s=4.0,
                      terminal_pod_gc_ttl_s=30.0)
    cluster.push_image(Image("learner", size_bytes=1e6))
    cluster.add_nodes(3, CAPACITY)
    check_index_at_every_attempt(cluster)
    return env, cluster


def fresh_table(cluster, request, selector, scored):
    """The exhaustive loop the index replaced, kept as the reference:
    every node through the predicates and the score (for an owner with
    no pod on it) or, unscored, BSA's bias weight, in node order."""
    scheduler = cluster.scheduler
    counters = scheduler.filter_evals, scheduler.score_evals
    table = {}
    for node in cluster.api.list_nodes():
        allocation = scheduler._node_fits(request, selector, node.name)
        if allocation is not None:
            table[node.name] = (
                scheduler._score(request, allocation),
                node.name) if scored else bias_weight(
                    allocation, request, ALPHA, scheduler.objective)
    scheduler.filter_evals, scheduler.score_evals = counters
    return table


def brute_force_best(cluster, request, selector, owner):
    """The node ``best_node`` must return: the highest ``(score, name)``
    over every node that fits, each scored with the same-owner count a
    recount of the pod store gives."""
    scheduler = cluster.scheduler
    counts = recount_owner_nodes(cluster.api)
    filter_evals = scheduler.filter_evals
    best = None
    for node in cluster.api.list_nodes():
        allocation = scheduler._node_fits(request, selector, node.name)
        if allocation is not None:
            candidate = (score_node(scheduler.policy, request, allocation,
                                    counts.get((owner, node.name), 0)),
                         node.name)
            best = candidate if best is None else max(best, candidate)
    scheduler.filter_evals = filter_evals
    return best and best[1]


def check_index_at_every_attempt(cluster):
    """Wrap the scheduler's reads of the candidate index.  Each time an
    attempt reads it, the table handed out must equal a fresh
    evaluation of every node, a scored class's order the sorted fresh
    table, a gang class's draw lists its table in node order, the
    (owner, node) index a recount of the pod store, and the node
    ``best_node`` picks the brute-force best for the pod's owner.  Each
    failed attempt's summary must be what a fresh scan of every node
    says."""
    scheduler, api = cluster.scheduler, cluster.api
    read, read_lists, best = (scheduler._feasible_candidates,
                              scheduler._gang_lists, scheduler.best_node)

    def checked_read(request, selector, scored, key=None):
        # A key taken at the pod's creation still names its class.
        assert key in (None, class_key(request, selector, scored))
        assert scheduler._owner_node_counts == recount_owner_nodes(api)
        entry = read(request, selector, scored, key)
        ranked = entry.ranked
        fresh = fresh_table(cluster, request, selector, scored)
        names = [node.name for node in api.list_nodes()]
        assert list(scheduler._nodes) == names
        stale = scheduler._pod_class(request, selector, scored).stale
        for name in names:
            if name not in stale:
                assert ranked.get(name) == fresh.get(name), name
        assert not stale
        assert ranked == fresh
        if scored:
            assert entry.order == sorted(fresh.values())
        return entry

    def checked_best(request, selector, owner=None, key=None):
        name = best(request, selector, owner, key)
        assert name == brute_force_best(cluster, request, selector, owner)
        return name

    def checked_lists(entry):
        # ``entry.ranked`` was checked against the fresh table by the
        # read that brought it up to date, just before.
        names, weights, slot = read_lists(entry)
        assert names == [node.name for node in api.list_nodes()
                         if node.name in entry.ranked]
        assert weights == [entry.ranked[name] for name in names]
        assert slot == {name: i for i, name in enumerate(names)}
        return names, weights, slot

    summary = scheduler._predicate_summary

    def checked_summary(pod):
        said = summary(pod)
        assert said == fresh_summary(cluster, pod)
        checked_summary.calls += 1
        return said

    checked_summary.calls = 0
    scheduler._feasible_candidates = checked_read
    scheduler.best_node = checked_best
    scheduler._gang_lists = checked_lists
    scheduler._predicate_summary = checked_summary


def index_held(cluster):
    """A failed assertion in ``checked_read`` ends the scheduler process,
    not the test; re-raise it from here."""
    loop = cluster.scheduler._loop
    if not loop.is_alive:
        raise loop.value


def units_hold(cluster):
    """Every queued pod is in exactly one unit (a gang's unit may still
    list members dequeued since its last attempt); with gang scheduling
    off the units are exactly the queued pods, one each."""
    scheduler = cluster.scheduler
    members = [name for unit in scheduler._units.values()
               for name in unit.pod_names]
    assert all(members.count(name) == 1 for name in scheduler._queue)
    if not scheduler.config.gang:
        assert {key: unit.pod_names
                for key, unit in scheduler._units.items()} == \
            {name: [name] for name in scheduler._queue}


def no_overallocation(cluster):
    for allocation in cluster.allocations.values():
        assert allocation.free_gpus >= 0
        assert allocation.free_cpus >= -1e-9
        assert allocation.free_memory_gb >= -1e-9
        assert allocation.free_gpus <= allocation.capacity.gpus
        assert allocation.free_cpus <= allocation.capacity.cpus + 1e-9


def owned_pod(env, name, gpus, cpus, duration, owner=None):
    pod = make_pod(env, name, gpus=gpus, cpus=cpus, duration=duration)
    pod.meta.owner = owner
    return pod


@settings(max_examples=examples(30), deadline=None)
@given(specs=POD_SPECS, seed=st.integers(min_value=0, max_value=50),
       policy=st.sampled_from(["pack", "spread"]), gang=st.booleans(),
       cordon=st.booleans(), fail=st.booleans(), grow=st.booleans())
# Two owners of one shape under Spread share a class, but each must be
# kept off its own nodes.
@example(specs=[(1, 1.0, 60, False, "set-a")] * 3 +
         [(1, 1.0, 60, False, "set-b")] * 3, seed=0, policy="spread",
         gang=False, cordon=False, fail=False, grow=False)
# A node filled for a while re-enters the table behind the others; BSA
# (every pod a gang of one) must still get the nodes in node order.
@example(specs=[(1, 1.0, 100, False, None), (4, 1.0, 5, False, None)] +
         [(1, 1.0, 100, False, None)] * 4, seed=1, policy="pack",
         gang=True, cordon=False, fail=False, grow=False)
# A finished pod's object is collected long after its resources were
# released: the same-owner count moves with no allocation change.
@example(specs=[(1, 1.0, 15, False, "set-a")] +
         [(1, 1.0, 100, False, "set-a")] * 3, seed=0, policy="spread",
         gang=False, cordon=False, fail=False, grow=False)
# Two dozen journal entries between two whole-node pods: the first
# one's class falls off the journal and must be rebuilt, not patched.
@example(specs=[(4, 1.0, 100, False, None)] +
         [(1, 1.0, 5, False, None)] * 13 + [(4, 1.0, 100, False, None)],
         seed=0, policy="pack", gang=False, cordon=False, fail=False,
         grow=False)
def test_no_overallocation_under_random_churn(specs, seed, policy, gang,
                                              cordon, fail, grow):
    env, cluster = build(seed, gang=gang, policy=policy)
    pods = [(owned_pod(env, f"p{i}", gpus, cpus, duration, owner), delete)
            for i, (gpus, cpus, duration, delete, owner)
            in enumerate(specs)]
    # Three waves, 30 s apart, around the node events below: by the
    # later ones the journal has been cut and classes have been retired.
    waves = {step: pods[wave::3] for wave, step in enumerate((0, 3, 6))}
    for step in range(12):
        for pod, _delete in waves.get(step, ()):
            cluster.api.create_pod(pod)
        env.run(until=env.now + 10)
        index_held(cluster)
        units_hold(cluster)
        no_overallocation(cluster)
        # Every Running pod is on a fitting, live node.
        for pod, _d in pods:
            if pod.phase == "Running":
                assert pod.node_name in cluster.allocations
        # Cordon / uncordon, failure / recovery and a scale-out each
        # reach the index by another path.
        if cordon and step == 0:
            cluster.cordon("node-K80-0")
        if fail and step == 1:
            cluster.fail_node("node-K80-1")
        if step == 2:
            for pod, delete in waves[0]:
                if delete:
                    cluster.delete_pod(pod.name)
            if grow:
                cluster.add_node("late-0", CAPACITY)
        if cordon and step == 4:
            cluster.uncordon("node-K80-0")
        if fail and step == 6:
            cluster.recover_node("node-K80-1")
    env.run(until=env.now + 200)
    index_held(cluster)
    units_hold(cluster)
    no_overallocation(cluster)
    # Cluster fully drained: everything returned to capacity.
    remaining = [p for p, _d in pods
                 if cluster.api.exists("pods", p.name)
                 and not p.is_terminal]
    if not remaining:
        for allocation in cluster.allocations.values():
            assert allocation.free_gpus == allocation.capacity.gpus
            assert abs(allocation.free_cpus -
                       allocation.capacity.cpus) < 1e-6


def test_a_class_not_read_for_a_clusters_worth_of_changes_is_rebuilt():
    """The journal of a 3-node cluster is cut after 22 entries: a class
    read before a dozen placements of another is retired, and its next
    read — checked against the fresh evaluation like every read —
    starts from scratch."""
    env, cluster = build(seed=0)
    scheduler = cluster.scheduler
    cluster.api.create_pod(owned_pod(env, "rare-0", 4, 1.0, 500))
    env.run(until=5)
    assert len(scheduler._classes) == 1
    for i in range(12):
        cluster.api.create_pod(owned_pod(env, f"common-{i}", 1, 1.0, 2))
        env.run(until=env.now + 5)
    index_held(cluster)
    assert scheduler._journal_start > 0
    assert len(scheduler._journal) <= 2 * 3 + 16
    assert len(scheduler._classes) == 1  # the rare class is gone
    evals = scheduler.filter_evals
    cluster.api.create_pod(owned_pod(env, "rare-1", 4, 1.0, 500))
    env.run(until=env.now + 5)
    index_held(cluster)
    assert scheduler.filter_evals - evals == 3
    assert scheduler.pods_scheduled == 14


def test_a_failed_attempts_summary_is_current_for_its_shape():
    """Two shapes failing in one pass each get their own summary, and a
    shape failing again after a cordon, a scale-out or an uncordon gets
    the new counts: the counts are kept per (selector, GPUs) and follow
    every journalled node, also past a cut of the journal.  Every
    failed attempt's summary is checked against a fresh scan."""
    env, cluster = build(seed=0)
    # Two 8-CPU pods per node: no CPU left anywhere, two GPUs free on each.
    for i in range(6):
        cluster.api.create_pod(owned_pod(env, f"fill-{i}", 1, 8.0, 500))
    env.run(until=5)
    cluster.api.create_pod(owned_pod(env, "one-gpu", 1, 1.0, 500))
    cluster.api.create_pod(owned_pod(env, "four-gpu", 4, 1.0, 500))
    env.run(until=10)
    cluster.cordon("node-K80-0")
    cluster.api.create_pod(owned_pod(env, "kick", 1, 1.0, 500))  # a pass
    env.run(until=15)
    index_held(cluster)
    # A scale-out ("four-gpu" takes it) and a shape with a selector ...
    cluster.add_node("late-0", CAPACITY, labels={"pool": "late"})
    picky = owned_pod(env, "picky", 1, 1.0, 500)
    picky.spec.node_selector = {"pool": "late"}
    cluster.api.create_pod(picky)
    env.run(until=20)
    # ... then enough readiness flips to cut the journal.
    for _ in range(13):
        cluster.cordon("node-K80-1")
        cluster.uncordon("node-K80-1")
    cluster.uncordon("node-K80-0")
    cluster.api.create_pod(owned_pod(env, "kick-2", 1, 1.0, 500))
    env.run(until=25)
    index_held(cluster)
    scheduler = cluster.scheduler
    assert scheduler._journal_start > 0
    said = {}
    for event in cluster.api.event_log.failed_scheduling():
        said.setdefault(event.object_name, []).append(
            event.message.split(": ", 1)[1])
    assert scheduler._predicate_summary.calls == sum(map(len, said.values()))
    short, cordoned = (PREDICATE_INSUFFICIENT_GPU,
                       f"{PREDICATE_NODE_UNSCHEDULABLE} (1)")
    assert said["one-gpu"][:2] == ["Insufficient resources", cordoned]
    assert said["four-gpu"] == [f"{short} (3)", f"{short} (2), {cordoned}"]
    assert said["picky"] == [
        f"{short} (1), {PREDICATE_MATCH_NODE_SELECTOR} (3), {cordoned}",
        f"{short} (1), {PREDICATE_MATCH_NODE_SELECTOR} (3)"]


@settings(max_examples=examples(20), deadline=None)
@given(seed=st.integers(min_value=0, max_value=100),
       jobs=st.integers(min_value=1, max_value=10),
       learners=st.integers(min_value=1, max_value=4),
       gpus=st.integers(min_value=1, max_value=2))
def test_gang_all_or_nothing_invariant(seed, jobs, learners, gpus):
    """At any observation point, a gang is either fully placed or fully
    pending (bind windows aside, which resolve within a tick)."""
    env, cluster = build(seed, gang=True)

    def sleeper(container):
        yield env.timeout(10_000)
        return 0

    by_job = {}
    for j in range(jobs):
        name = f"g{j}"
        pods = []
        for i in range(learners):
            pod = Pod(meta=ObjectMeta(name=f"{name}-{i}"),
                      spec=PodSpec(
                          containers=[ContainerSpec(
                              "m", "learner:latest", sleeper)],
                          resources=ResourceRequest(
                              cpus=1, memory_gb=2, gpus=gpus,
                              gpu_type="K80"),
                          gang_name=name, gang_size=learners))
            cluster.api.create_pod(pod)
            pods.append(pod)
        by_job[name] = pods
    for _ in range(6):
        env.run(until=env.now + 10)
        units_hold(cluster)
    index_held(cluster)
    no_overallocation(cluster)
    for name, pods in by_job.items():
        placed = [p for p in pods if p.node_name is not None]
        assert len(placed) in (0, len(pods)), name
