"""Property-based tests for scheduler safety invariants.

Random pod workloads (sizes, arrival order, deletions) must never violate:

* no node is ever over-allocated (GPUs, CPUs, memory),
* every Running pod is bound to a Ready node that fits it,
* released resources return exactly to capacity once the cluster drains,
* at every scheduling attempt the feasibility cache, the score cache and
  the (owner, node) index equal a fresh evaluation.
"""

from hypothesis import given, settings, strategies as st

from repro.docker import Image
from repro.kube import Cluster, NodeCapacity, SchedulerConfig
from repro.kube.objects import ContainerSpec, ObjectMeta, Pod, PodSpec
from repro.kube.resources import ResourceRequest
from repro.sim import Environment, RngRegistry

from tests.conftest import examples
from tests.kube.conftest import recount_owner_nodes


POD_SPECS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),   # gpus
        # cpus; repeated values make pods share cache keys
        st.one_of(st.sampled_from([1.0, 2.0]),
                  st.floats(min_value=0.5, max_value=8.0)),
        st.integers(min_value=5, max_value=60),  # duration
        st.booleans(),                            # delete mid-run?
        st.sampled_from([None, "set-a", "set-b"]),  # owner
    ),
    min_size=1, max_size=15,
)


def build(seed, gang=False, policy="pack"):
    env = Environment()
    cluster = Cluster(env, RngRegistry(seed),
                      SchedulerConfig(policy=policy, gang=gang))
    cluster.push_image(Image("learner", size_bytes=1e6))
    cluster.add_nodes(3, NodeCapacity(cpus=16, memory_gb=64, gpus=4,
                                      gpu_type="K80"))
    check_caches_at_every_attempt(cluster)
    return env, cluster


def check_caches_at_every_attempt(cluster):
    """Wrap the scheduler's feasibility scan: each time an attempt is
    about to read the caches, every cached verdict and score must equal
    a fresh evaluation, and the (owner, node) index a recount of the pod
    store."""
    scheduler, api = cluster.scheduler, cluster.api
    scan = scheduler._feasible_candidates
    by_shape, by_score_key = {}, {}  # interned key -> a pod that has it

    def checked_scan(pod):
        by_shape[scheduler._shape_id(pod)] = pod
        by_score_key[scheduler._score_key_id(pod)] = pod
        counters = scheduler.filter_evals, scheduler.score_evals
        nodes = {node.name: node for node in api.list_nodes()}
        for name, verdicts in scheduler._feas_cache.items():
            for shape, fits in verdicts.items():
                fresh = scheduler._node_fits(by_shape[shape], nodes[name])
                assert fits == (fresh is not None), (name, shape)
        for name, scores in scheduler._score_cache.items():
            for key, score in scores.items():
                assert score == scheduler._score(
                    by_score_key[key], name, cluster.allocation(name)), \
                    (name, key)
        assert scheduler._owner_node_counts == recount_owner_nodes(api)
        scheduler.filter_evals, scheduler.score_evals = counters
        return scan(pod)

    scheduler._feasible_candidates = checked_scan


def caches_held(cluster):
    """A failed assertion in ``checked_scan`` ends the scheduler process,
    not the test; re-raise it from here."""
    loop = cluster.scheduler._loop
    if not loop.is_alive:
        raise loop.value


def no_overallocation(cluster):
    for allocation in cluster.allocations.values():
        assert allocation.free_gpus >= 0
        assert allocation.free_cpus >= -1e-9
        assert allocation.free_memory_gb >= -1e-9
        assert allocation.free_gpus <= allocation.capacity.gpus
        assert allocation.free_cpus <= allocation.capacity.cpus + 1e-9


@settings(max_examples=examples(30), deadline=None)
@given(specs=POD_SPECS, seed=st.integers(min_value=0, max_value=50),
       policy=st.sampled_from(["pack", "spread"]), cordon=st.booleans())
def test_no_overallocation_under_random_churn(specs, seed, policy, cordon):
    env, cluster = build(seed, policy=policy)

    def sleeper(duration):
        def workload(container):
            yield env.timeout(duration)
            return 0

        return workload

    pods = []
    for i, (gpus, cpus, duration, delete, owner) in enumerate(specs):
        pod = Pod(meta=ObjectMeta(name=f"p{i}", owner=owner),
                  spec=PodSpec(
                      containers=[ContainerSpec("m", "learner:latest",
                                                sleeper(duration))],
                      resources=ResourceRequest(
                          cpus=cpus, memory_gb=4.0, gpus=gpus,
                          gpu_type="K80" if gpus else None)))
        cluster.api.create_pod(pod)
        pods.append((pod, delete))
    for step in range(12):
        env.run(until=env.now + 10)
        caches_held(cluster)
        no_overallocation(cluster)
        # Every Running pod is on a fitting, live node.
        for pod, _d in pods:
            if pod.phase == "Running":
                assert pod.node_name in cluster.allocations
        if step == 2:
            for pod, delete in pods:
                if delete:
                    cluster.delete_pod(pod.name)
        # A cordon / uncordon pair exercises node-event invalidation.
        if cordon and step == 0:
            cluster.cordon("node-K80-0")
        if cordon and step == 3:
            cluster.uncordon("node-K80-0")
    env.run(until=env.now + 200)
    caches_held(cluster)
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
    env.run(until=60)
    caches_held(cluster)
    no_overallocation(cluster)
    for name, pods in by_job.items():
        placed = [p for p in pods if p.node_name is not None]
        assert len(placed) in (0, len(pods)), name
