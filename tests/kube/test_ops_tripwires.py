"""Deterministic work counters of the scheduler and the kubelet, pinned.

Wall-clock is measured by ``benchmarks/e2e``; these counters are the
cheap tripwire that runs in tier-1.  A cluster takes 400 single pods
that really run (image pull, container, exit), at the occupancy of the
e2e ``sched-sweep`` workload, so every pod is placed at its first
attempt.  One pod's whole life is pinned by its kernel events and
processes.
"""

from repro.kube.events import REASON_NO_NODES
from repro.kube.objects import ObjectMeta, PersistentVolumeClaim
from repro.kube.resources import NodeCapacity
from repro.sim import Environment, RngRegistry

from tests.kube import conftest
from tests.kube.conftest import make_cluster, make_pod

NODES = 100
PODS = 400
#: Recorded when the uncached reference paths were deleted (PR 18); they
#: read 40 000 and 33 311 on this sweep.  The candidate index (PR 21)
#: evaluates exactly what the caches it replaced evaluated.
FILTER_EVALS = 1918
SCORE_EVALS = 901
#: GPU requests in the sweep, hence pod classes.
GPU_MIX = (1, 1, 1, 2, 4)


def run_sweep(nodes):
    env, cluster = make_cluster(nodes=nodes, gpus_per_node=4)
    rng = RngRegistry(0).stream("sched-tripwire")
    pods = []

    def submit():
        for index in range(PODS):
            yield env.timeout(rng.uniform(0.2, 1.8))
            pods.append(make_pod(env, f"sweep-{index}", cpus=1,
                                 duration=rng.uniform(20, 60),
                                 gpus=rng.choice(GPU_MIX)))
            cluster.api.create_pod(pods[-1])

    env.process(submit(), name="submit")
    env.run()
    scheduler = cluster.scheduler
    assert scheduler.pods_scheduled == PODS
    assert {pod.phase for pod in pods} == {"Succeeded"}
    assert cluster.allocated_gpus() == 0
    return scheduler


def test_exhaustive_sweep_examines_every_node_once_per_pod():
    scheduler = run_sweep(NODES)
    # Exhaustive scoring, one attempt per pod: every node is accounted
    # for once per pod, by an evaluation or by the index ...
    assert scheduler.filter_evals == FILTER_EVALS
    assert scheduler.filter_cache_hits + FILTER_EVALS == PODS * NODES
    assert scheduler.score_evals == SCORE_EVALS
    # ... and only the evaluated ones were visited one by one.
    assert scheduler.nodes_examined == FILTER_EVALS


def test_per_pod_work_does_not_grow_with_the_cluster():
    """The same sweep on four times the nodes makes the same placements
    (Pack fills the same few top-named nodes), so it costs each class's
    first read of the larger cluster and nothing else."""
    classes = len(set(GPU_MIX))
    small, large = run_sweep(NODES), run_sweep(4 * NODES)
    assert large.nodes_examined - small.nodes_examined == \
        classes * 3 * NODES
    assert large.score_evals - small.score_evals == classes * 3 * NODES


def test_scheduler_state_is_bounded_by_the_cluster_not_the_run():
    """2 000 single-pod owners, each with a claim that is deleted when
    the pod is done, under Spread: what the scheduler keeps afterwards
    is sized by the 10 nodes, the informer-staleness window and the
    request shapes, not by the 2 000 owners."""
    nodes, owners = 10, 2000
    env, cluster = make_cluster(policy="spread", nodes=nodes,
                                gpus_per_node=4)
    api, scheduler = cluster.api, cluster.scheduler

    def owner_life(index):
        claim = f"claim-{index}"
        api.create_pvc(PersistentVolumeClaim(
            meta=ObjectMeta(name=claim), bound=True))
        pod = make_pod(env, f"solo-{index}", gpus=1, duration=5.0,
                       volume_claims=[claim])
        pod.meta.owner = f"owner-{index}"
        shapes.add((pod.spec.resources,
                    tuple(sorted(pod.spec.node_selector.items()))))
        api.create_pod(pod)
        yield env.timeout(8.0)
        assert pod.phase == "Succeeded"
        api.delete_pvc(claim)

    peak = {"claims": 0, "journal": 0, "classes": 0}
    shapes = set()

    def submit():
        for index in range(owners):
            yield env.timeout(0.4)
            env.process(owner_life(index), name=f"owner-{index}")
            for name, table in (("claims", scheduler._pvc_deleted_at),
                                ("journal", scheduler._journal),
                                ("classes", scheduler._classes)):
                peak[name] = max(peak[name], len(table))

    env.process(submit(), name="submit")
    env.run()
    assert scheduler.pods_scheduled == owners
    # Deletions 0.4 s apart, remembered for INFORMER_STALENESS_S = 0.5 s.
    assert 0 < peak["claims"] <= 2
    assert nodes < peak["journal"] <= 2 * nodes + 16
    # An owner is not a class: one class per request shape.
    assert 0 < peak["classes"] <= len(shapes)


def test_a_gang_attempt_costs_the_nodes_that_changed():
    """1 001 nodes under gang scheduling, so every pod goes through BSA.
    After its class's first read, a single pod's attempt re-evaluates
    the one node the pod before it took, in the filter, and patches that
    node's weight in the draw lists; a placing attempt refreshes no
    FailedScheduling count.  A failed attempt on an unchanged cluster
    evaluates no node and builds no list: neither one whose pod fits
    nowhere nor one whose gang BSA samples no fitting round for."""
    env, cluster = make_cluster(gang=True, nodes=1000)
    cluster.add_node("zone-a", NodeCapacity(cpus=32, memory_gb=256, gpus=4,
                                            gpu_type="K80"),
                     labels={"zone": "a"})
    scheduler = cluster.scheduler

    def counts():
        return (scheduler.filter_evals, scheduler.refresh_evals,
                scheduler.lists_built)

    def submit(*pods):
        for pod in pods:
            cluster.api.create_pod(pod)
        before = counts()
        env.run(until=env.now + 1)
        return tuple(after - was for after, was in zip(counts(), before))

    assert submit(make_pod(env, "solo-0")) == (1001, 0, 1)
    assert submit(make_pod(env, "solo-1")) == (1, 0, 0)
    assert scheduler.pods_scheduled == 2
    # Eight GPUs fit no node; the pair fits zone-a's four GPUs only once.
    pair = [make_pod(env, f"pair-{i}", gpus=4, gang_name="pair",
                     gang_size=2) for i in range(2)]
    for pod in pair:
        pod.spec.node_selector = {"zone": "a"}
    # Two new classes, two new summary shapes and the pair's one-node
    # list.
    assert submit(make_pod(env, "huge", gpus=8), *pair) == \
        (2 * 1001, 2 * 1001, 1)
    failed = cluster.api.event_log.failed_scheduling()
    assert len(failed) == 3
    scheduler.kick()
    assert submit() == (0, 0, 0)
    # The repeated FailedScheduling folds into each pod's one record.
    events = cluster.api.event_log.failed_scheduling()
    assert events == failed
    assert [event.count for event in events] == [2, 2, 2]
    assert {event.reason for event in events} == {REASON_NO_NODES}


class CountingEnvironment(Environment):
    """Records the family (name up to the first ``:``) of every process
    started."""

    def __init__(self):
        super().__init__()
        self.families = []

    def process(self, generator, name="process"):
        self.families.append(name.split(":", 1)[0])
        return super().process(generator, name=name)


def test_a_pod_costs_one_kubelet_process_and_its_workload(monkeypatch):
    """Bind, set-up, a cached pull, a 30 s run, exit, pod GC and
    finalize.  The image pull, the container's exit, the GC and the
    finalize ride on timers; before that a pod took 27 events and seven
    processes (kubelet, pull, workload, container, podmon, podgc,
    pod-finalize)."""
    monkeypatch.setattr(conftest, "Environment", CountingEnvironment)
    env, cluster = make_cluster(nodes=1)
    assert env.families == ["scheduler"]
    pod = make_pod(env, "solo", duration=30.0)
    cluster.api.create_pod(pod)
    env.run()
    assert pod.phase == "Succeeded"
    assert cluster.api.try_get_pod("solo") is None  # collected
    assert env.families == ["scheduler", "kubelet", "workload"]
    assert env.events_processed == 17
