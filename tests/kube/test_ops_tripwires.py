"""Deterministic work counters of the scheduler, pinned.

Wall-clock is measured by ``benchmarks/e2e``; these counters are the
cheap tripwire that runs in tier-1.  A cluster takes 400 single pods
that really run (image pull, container, exit), at the occupancy of the
e2e ``sched-sweep`` workload, so every pod is placed at its first
attempt.
"""

from repro.kube.objects import ObjectMeta, PersistentVolumeClaim
from repro.sim import RngRegistry

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
    the pod is done, under Spread (where an owner is a class): what the
    scheduler keeps afterwards is sized by the 10 nodes and the
    informer-staleness window, not by the 2 000."""
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
        api.create_pod(pod)
        yield env.timeout(8.0)
        assert pod.phase == "Succeeded"
        api.delete_pvc(claim)

    peak = {"claims": 0, "journal": 0, "classes": 0}

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
    # A placement journals its node at least once, so the classes read
    # inside one journal's length are fewer than its entries.
    assert 1 < peak["classes"] <= 2 * nodes + 16
