"""Deterministic work counters of the scheduler, pinned.

Wall-clock is measured by ``benchmarks/e2e``; these counters are the
cheap tripwire that runs in tier-1.  A 100-node cluster takes 400 single
pods that really run (image pull, container, exit), at the occupancy of
the e2e ``sched-sweep`` workload, so every pod is placed at its first
attempt.
"""

from repro.sim import RngRegistry

from tests.kube.conftest import make_cluster, make_pod

NODES = 100
PODS = 400
#: Recorded when the uncached reference paths were deleted (PR 18); they
#: read 40 000 and 33 311 on this sweep.
FILTER_EVALS = 1918
SCORE_EVALS = 901


def test_exhaustive_sweep_examines_every_node_once_per_pod():
    env, cluster = make_cluster(nodes=NODES, gpus_per_node=4)
    rng = RngRegistry(0).stream("sched-tripwire")
    pods = []

    def submit():
        for index in range(PODS):
            yield env.timeout(rng.uniform(0.2, 1.8))
            pods.append(make_pod(env, f"sweep-{index}", cpus=1,
                                 duration=rng.uniform(20, 60),
                                 gpus=rng.choice((1, 1, 1, 2, 4))))
            cluster.api.create_pod(pods[-1])

    env.process(submit(), name="submit")
    env.run()
    scheduler = cluster.scheduler
    assert scheduler.pods_scheduled == PODS
    assert {pod.phase for pod in pods} == {"Succeeded"}
    assert cluster.allocated_gpus() == 0
    # Exhaustive scoring: one attempt per pod, every node examined.
    assert scheduler.nodes_examined == PODS * NODES
    assert scheduler.filter_evals <= FILTER_EVALS
    assert scheduler.score_evals <= SCORE_EVALS
