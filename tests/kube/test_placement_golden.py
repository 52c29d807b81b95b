"""Golden placements: which node every pod got, when, and why not.

Recorded before the scheduler's caches were replaced by the candidate
index, which moved no digest.  Re-recorded with it: ``nodes_examined``
where scheduling is exhaustive (it counts the nodes an attempt visits
one by one).  The Spread run's five counters were re-recorded again
when an owner stopped being a pod class of its own: the owners of one
shape share a class's filter verdicts and scores, and ``best_node``
scores an owner's own nodes with their counts only when it occupies
every feasible node.  No placement and no FailedScheduling record
moved either time.  Re-recorded once more when a queued pod's
repeated FailedScheduling began to fold into one record: no placement
and no counter moved, and each record gained its count and last time.
Each scenario pins every pod's ``[node_name, scheduled_at]`` and every
``FailedScheduling`` record (Table 8's taxonomy reads those strings),
and the scheduler's work counters beside them.  Every run has a
cordon / uncordon, a node failure with recovery and a scale-out in the
middle, so node events, evictions and late nodes all reach the
scheduler while pods are queued; the Spread sweep also carries a few
pods whose selector only the late nodes match.
"""

import pytest

from repro.sim import Environment, RngRegistry
from repro.workloads.synthetic import (
    build_cluster,
    measure_run,
    submit_gang_jobs,
)

from tests.golden import check
from tests.kube.conftest import make_cluster, make_pod

NODES = 200
PODS = 3000
#: With ``late_selector``, every 250th pod from this one on (just
#: before the scale-out) selects the late nodes.
SELECTOR_FROM, SELECTOR_EVERY = 700, 250
#: The scheduler's work counters, pinned beside the placements.
COUNTERS = ("nodes_examined", "filter_evals", "filter_cache_hits",
            "score_evals", "score_cache_hits")


def _disturb(env, cluster, at, step_s, victim="node-K80-1",
             cordoned="node-K80-0"):
    """Cordon, fail, scale out, then undo, ``step_s`` apart."""
    capacity = cluster.api.get_node(victim).capacity

    def script():
        yield env.timeout(at)
        cluster.cordon(cordoned)
        yield env.timeout(step_s)
        cluster.fail_node(victim)
        yield env.timeout(step_s)
        cluster.add_nodes(3, capacity, prefix="late",
                          labels={"pool": "late"})
        yield env.timeout(step_s)
        cluster.uncordon(cordoned)
        yield env.timeout(step_s)
        cluster.recover_node(victim)

    env.process(script(), name="disturb")


def _fingerprint(cluster, pods):
    scheduler = cluster.scheduler
    return {
        "counters": {name: getattr(scheduler, name) for name in COUNTERS},
        "pods": {pod.name: [pod.node_name, pod.scheduled_at]
                 for pod in pods},
        "failed_scheduling": [
            [event.time, event.object_name, event.message, event.count,
             event.last_time]
            for event in cluster.api.event_log.failed_scheduling()]}


def run_sweep(gap, policy="pack", owners=(None,), late_selector=False):
    """The e2e ``sched-sweep`` pod mix on a fifth of its cluster.  ``gap``
    (arrival spacing) sets the GPU occupancy."""
    env, cluster = make_cluster(
        policy=policy, nodes=NODES, gpus_per_node=4,
        node_detection_latency_s=4.0, pod_eviction_timeout_s=6.0)
    rng = RngRegistry(0).stream("placement-golden")
    created = []

    def submit():
        for index in range(PODS):
            yield env.timeout(rng.uniform(*gap))
            pod = make_pod(env, f"sweep-{index}", cpus=1,
                           duration=rng.uniform(20, 60),
                           gpus=rng.choice((1, 1, 1, 2, 4)))
            pod.meta.owner = owners[index % len(owners)]
            if late_selector and index >= SELECTOR_FROM \
                    and index % SELECTOR_EVERY == 0:
                pod.spec.node_selector = {"pool": "late"}
            created.append(pod)
            cluster.api.create_pod(pod)

    env.process(submit(), name="submit")
    _disturb(env, cluster, at=60.0, step_s=10.0)
    env.run()
    assert cluster.allocated_gpus() == 0
    return _fingerprint(cluster, created)


def run_gang_arm(gang):
    """Figure 4's (2 learners, 2 GPUs) workload, built as
    ``run_gang_experiment`` builds it, with the disturbances inside the
    settle window."""
    env = Environment()
    cluster = build_cluster(env, RngRegistry(17), gang=gang)
    cluster.node_controller.detection_latency_s = 0.2
    cluster.node_controller.eviction_timeout_s = 0.3
    by_job = submit_gang_jobs(env, cluster, learners=2, gpus_per_learner=2)
    _disturb(env, cluster, at=0.5, step_s=0.4)
    env.run(until=120.0)
    result = measure_run(cluster, by_job)
    fingerprint = _fingerprint(
        cluster, [pod for pods in by_job.values() for pod in pods])
    fingerprint["fig4"] = {
        "deadlocked_learners": result.deadlocked_learners,
        "idle_gpus": result.idle_gpus,
        "fully_scheduled_jobs": result.fully_scheduled_jobs,
        "fully_queued_jobs": result.fully_queued_jobs}
    return fingerprint


SCENARIOS = {
    # ~95 % occupancy: pods queue and retry behind the disturbances.
    "pack-sweep": lambda: run_sweep(gap=(0.02, 0.17)),
    "spread-three-owners": lambda: run_sweep(
        gap=(0.02, 0.3), policy="spread", late_selector=True,
        owners=("set-a", "set-b", "set-c")),
    "fig4-default": lambda: run_gang_arm(gang=False),
    "fig4-gang": lambda: run_gang_arm(gang=True),
}

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_placements_match_the_recorded_run(name):
    check(f"placement/{name}", SCENARIOS[name]())
