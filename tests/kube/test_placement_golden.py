"""Golden placements: which node every pod got, when, and why not.

Recorded before the scheduler's caches were replaced by the candidate
index (PR 21), which moved no digest.  Re-recorded with it:
``nodes_examined`` where scheduling is exhaustive (it now counts the
nodes an attempt visits one by one), and the four other counters of the
Spread run, because under Spread an owner is a pod class of its own and
is filtered on its own.  Each scenario
hashes every ``(pod, node_name, scheduled_at)`` and every
``FailedScheduling`` message (Table 8's taxonomy reads those strings),
and pins the scheduler's work counters beside it.  Every run has a
cordon / uncordon, a node failure with recovery and a scale-out in the
middle, so node events, evictions and late nodes all reach the
scheduler while pods are queued; the Spread sweep also carries a few
pods whose selector only the late nodes match.
"""

import hashlib
import json

import pytest

from repro.sim import Environment, RngRegistry
from repro.workloads.synthetic import (
    build_cluster,
    measure_run,
    submit_gang_jobs,
)

from tests.kube.conftest import make_cluster, make_pod

NODES = 200
PODS = 3000
#: With ``late_selector``, every 250th pod from this one on (just
#: before the scale-out) selects the late nodes.
SELECTOR_FROM, SELECTOR_EVERY = 700, 250


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
    placements = [(pod.name, pod.node_name, pod.scheduled_at)
                  for pod in pods]
    failures = [(event.time, event.object_name, event.message)
                for event in cluster.api.event_log.failed_scheduling()]
    digest = hashlib.sha256(json.dumps(
        [placements, failures]).encode()).hexdigest()[:16]
    return {"digest": digest,
            "placed": sum(1 for _n, node, _t in placements if node),
            "failed_scheduling": len(failures),
            "nodes_examined": scheduler.nodes_examined,
            "filter_evals": scheduler.filter_evals,
            "filter_cache_hits": scheduler.filter_cache_hits,
            "score_evals": scheduler.score_evals,
            "score_cache_hits": scheduler.score_cache_hits}


def run_sweep(gap, policy="pack", owners=(None,), burst=0,
              late_selector=False, config_kwargs=None):
    """The e2e ``sched-sweep`` pod mix on a fifth of its cluster.  ``gap``
    (arrival spacing) sets the GPU occupancy; ``burst`` whole-node pods
    land at once half-way through."""
    env, cluster = make_cluster(
        policy=policy, nodes=NODES, gpus_per_node=4,
        config_kwargs=config_kwargs, node_detection_latency_s=4.0,
        pod_eviction_timeout_s=6.0)
    rng = RngRegistry(0).stream("placement-golden")
    created = []

    def create(pod):
        created.append(pod)
        cluster.api.create_pod(pod)

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
            create(pod)
            if index == PODS // 2:
                for extra in range(burst):
                    create(make_pod(env, f"burst-{extra}", cpus=1,
                                    duration=30.0, gpus=4))

    env.process(submit(), name="submit")
    _disturb(env, cluster, at=60.0, step_s=10.0)
    env.run()
    assert cluster.allocated_gpus() == 0
    return _fingerprint(cluster, created)


def run_gang_arm(gang, sample_pct=100):
    """Figure 4's (2 learners, 2 GPUs) workload, built as
    ``run_gang_experiment`` builds it, with the disturbances inside the
    settle window."""
    env = Environment()
    cluster = build_cluster(env, RngRegistry(17), gang=gang)
    cluster.scheduler.config.percentage_of_nodes_to_score = sample_pct
    cluster.scheduler.config.min_feasible_nodes_to_find = 2
    cluster.node_controller.detection_latency_s = 0.2
    cluster.node_controller.eviction_timeout_s = 0.3
    by_job = submit_gang_jobs(env, cluster, learners=2, gpus_per_learner=2)
    _disturb(env, cluster, at=0.5, step_s=0.4)
    env.run(until=120.0)
    result = measure_run(cluster, by_job)
    fingerprint = _fingerprint(
        cluster, [pod for pods in by_job.values() for pod in pods])
    fingerprint["fig4"] = (result.deadlocked_learners, result.idle_gpus,
                           result.fully_scheduled_jobs,
                           result.fully_queued_jobs)
    return fingerprint


SCENARIOS = {
    # ~95 % occupancy: pods queue and retry behind the disturbances.
    "pack-sweep": lambda: run_sweep(gap=(0.02, 0.17)),
    "spread-three-owners": lambda: run_sweep(
        gap=(0.02, 0.3), policy="spread", late_selector=True,
        owners=("set-a", "set-b", "set-c")),
    # ~30 % occupancy, so the window of 100 feasible nodes closes before
    # the walk has gone round; the burst then empties it.
    "sampled-50pct": lambda: run_sweep(
        gap=(0.1, 0.5), burst=150,
        config_kwargs={"percentage_of_nodes_to_score": 50,
                       "min_feasible_nodes_to_find": 2}),
    "fig4-default": lambda: run_gang_arm(gang=False),
    "fig4-gang": lambda: run_gang_arm(gang=True),
    "fig4-gang-sampled": lambda: run_gang_arm(gang=True, sample_pct=50),
}

GOLDEN = {
    "fig4-default": {
        "digest": "7cab1a5d84455e88", "placed": 36, "failed_scheduling": 194,
        "nodes_examined": 58, "filter_evals": 58, "filter_cache_hits": 4007,
        "score_evals": 38, "score_cache_hits": 194, "fig4": (2, 4, 17, 31)},
    "fig4-gang": {
        "digest": "3e1c4c5145f15159", "placed": 38, "failed_scheduling": 324,
        "nodes_examined": 42, "filter_evals": 42, "filter_cache_hits": 6174,
        "score_evals": 0, "score_cache_hits": 0, "fig4": (0, 0, 18, 32)},
    "fig4-gang-sampled": {
        "digest": "2ae2f68ae560e131", "placed": 38, "failed_scheduling": 324,
        "nodes_examined": 6123, "filter_evals": 46, "filter_cache_hits": 6077,
        "score_evals": 0, "score_cache_hits": 0, "fig4": (2, 4, 17, 31)},
    "pack-sweep": {
        "digest": "bf8e54ca24e07509", "placed": 3000,
        "failed_scheduling": 1228, "nodes_examined": 14399,
        "filter_evals": 14399, "filter_cache_hits": 840372,
        "score_evals": 4660, "score_cache_hits": 84892},
    "sampled-50pct": {
        "digest": "f5d86a691134bb27", "placed": 3150, "failed_scheduling": 707,
        "nodes_examined": 601384, "filter_evals": 15467,
        "filter_cache_hits": 585917, "score_evals": 5785,
        "score_cache_hits": 296575},
    "spread-three-owners": {
        "digest": "f33e021dfc469c59", "placed": 3000, "failed_scheduling": 728,
        "nodes_examined": 41637, "filter_evals": 41637,
        "filter_cache_hits": 713218, "score_evals": 24055,
        "score_cache_hits": 346989},
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_placements_match_the_recorded_run(name):
    assert SCENARIOS[name]() == GOLDEN[name]


if __name__ == "__main__":  # pragma: no cover - re-recording helper
    for scenario in sorted(SCENARIOS):
        print(f"    {scenario!r}: {SCENARIOS[scenario]()!r},")
