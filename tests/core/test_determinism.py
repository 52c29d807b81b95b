"""Determinism regression: identical seeds produce identical histories.

The entire point of the discrete-event substrate is exact replayability —
every simulated number in EXPERIMENTS.md must reproduce bit-for-bit.
"""


from repro.core import PlatformConfig, statuses as st

from tests.core.conftest import make_manifest, make_platform, submit


def run_scenario(seed):
    config = PlatformConfig(node_detection_latency_s=10.0,
                            pod_eviction_timeout_s=10.0)
    env, platform = make_platform(seed=seed, nodes=3, config=config)
    job_ids = []
    for i in range(3):
        manifest = make_manifest(name=f"det-{i}", learners=1 + i % 2,
                                 iterations=1200, ckpt=400)
        job_ids.append(submit(env, platform, manifest))
        env.run(until=env.now + 10)
    # Inject the same faults at the same times.
    env.run(until=200)
    pods = platform.learner_pods(job_ids[0])
    if pods:
        platform.kill_pod_containers(pods[0].name)
    env.run(until=400)
    platform.cluster.fail_node(sorted(platform.cluster.kubelets)[0])
    env.run(until=500)
    platform.cluster.recover_node(sorted(platform.cluster.kubelets)[0])
    for job_id in job_ids:
        env.run_until_complete(platform.wait_for_terminal(job_id),
                               limit=1e7)
    env.run(until=env.now + 60)
    # Job ids come from a global counter that advances across runs;
    # compare histories positionally (submission order) instead.
    return [
        (platform.job(job_id).status.timeline(),
         [s.iterations_done
          for s in platform.job(job_id).learner_states],
         [s.restarts
          for s in platform.job(job_id).learner_states])
        for job_id in job_ids
    ]


def test_same_seed_identical_histories():
    assert run_scenario(7) == run_scenario(7)


def test_different_seed_differs_somewhere():
    a = run_scenario(7)
    b = run_scenario(8)
    # Timelines contain timestamps shaped by seeded latencies; at least
    # one must differ.
    assert a != b
