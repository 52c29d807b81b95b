"""Cross-validation: the fast Figure-3 replayer vs the full simulator.

The replayer (repro.analysis.schedreplay) exists for speed; this test
checks its core conclusion (Pack delays fewer jobs than Spread) against
the same miniature trace executed on the full Kubernetes simulation with
real pods, controllers and the scheduler.
"""


from repro.analysis import PlacementReplayer, QUEUE_THRESHOLD_S
from repro.docker import Image
from repro.kube import Cluster, SchedulerConfig
from repro.kube.objects import ContainerSpec, ObjectMeta, Pod, PodSpec
from repro.kube.resources import NodeGroup, ResourceRequest
from repro.sim import Environment, RngRegistry
from repro.workloads import ProductionTrace, TraceConfig

DAYS = 2
NODES = (NodeGroup(4, 4, "K80"), NodeGroup(4, 4, "V100"))


def mini_trace():
    config = TraceConfig(days=DAYS, base_jobs_per_day=55.0,
                         trend_per_day=0.0)
    jobs = ProductionTrace(RngRegistry(11), config).generate()
    # Shrink durations so the mini cluster reaches the contended regime.
    return jobs


def run_full_sim(policy, jobs):
    env = Environment()
    cluster = Cluster(env, RngRegistry(5), SchedulerConfig(policy=policy))
    cluster.push_image(Image("learner", size_bytes=1e6))
    for spec_index, spec in enumerate(NODES):
        for i in range(spec.count):
            cluster.add_node(f"n{spec_index}-{i}", spec.capacity)
    pods_by_job = {}

    def submit(job):
        yield env.timeout(job.arrival_s)
        pods = []
        for i in range(job.learners):
            def sleeper(container, duration=job.duration_s):
                yield env.timeout(duration)
                return 0

            pod = Pod(
                meta=ObjectMeta(name=f"{job.job_id}-{i}",
                                labels={"type": "learner"}),
                spec=PodSpec(
                    containers=[ContainerSpec("m", "learner:latest",
                                              sleeper)],
                    resources=ResourceRequest(
                        cpus=4.0 * job.gpus_per_learner, memory_gb=16,
                        gpus=job.gpus_per_learner,
                        gpu_type=job.gpu_type)))
            pods.append(pod)
            cluster.api.create_pod(pod)
        pods_by_job[job.job_id] = pods

    for job in jobs:
        env.process(submit(job), name=f"submit:{job.job_id}")
    env.run(until=(DAYS + 2) * 86400.0)
    delayed = 0
    for job in jobs:
        pods = pods_by_job.get(job.job_id, [])
        starts = [p.scheduled_at for p in pods]
        if not pods or any(s is None for s in starts):
            delayed += 1
        elif max(starts) - job.arrival_s > QUEUE_THRESHOLD_S:
            delayed += 1
    return delayed


def test_replayer_agrees_with_full_simulation():
    jobs = mini_trace()
    replay = {policy: PlacementReplayer(policy, NODES).replay(
        list(jobs), DAYS).total_delayed for policy in ("spread", "pack")}
    full = {policy: run_full_sim(policy, jobs)
            for policy in ("spread", "pack")}
    # Both methodologies agree on the ordering.
    assert replay["pack"] <= replay["spread"]
    assert full["pack"] <= full["spread"]
    # And on rough magnitude (within a factor-of-two band when nonzero).
    for policy in ("spread", "pack"):
        a, b = replay[policy], full[policy]
        if max(a, b) >= 5:
            assert min(a, b) * 3 >= max(a, b), (policy, replay, full)
