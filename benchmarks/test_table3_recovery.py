"""Table 3 — Time to recover from crash failures, by component.

Paper: API 3-5s, LCM 4-6s, Guardian 1-2s, Helper 3-4s, Learner 10-20s
("learners take longest to restart because binding to the Object Storage
Service and persistent NFS volumes takes longer, and FfDL microservices
take the shortest time because they are stateless").

Reproduction: each component is crashed kubectl-style (pod deletion for
job components, replica kill for microservices) and the time until the
replacement is serving again is measured on the simulated cluster.
"""

from repro.analysis import print_table
from repro.core import FfDLPlatform, JobManifest
from repro.core import statuses as st
from repro.sim import Environment, RngRegistry

from tests.golden import check

PAPER_RANGES = {
    "API": (3, 5), "LCM": (4, 6), "Guardian": (1, 2),
    "Helper": (3, 4), "Learner": (10, 20),
}


def start_job(seed):
    env = Environment()
    platform = FfDLPlatform(env, RngRegistry(seed))
    platform.add_gpu_nodes(3, gpus_per_node=4, gpu_type="K80")
    platform.admission.register("bench", gpu_quota=32)
    manifest = JobManifest(
        name="t3-job", user="bench", framework="tensorflow",
        model="resnet50", learners=2, gpus_per_learner=1, gpu_type="K80",
        iterations=60_000, checkpoint_interval_iterations=2_000)
    job_id = env.run_until_complete(platform.submit_job(manifest))
    job = platform.job(job_id)
    while job.status.current != st.PROCESSING and env.now < 2000:
        env.run(until=env.now + 5)
    assert job.status.current == st.PROCESSING
    return env, platform, job_id


def measure_pod_restart(env, platform, job_id, pod_getter):
    """Delete the pod; time until its replacement is Running.

    For stateful identities the replacement keeps the same name; for
    replica-set pods a fresh name appears — either way we wait for a pod
    from the same getter with a different uid.
    """
    pod = pod_getter()
    assert pod is not None
    old_uid = pod.meta.uid
    old_name = pod.name
    start = env.now
    platform.cluster.delete_pod(pod.name)
    deadline = env.now + 300
    while env.now < deadline:
        env.run(until=env.now + 0.25)
        replacement = pod_getter()
        if replacement is None:
            continue
        if replacement.meta.uid == old_uid:
            continue
        # Stateful pods must come back under the same name; others may
        # not reuse it.
        same_family = (replacement.name == old_name or
                       not platform.cluster.api.exists("pods", old_name))
        if same_family and replacement.phase == "Running":
            return env.now - start
    raise AssertionError("replacement never became Running")


def measure_microservice(env, service, samples=5):
    durations = []
    for _ in range(samples):
        service.crash_replica()
        env.run(until=env.now + 30)
    for down, up in service.recovery_log[-samples:]:
        durations.append(up - down)
    return durations


def run_table3():
    measured = {}

    env, platform, job_id = start_job(seed=0)
    learner_name = sorted(p.name
                          for p in platform.learner_pods(job_id))[0]
    measured["Learner"] = [measure_pod_restart(
        env, platform, job_id,
        lambda: platform.cluster.api.try_get_pod(learner_name))]
    measured["Helper"] = [measure_pod_restart(
        env, platform, job_id, lambda: platform.helper_pod(job_id))]
    measured["Guardian"] = [measure_pod_restart(
        env, platform, job_id, lambda: platform.guardian_pod(job_id))]
    measured["API"] = measure_microservice(env, platform.api_service)
    measured["LCM"] = measure_microservice(env, platform.lcm)

    rows = []
    for component in ("API", "LCM", "Guardian", "Helper", "Learner"):
        lo, hi = min(measured[component]), max(measured[component])
        plo, phi = PAPER_RANGES[component]
        rows.append([component, f"{lo:.1f}-{hi:.1f}s", f"{plo}-{phi}s"])
    print_table(["component", "measured recovery", "paper"],
                rows, title="Table 3: crash-recovery time by component")
    return measured


def test_table3_recovery_times():
    measured = run_table3()
    for component, (lo, hi) in PAPER_RANGES.items():
        for value in measured[component]:
            # Within the paper's range, with one second of slack.
            assert lo - 1.2 <= value <= hi + 2.0, (component, value)
    # The qualitative ordering the paper calls out.
    assert max(measured["Guardian"]) < min(measured["Learner"])
    assert max(measured["Helper"]) < min(measured["Learner"])
    check("paper/table3", measured)
