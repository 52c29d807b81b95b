"""Ablation — the Guardian delegate vs direct LCM deployment.

Section 3.3's design argument: deployment is a multi-step process and must
be atomic; a crash mid-deploy must not leak "an inactive job component
with allocated resources (i.e. a zombie)".  The Guardian (a K8S Job) gets
restarted and rolls back/retries; without it, a crash strands partial
state and the job.

Ablation: inject a crash after deployment step 2 on the first attempt.
With retries (Guardian semantics) the job completes and nothing leaks;
with the delegate's retries disabled (backoff 0 — "direct" deployment
semantics) the job is dead, and the half-deployed objects are the zombies
the paper warns about.
"""

from repro.analysis import print_table
from repro.core import FfDLPlatform, JobManifest, PlatformConfig
from repro.core import statuses as st
from repro.sim import Environment, RngRegistry

from tests.golden import check


def deploy_with_crash(backoff_limit):
    env = Environment()
    config = PlatformConfig(guardian_backoff_limit=backoff_limit)
    platform = FfDLPlatform(env, RngRegistry(1), config)
    if backoff_limit == 0:
        # "Direct" deployment semantics: no delegate, so nothing reclaims
        # partial state after a crash.
        platform.enable_failure_cleanup = False
    platform.add_gpu_nodes(2, gpus_per_node=4, gpu_type="K80")
    platform.admission.register("bench", gpu_quota=16)
    manifest = JobManifest(name="ablation", user="bench",
                           framework="tensorflow", model="resnet50",
                           learners=1, gpus_per_learner=1, gpu_type="K80",
                           iterations=200)
    platform.crash_guardian_after_step = 2
    job_id = env.run_until_complete(platform.submit_job(manifest))
    job = platform.job(job_id)
    # Heal after the first crash so retries (if any) can succeed.
    while job.guardian_attempts < 1 and env.now < 100:
        env.run(until=env.now + 0.5)
    env.run(until=env.now + 5)
    platform.crash_guardian_after_step = 0
    env.run_until_complete(platform.wait_for_terminal(job_id), limit=1e6)
    env.run(until=env.now + 60)
    api = platform.cluster.api
    zombies = sum([
        api.exists("networkpolicies", job.netpol_name),
        api.exists("pvcs", job.pvc_name),
        api.exists("statefulsets", job.statefulset_name),
        api.exists("deployments", job.helper_name),
    ])
    return job.status.current, zombies, job.guardian_attempts


def run_ablation():
    with_guardian = deploy_with_crash(backoff_limit=3)
    without = deploy_with_crash(backoff_limit=0)
    print_table(
        ["deployment mode", "job outcome", "zombie objects leaked",
         "deploy attempts"],
        [["Guardian (rollback + retry)", *with_guardian],
         ["direct (no retry)", *without]],
        title="Ablation: atomic deployment via the Guardian")
    return with_guardian, without


def test_ablation_guardian():
    with_guardian, without = run_ablation()
    status, zombies, attempts = with_guardian
    assert status == st.COMPLETED
    assert zombies == 0
    assert attempts >= 2
    status, zombies, _attempts = without
    assert status == st.FAILED
    assert zombies >= 1  # the zombie resources the paper warns about
    check("paper/ablation-guardian", {
        mode: {"status": run[0], "zombies": run[1], "attempts": run[2]}
        for mode, run in (("guardian", with_guardian), ("direct", without))})
