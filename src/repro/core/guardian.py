"""The Guardian: per-job delegate for atomic deployment and monitoring.

"The LCM launches a delegate for atomic deployment and further monitoring
of each DL job. ... The Guardian is a FfDL component created on the fly as
a K8S Job for every DL job. ... If the Guardian crashes in the middle of a
job deployment, K8S is guaranteed to restart it.  The restarted Guardian
will roll back the previous partially deployed DL job and start a fresh
deployment process" (Section 3.3).

The Guardian's multi-step deployment:

1. provision the shared NFS volume and bind it as a PVC,
2. apply the job's network-isolation policy,
3. create the helper Deployment (controller + load-data + store-results +
   log-collector containers),
4. create the learner StatefulSet (a scheduling gang),
5. record the "deployed" milestone in etcd (so a restarted Guardian knows
   to monitor instead of rolling back), then monitor learner statuses from
   etcd, aggregating them into the job status in MongoDB.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.core import statuses as st
from repro.core.helper import (
    job_prefix,
    learner_exit_key,
    learner_status_key,
)
from repro.core.job import TrainingJob
from repro.errors import ProvisioningError
from repro.kube.objects import (
    NetworkPolicy,
    ObjectMeta,
    PersistentVolumeClaim,
)
from repro.sim.core import Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.platform import FfDLPlatform
    from repro.kube.api import KubeAPI

#: Ordering of learner statuses for aggregation: the job is only as far
#: along as its slowest learner.
_STATUS_RANK = {st.DOWNLOADING: 0, st.PROCESSING: 1, st.STORING: 2,
                "COMPLETED": 3}

DEPLOYED_MILESTONE_VALUE = "deployed"


def deployed_key(job_id: str) -> str:
    return f"/jobs/{job_id}/deployed"


def make_guardian_workload(platform: "FfDLPlatform", job: TrainingJob):
    """Build the container workload for the job's Guardian."""

    def workload(container):
        env = platform.env
        etcd = platform.etcd_client
        job.guardian_attempts += 1
        deployed = yield etcd.get_value(deployed_key(job.job_id))
        if deployed != DEPLOYED_MILESTONE_VALUE:
            # Fresh deployment (possibly after rolling back a partial one).
            yield from _rollback(platform, job)
            try:
                yield from _deploy(platform, job, container)
            except ProvisioningError as err:
                container.log(f"deploy failed: {err}")
                return 1  # K8S Job restarts us (bounded by backoff limit)
        code = yield from _monitor(platform, job, container)
        return code

    return workload


# -- deployment -----------------------------------------------------------------


def _deploy(platform: "FfDLPlatform", job: TrainingJob, container):
    env = platform.env
    platform.record_status(job, st.DEPLOYING)

    # Step 1: declare the PVC, provision the shared NFS volume, and bind.
    # Under load provisioning is the slow, failure-prone step (Section 4);
    # a failure here aborts the attempt before any pods exist.
    platform.cluster.api.create_pvc(PersistentVolumeClaim(
        meta=ObjectMeta(name=job.pvc_name,
                        labels={"job": job.job_id}),
        bound=False, volume=None))
    volume = yield platform.provision_volume(job)
    job.volume = volume
    pvc = platform.cluster.api.get_pvc(job.pvc_name)
    pvc.volume = volume
    pvc.bound = True
    if platform.crash_guardian_after_step == 1:
        raise RuntimeError("injected guardian crash after step 1")

    # Step 2: network isolation policy for the job's pods.
    platform.cluster.api.create_network_policy(NetworkPolicy(
        meta=ObjectMeta(name=job.netpol_name, labels={"job": job.job_id}),
        pod_selector={"job": job.job_id},
        allowed_peer_labels={"job": job.job_id}))
    if platform.crash_guardian_after_step == 2:
        raise RuntimeError("injected guardian crash after step 2")

    # Step 3: helper deployment.
    platform.create_helper(job)
    if platform.crash_guardian_after_step == 3:
        raise RuntimeError("injected guardian crash after step 3")

    # Step 4: learner StatefulSet (the scheduling gang).
    platform.create_learners(job)
    platform.cluster.scheduler.kick()
    if platform.crash_guardian_after_step == 4:
        raise RuntimeError("injected guardian crash after step 4")

    # Step 5: durable milestone — a restarted Guardian must monitor, not
    # roll back a healthy job.
    yield platform.etcd_client.put(deployed_key(job.job_id),
                                   DEPLOYED_MILESTONE_VALUE)
    job.deploy_completed_at = env.now
    if platform.crash_guardian_after_step == 5:
        # The deploy-but-before-monitoring window: the milestone is
        # durable, so the restarted Guardian must monitor, not redeploy.
        raise RuntimeError("injected guardian crash after step 5")
    container.log("deployment complete")


def delete_workloads(api: "KubeAPI", job: TrainingJob) -> None:
    """Delete whichever of the job's learner and PS sets, helper
    deployment and network policy exist, in that order."""
    for set_name in (job.statefulset_name, job.ps_set_name):
        if api.exists("statefulsets", set_name):
            api.delete_statefulset(set_name)
    if api.exists("deployments", job.helper_name):
        api.delete_deployment(job.helper_name)
    if api.exists("networkpolicies", job.netpol_name):
        api.delete_network_policy(job.netpol_name)


def release_claim(api: "KubeAPI", job: TrainingJob) -> None:
    """Release the job's volume and delete its claim, if it has one."""
    if api.exists("pvcs", job.pvc_name):
        pvc = api.get_pvc(job.pvc_name)
        if pvc.volume is not None:
            pvc.volume.release()
        api.delete_pvc(job.pvc_name)


def _rollback(platform: "FfDLPlatform", job: TrainingJob):
    """Delete any partially created objects of a previous attempt."""
    delete_workloads(platform.cluster.api, job)
    release_claim(platform.cluster.api, job)
    job.volume = None
    yield platform.env.timeout(0.2)  # API round-trips


# -- monitoring ---------------------------------------------------------------------


def _aggregate(platform: "FfDLPlatform", job: TrainingJob) -> Optional[str]:
    """Compute the job-level status from per-learner etcd state."""
    etcd = platform.etcd_store()
    exits = []
    statuses = []
    for index in range(job.manifest.learners):
        exit_kv = etcd.get(learner_exit_key(job.job_id, index))
        if exit_kv is not None:
            exits.append(exit_kv.value)
        status_kv = etcd.get(learner_status_key(job.job_id, index))
        if status_kv is not None:
            statuses.append(status_kv.value)
    if any(code == "1" for code in exits):
        return st.FAILED
    if len(exits) == job.manifest.learners:
        if all(code == "0" for code in exits):
            return st.COMPLETED
        if all(code in ("0", "halted") for code in exits):
            return st.HALTED
    if not statuses:
        return None
    known = [s for s in statuses if s in _STATUS_RANK]
    if len(known) < job.manifest.learners:
        return st.DOWNLOADING if known else None
    slowest = min(known, key=lambda s: _STATUS_RANK[s])
    if slowest == "COMPLETED":
        return None  # waiting for exit files
    return slowest


def _monitor(platform: "FfDLPlatform", job: TrainingJob, container):
    env = platform.env
    # The with-block closes the watcher on any exit (terminal status,
    # interrupt, crash), deregistering it from the store's fanout index.
    with platform.etcd_store().watch_prefix(job_prefix(job.job_id)) \
            as watcher:
        while True:
            status = _aggregate(platform, job)
            if status in (st.COMPLETED, st.FAILED, st.HALTED):
                # record_status stamps finished_at at the moment the
                # terminal status is recorded; garbage collection that
                # follows must not shift the user-visible timestamp.
                platform.record_status(job, status)
                yield from _garbage_collect(platform, job)
                if job.finished_at is None:
                    job.finished_at = env.now
                return 0
            if status is not None:
                platform.record_status(job, status)
            yield watcher.get()


def _garbage_collect(platform: "FfDLPlatform", job: TrainingJob):
    delete_workloads(platform.cluster.api, job)
    release_claim(platform.cluster.api, job)
    # Let the pod deletions complete their API round-trip before clearing
    # the job's etcd state: a still-dying controller holds lease-backed
    # status keys, and a put it issued before the kill must land before —
    # never concurrently with — the prefix delete, or cleanup races
    # resurrection.
    yield platform.env.timeout(0.2)
    yield platform.etcd_client.delete_prefix(job_prefix(job.job_id))
