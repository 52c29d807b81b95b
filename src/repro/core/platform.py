"""FfDL platform facade: the public entry point of this library.

Wires the full stack from the paper's Figure 1/2 together:

* Platform layer — simulated Kubernetes cluster, etcd (optionally
  Raft-replicated), MongoDB (optionally a replica set), object storage,
  NFS provisioning, Docker registry.
* Core services — API service, Lifecycle Manager, Training Metrics
  Service, each a replicated :class:`Microservice`.
* Helpers — per-job Guardian (K8S Job), helper pod (controller,
  load-data, store-results, log-collector) and learner StatefulSets.

Typical use::

    platform = FfDLPlatform(env, RngRegistry(0))
    platform.add_gpu_nodes(4, gpus_per_node=4, gpu_type="K80")
    job_id = env.run_until_complete(platform.submit_job(manifest))
    env.run_until_complete(platform.wait_for_terminal(job_id))
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.core import statuses as st
from repro.core.admission import AdmissionController
from repro.core.guardian import (
    delete_workloads,
    make_guardian_workload,
    release_claim,
)
from repro.core.helper import (
    halt_key,
    job_prefix,
    make_controller_workload,
    make_idle_sidecar_workload,
    make_log_collector_workload,
)
from repro.core.job import TrainingJob
from repro.core.learner import LearnerContext, make_learner_workload
from repro.core.manifest import JobManifest
from repro.core.metrics import TrainingMetricsService
from repro.core.services import Microservice
from repro.docker import Image
from repro.errors import JobNotFoundError, QuotaExceededError
from repro.etcd.client import EtcdClient
from repro.etcd.kv import EtcdStore
from repro.etcd.replicated import ReplicatedEtcd
from repro.kube.cluster import Cluster
from repro.kube.objects import (
    ContainerSpec,
    KubeJob,
    ObjectMeta,
    PodTemplate,
    RESTART_NEVER,
    RESTART_ON_FAILURE,
    StatefulSet,
)
from repro.kube.resources import NodeCapacity, ResourceRequest
from repro.kube.scheduling.framework import SchedulerConfig
from repro.mongo.client import MongoClient
from repro.mongo.database import MongoDatabase, MongoReplicaSet
from repro.nfs.provisioner import NFSProvisioner, VolumePool
from repro.objectstore.mount import BucketMount, MountCache
from repro.objectstore.service import ObjectStorageService
from repro.resilience import BufferedJobWriter, CircuitBreaker, RetryPolicy
from repro.sim.core import Environment, Event, Interrupt
from repro.sim.rng import RngRegistry


@dataclass
class PlatformConfig:
    """Deployment-level knobs of an FfDL installation."""

    scheduler_policy: str = "pack"
    gang_scheduling: bool = True
    etcd_replicas: int = 0  # 0 -> standalone in-process store (fast path)
    mongo_secondaries: int = 0
    oss_bandwidth_bps: float = 1.25e9
    mount_cache_bytes: float = 200e9
    guardian_backoff_limit: int = 3
    node_detection_latency_s: float = 40.0
    pod_eviction_timeout_s: float = 60.0
    #: -- resilience layer (see repro.resilience) ------------------------
    #: Retry policy of the etcd client; None restores the legacy
    #: single-shot behaviour.  The Mongo client always retries under
    #: ``RetryPolicy()``.
    etcd_retry: Optional[RetryPolicy] = field(default_factory=RetryPolicy)
    #: Retries for learner data/result mounts (object-store brownouts).
    mount_retry: Optional[RetryPolicy] = None
    #: Guard the etcd/mongo clients with circuit breakers.
    client_breakers: bool = False
    #: Guard the API/LCM microservice call paths with circuit breakers
    #: (deadline misses against a fully-crashed replica set trip them;
    #: the federation health probes read the same breakers).
    service_breakers: bool = False
    #: Primary-less window after a Mongo primary crash (0 = instant
    #: failover, the legacy behaviour).
    mongo_election_delay_s: float = 0.0


FRAMEWORK_IMAGES = {
    "tensorflow": Image("tensorflow", "1.5", framework="tensorflow",
                        size_bytes=2.5e9),
    "caffe": Image("caffe", "1.0", framework="caffe", size_bytes=1.8e9),
    "pytorch": Image("pytorch", "0.4", framework="pytorch",
                     size_bytes=2.2e9),
}
HELPER_IMAGE = Image("ffdl-helper", framework=None, size_bytes=4e8)
GUARDIAN_IMAGE = Image("ffdl-guardian", framework=None, size_bytes=2e8)

#: Component recovery calibration (Table 3): the LCM restarts slower
#: than the API service (``Microservice``'s default range), and a pod's
#: setup latency grows with what it binds to.
LCM_RECOVERY_S = (4.0, 6.0)
GUARDIAN_POD_SETUP_S = 0.3
HELPER_POD_SETUP_S = 2.0
LEARNER_POD_SETUP_S = (8.0, 16.0)


class FfDLPlatform:
    """One FfDL installation on one simulated cluster."""

    def __init__(self, env: Environment, rng: RngRegistry,
                 config: Optional[PlatformConfig] = None):
        self.env = env
        self.rng = rng
        self.config = config or PlatformConfig()
        cfg = self.config

        # -- platform layer -------------------------------------------------
        self.cluster = Cluster(
            env, rng,
            SchedulerConfig(policy=cfg.scheduler_policy,
                            gang=cfg.gang_scheduling),
            node_detection_latency_s=cfg.node_detection_latency_s,
            pod_eviction_timeout_s=cfg.pod_eviction_timeout_s)
        for image in (*FRAMEWORK_IMAGES.values(), HELPER_IMAGE,
                      GUARDIAN_IMAGE):
            self.cluster.push_image(image)
        self.oss = ObjectStorageService(env,
                                        bandwidth_bps=cfg.oss_bandwidth_bps)
        #: Shared mount cache; a zero capacity disables caching entirely
        #: (the realistic regime for shuffled reads of datasets that do
        #: not fit local disks — see the paper's storage lessons).
        self.mount_cache = MountCache(cfg.mount_cache_bytes) \
            if cfg.mount_cache_bytes > 0 else None
        self.nfs = NFSProvisioner(env, rng)
        #: Always None: the platform provisions a volume per job, and the
        #: pool workaround is measured on its own (the storage-pool
        #: ablation).  Kept because ``benchmarks/e2e`` reads it.
        self.volume_pool: Optional[VolumePool] = None
        if cfg.etcd_replicas > 0:
            self.etcd: Union[EtcdStore, ReplicatedEtcd] = \
                ReplicatedEtcd(env, rng, size=cfg.etcd_replicas)
        else:
            self.etcd = EtcdStore(env)
        self.etcd_breaker = CircuitBreaker(env, name="etcd") \
            if cfg.client_breakers else None
        self.etcd_client = EtcdClient(env, self.etcd, rng=rng,
                                      retry=cfg.etcd_retry,
                                      breaker=self.etcd_breaker)
        if cfg.mongo_secondaries > 0:
            self.mongo: Union[MongoDatabase, MongoReplicaSet] = \
                MongoReplicaSet(env, secondaries=cfg.mongo_secondaries,
                                election_delay_s=cfg.mongo_election_delay_s)
        else:
            self.mongo = MongoDatabase()
        self.mongo_breaker = CircuitBreaker(env, name="mongo") \
            if cfg.client_breakers else None
        self.mongo_client = MongoClient(env, self.mongo, rng=rng,
                                        retry=RetryPolicy(),
                                        breaker=self.mongo_breaker)
        #: Write-behind queue for job records: while MongoDB is degraded
        #: the platform buffers status updates and queued submissions in
        #: memory, then flushes on recovery with no lost records.
        self.status_writer = BufferedJobWriter(
            env, self.mongo_client,
            stream=rng.stream("resilience:status-writer"))

        # -- core services -----------------------------------------------------
        self.metrics = TrainingMetricsService(env)

        def service_breaker(name: str) -> Optional[CircuitBreaker]:
            if not cfg.service_breakers:
                return None
            return CircuitBreaker(env, name=name)

        self.api_service = Microservice(env, rng, "api",
                                        metrics=self.metrics,
                                        breaker=service_breaker("api"))
        self.lcm = Microservice(env, rng, "lcm",
                                recovery_range_s=LCM_RECOVERY_S,
                                metrics=self.metrics,
                                breaker=service_breaker("lcm"))
        self.metrics_service = Microservice(env, rng, "training-metrics",
                                            metrics=self.metrics)
        self.admission = AdmissionController()
        self.jobs: Dict[str, TrainingJob] = {}
        #: Per-platform id sequence (a process-global counter would make
        #: repeated scenarios diverge via name-derived shard offsets).
        self._job_seq = itertools.count(1)
        self._terminal_waiters: Dict[str, List[Event]] = {}
        #: Test hook: crash the Guardian after deployment step N (0 = off).
        self.crash_guardian_after_step = 0
        #: When False, nobody reclaims a job's objects after its Guardian
        #: permanently dies — the zombie-resource failure mode the
        #: Guardian design exists to prevent (ablation hook).
        self.enable_failure_cleanup = True
        self.cluster.api.subscribe("pods", self._on_pod_change)

    # -- topology helpers ---------------------------------------------------------

    def add_gpu_nodes(self, count: int, gpus_per_node: int = 4,
                      gpu_type: str = "K80", cpus: float = 64,
                      memory_gb: float = 512) -> None:
        self.cluster.add_nodes(count, NodeCapacity(
            cpus=cpus, memory_gb=memory_gb, gpus=gpus_per_node,
            gpu_type=gpu_type))

    def ensure_dataset(self, manifest: JobManifest) -> None:
        """Create the training-data bucket/objects if absent (stands in for
        the user having uploaded their dataset)."""
        bucket = self.oss.create_bucket(manifest.data_bucket)
        for index in range(manifest.dataset_objects):
            key = f"dataset/part-{index:05d}"
            if key not in bucket:
                bucket.put(key, manifest.dataset_object_bytes)
        self.oss.create_bucket(manifest.result_bucket)

    # -- public API (the FfDL REST/gRPC surface) --------------------------------------

    def submit_job(self, manifest: JobManifest) -> Event:
        """Submit a job; resolves with its job id once metadata is durable.

        Mirrors Section 3.2: "When a job deployment request arrives, the
        API layer stores all the metadata in MongoDB before acknowledging
        the request."
        """
        return self.api_service.call(lambda: self.env.process(
            self._submit(manifest), name="api-submit"))

    def _submit(self, manifest: JobManifest):
        manifest.validate()
        self.ensure_dataset(manifest)
        job = TrainingJob(f"job-{next(self._job_seq):06d}", manifest,
                          self.env.now)
        self.jobs[job.job_id] = job
        job.status.transition(st.QUEUED, self.env.now)
        write = self.status_writer.insert("jobs", {
            "_id": job.job_id,
            "user": manifest.user,
            "framework": manifest.framework,
            "model": manifest.model,
            "learners": manifest.learners,
            "gpus_per_learner": manifest.gpus_per_learner,
            "gpu_type": manifest.gpu_type,
            "status": st.QUEUED,
            "status_history": [{"status": st.QUEUED,
                                "time": self.env.now}],
            "submitted_at": self.env.now,
        })
        # Healthy path: acknowledge only once the record is durable in
        # MongoDB (Section 3.2).  Degraded path: the record is queued in
        # memory (never dropped) and the submission is acknowledged so an
        # outage does not reject jobs — the documented graceful-degradation
        # deviation; the writer flushes the queue on recovery.
        yield self.env.any_of([write, self.status_writer.degraded_event()])
        decision = self.admission.admit(job)
        if not decision.admitted:
            self.record_status(job, st.FAILED, decision.reason)
            raise QuotaExceededError(decision.reason)
        yield self.lcm.call(lambda: self._deploy_guardian(job))
        return job.job_id

    def job(self, job_id: str) -> TrainingJob:
        job = self.jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(job_id)
        return job

    def job_status(self, job_id: str) -> Event:
        """Read the durable job status from MongoDB through the API."""
        return self.api_service.call(
            lambda: self.mongo_client.find_one("jobs", {"_id": job_id}))

    def halt_job(self, job_id: str) -> Event:
        """User-driven HALT: learners checkpoint and stop (Section 3.8)."""
        job = self.job(job_id)
        return self.api_service.call(
            lambda: self.etcd_client.put(halt_key(job.job_id), "halt"))

    def resume_job(self, job_id: str) -> Event:
        """Resume a HALTED job from its checkpoints."""
        job = self.job(job_id)

        def do_resume():
            if job.status.current != st.HALTED:
                raise JobNotFoundError(
                    f"job {job_id} is {job.status.current}, not HALTED")
            self.record_status(job, st.RESUMED)
            self.etcd_store().delete(halt_key(job.job_id))
            job.finished_at = None
            return self.lcm.call(lambda: self._deploy_guardian(job))

        return self.api_service.call(do_resume)

    def cancel_job(self, job_id: str) -> Event:
        """User-driven cancel: tear the job down immediately.

        Unlike :meth:`halt_job` (which checkpoints and waits for learners
        to stop cleanly), cancel reclaims resources right away; the job
        lands in HALTED and can be resumed from its last checkpoint.
        """
        job = self.job(job_id)

        def do_cancel():
            if not job.status.is_terminal:
                self.preempt_job(job_id, reason="user cancelled")
            return job.status.current

        return self.api_service.call(do_cancel)

    def list_jobs(self, user: Optional[str] = None) -> List[TrainingJob]:
        """All known jobs, optionally filtered by owner."""
        jobs = list(self.jobs.values())
        if user is not None:
            jobs = [j for j in jobs if j.manifest.user == user]
        return sorted(jobs, key=lambda j: j.submitted_at)

    def wait_for_terminal(self, job_id: str) -> Event:
        """Event firing when the job reaches COMPLETED/FAILED/HALTED."""
        job = self.job(job_id)
        done = self.env.event()
        if job.status.current in (st.COMPLETED, st.FAILED, st.HALTED):
            done.succeed(job.status.current)
            return done
        self._terminal_waiters.setdefault(job_id, []).append(done)
        return done

    def stream_logs(self, job_id: str, source: Optional[str] = None):
        return self.metrics.log_index.logs_for(job_id, source)

    # -- status plumbing --------------------------------------------------------------

    def record_status(self, job: TrainingJob, status: str,
                      message: str = "") -> None:
        """Record a (tolerated) status transition locally, in MongoDB and
        in the metrics service."""
        current = job.status.current
        if current == status:
            return
        if not st.is_valid_transition(current, status):
            return  # stale update racing a terminal transition
        job.status.transition(status, self.env.now, message)
        self.metrics.emit("job_status_change", 1.0, job=job.job_id,
                          status=status)
        if status in (st.COMPLETED, st.FAILED, st.HALTED):
            job.finished_at = self.env.now
            self.admission.release(job.job_id)
            for waiter in self._terminal_waiters.pop(job.job_id, []):
                if not waiter.triggered:
                    waiter.succeed(status)

        # Write-behind: the update is queued (and applied in order after
        # the job's insert); during a store outage it is buffered rather
        # than lost.
        self.status_writer.update(
            "jobs", {"_id": job.job_id},
            {"$set": {"status": status},
             "$push": {"status_history": {"status": status,
                                          "time": self.env.now,
                                          "message": message}}})

    def etcd_store(self) -> EtcdStore:
        if isinstance(self.etcd, ReplicatedEtcd):
            return self.etcd.hub
        return self.etcd

    # -- deployment internals (called by the Guardian) -----------------------------------

    def _deploy_guardian(self, job: TrainingJob) -> Event:
        """LCM action: create the Guardian as a K8S Job ("its creation is a
        very quick single step process")."""
        attempt_suffix = "" if job.guardian_attempts == 0 \
            else f"-r{job.guardian_attempts}"
        name = f"{job.guardian_job_name}{attempt_suffix}"
        template = PodTemplate(
            containers=[ContainerSpec(
                "guardian", GUARDIAN_IMAGE.reference,
                make_guardian_workload(self, job))],
            # "Guardians consume only a fraction of a CPU and need little
            # RAM" (Section 3.7).
            resources=ResourceRequest(cpus=0.1, memory_gb=0.25),
            restart_policy=RESTART_NEVER,
            labels={"type": "jobmonitor", "job": job.job_id})
        template.node_selector = {}
        kube_job = KubeJob(
            meta=ObjectMeta(name=name, labels={"job": job.job_id}),
            template=template,
            backoff_limit=self.config.guardian_backoff_limit)
        kube_job.template.labels["guardian-for"] = job.job_id
        self.cluster.api.create_job(kube_job)
        done = self.env.event()
        done.succeed(name)
        return done

    def provision_volume(self, job: TrainingJob) -> Event:
        return self.nfs.provision(job.pvc_name)

    def _mount_stream(self):
        if self.config.mount_retry is None:
            return None
        return self.rng.stream("resilience:bucket-mount")

    def _data_mount(self, manifest: JobManifest) -> BucketMount:
        return BucketMount(self.env, self.oss, manifest.data_bucket,
                           cache=self.mount_cache,
                           token=manifest.credentials_token,
                           retry=self.config.mount_retry,
                           retry_stream=self._mount_stream())

    def _result_mount(self, manifest: JobManifest) -> BucketMount:
        return BucketMount(self.env, self.oss, manifest.result_bucket,
                           cache=None, token=manifest.credentials_token,
                           retry=self.config.mount_retry,
                           retry_stream=self._mount_stream())

    def _lazy_volume_workload(self, job: TrainingJob, factory):
        """Wrap a (volume -> workload) factory so the NFS volume is
        resolved when the container starts — by which time the PVC has
        bound (the scheduler gates the pod on it)."""

        def workload(container):
            inner = factory(job.volume)
            inner_proc = self.env.process(
                inner(container), name=f"lazyvol:{container.name}")
            try:
                result = yield inner_proc
                return result
            except Interrupt:
                # The container was killed: take the inner process down
                # with us, or it would keep running orphaned.
                if inner_proc.is_alive:
                    inner_proc.interrupt("killed")
                raise

        return workload

    def create_helper(self, job: TrainingJob) -> None:
        from repro.kube.objects import Deployment

        manifest = job.manifest
        controller = self._lazy_volume_workload(
            job, lambda volume: make_controller_workload(
                self.env, manifest, job.job_id, volume, self.etcd_client,
                job.controller_state))
        log_collector = self._lazy_volume_workload(
            job, lambda volume: make_log_collector_workload(
                self.env, job.job_id, volume, self.metrics.log_index))
        template = PodTemplate(
            containers=[
                ContainerSpec("controller", HELPER_IMAGE.reference,
                              controller),
                ContainerSpec("load-data", HELPER_IMAGE.reference,
                              make_idle_sidecar_workload(self.env)),
                ContainerSpec("store-results", HELPER_IMAGE.reference,
                              make_idle_sidecar_workload(self.env)),
                ContainerSpec("log-collector", HELPER_IMAGE.reference,
                              log_collector),
            ],
            resources=ResourceRequest(cpus=0.5, memory_gb=1.0),
            restart_policy=RESTART_ON_FAILURE,
            labels={"type": "lhelper", "job": job.job_id})
        template.volume_claims = [job.pvc_name]
        deployment = Deployment(
            meta=ObjectMeta(name=job.helper_name,
                            labels={"job": job.job_id}),
            replicas=1, template=template)
        deployment.template.labels["helper-for"] = job.job_id
        # Helper pods bind the shared NFS volume at startup.
        template.node_selector = {}
        self.cluster.api.create_deployment(deployment)

    def create_learners(self, job: TrainingJob) -> None:
        manifest = job.manifest
        ctx = LearnerContext(
            env=self.env, manifest=manifest, job_id=job.job_id,
            volume=None,  # bound by the time any learner starts
            data_mount=self._data_mount(manifest),
            result_mount=self._result_mount(manifest))
        ctx.halt_requested = (lambda: self.etcd_store().get(
            halt_key(job.job_id)) is not None)
        ctx.watch_halt = lambda: self.etcd_store().watch(halt_key(job.job_id))
        states = job.learner_states

        def dispatching_workload(container):
            # One template serves every ordinal: recover the learner index
            # from the pod name ("<job>-learner-<i>/<container>").
            ctx.volume = job.volume
            pod_name = container.name.split("/")[0]
            index = int(pod_name.rsplit("-", 1)[1])
            inner = make_learner_workload(ctx, states[index])
            inner_proc = self.env.process(
                inner(container), name=f"learner:{pod_name}")
            try:
                result = yield inner_proc
                return result
            except Interrupt:
                # Container killed: the training process dies with it.
                if inner_proc.is_alive:
                    inner_proc.interrupt("killed")
                raise

        image = FRAMEWORK_IMAGES[manifest.framework]
        lo, hi = LEARNER_POD_SETUP_S
        setup = lo + (hi - lo) * self.rng.stream("learner-setup").random()
        template = PodTemplate(
            containers=[ContainerSpec("learner", image.reference,
                                      dispatching_workload)],
            resources=ResourceRequest(
                cpus=manifest.effective_cpus(),
                memory_gb=manifest.effective_memory_gb(),
                gpus=manifest.gpus_per_learner,
                gpu_type=manifest.gpu_type
                if manifest.gpus_per_learner else None),
            restart_policy=RESTART_ON_FAILURE,
            labels={"type": "learner", "job": job.job_id})
        template.volume_claims = [job.pvc_name]
        gang_size = manifest.learners + manifest.parameter_servers
        statefulset = StatefulSet(
            meta=ObjectMeta(name=job.statefulset_name,
                            labels={"job": job.job_id}),
            replicas=manifest.learners, template=template,
            gang=self.config.gang_scheduling,
            gang_name=job.statefulset_name, gang_size=gang_size)
        # Learners take longest to restart: "binding to the Object Storage
        # Service and persistent NFS volumes takes longer" (Table 3).
        template.labels["pod-setup"] = str(setup)
        self.cluster.api.create_statefulset(statefulset)
        if manifest.parameter_servers > 0:
            self._create_parameter_servers(job, gang_size)
        # Pod annotations carry setup latency; PodTemplate has no
        # annotation field, so patch pods as they are created instead.

    def _create_parameter_servers(self, job: TrainingJob,
                                  gang_size: int) -> None:
        """Containerized parameter servers join the job's gang (CPU-only)."""
        manifest = job.manifest

        def ps_workload(container):
            # Serves parameters until the Guardian tears the job down.
            yield self.env.event()

        image = FRAMEWORK_IMAGES[manifest.framework]
        template = PodTemplate(
            containers=[ContainerSpec("ps", image.reference, ps_workload)],
            resources=ResourceRequest(
                cpus=manifest.cpus_per_parameter_server, memory_gb=8.0),
            restart_policy=RESTART_ON_FAILURE,
            labels={"type": "ps", "job": job.job_id})
        template.volume_claims = [job.pvc_name]
        ps_set = StatefulSet(
            meta=ObjectMeta(name=job.ps_set_name,
                            labels={"job": job.job_id}),
            replicas=manifest.parameter_servers, template=template,
            gang=self.config.gang_scheduling,
            gang_name=job.statefulset_name, gang_size=gang_size)
        self.cluster.api.create_statefulset(ps_set)

    def _on_pod_change(self, verb: str, pod) -> None:
        # Stamp setup latencies onto FfDL pods at creation time.
        if verb == "ADDED" and "pod-setup-seconds" not in pod.meta.annotations:
            pod_type = pod.meta.labels.get("type")
            if pod_type == "learner":
                setup = pod.meta.labels.get("pod-setup") or \
                    pod.spec.node_selector.get("pod-setup", "")
                setup = setup or str(sum(LEARNER_POD_SETUP_S) / 2)
                pod.meta.annotations["pod-setup-seconds"] = setup
            elif pod_type == "lhelper":
                pod.meta.annotations["pod-setup-seconds"] = str(
                    HELPER_POD_SETUP_S)
            elif pod_type == "jobmonitor":
                pod.meta.annotations["pod-setup-seconds"] = str(
                    GUARDIAN_POD_SETUP_S)
        # Detect Guardians whose K8S Job exhausted its retries.  A guardian
        # pod can end as Failed (crash) or simply vanish (node eviction).
        if (verb == "MODIFIED" and pod.phase == "Failed") or \
                verb == "DELETED":
            job_id = pod.meta.labels.get("job")
            if job_id is None or pod.meta.labels.get("type") != \
                    "jobmonitor":
                return
            job = self.jobs.get(job_id)
            if job is None:
                return
            kube_job = self.cluster.api.find_by_uid(("jobs",),
                                                    pod.meta.owner)
            if kube_job is None:
                return
            if kube_job.succeeded == 0 and \
                    kube_job.failed_attempts > kube_job.backoff_limit:
                self.record_status(job, st.FAILED,
                                   "guardian exhausted retries")
                # Nobody is left to garbage-collect the job: reclaim its
                # objects here or they would hold GPUs forever.
                if self.enable_failure_cleanup:
                    self._cleanup_job_objects(job)

    def _cleanup_job_objects(self, job: TrainingJob) -> None:
        """Best-effort teardown of a job's Kubernetes objects (used when
        the Guardian can no longer do it)."""
        delete_workloads(self.cluster.api, job)
        release_claim(self.cluster.api, job)
        self.etcd_store().delete_prefix(job_prefix(job.job_id))

    # -- preemption (driven by the admission-control layer) ----------------------------

    def preempt_job(self, job_id: str, reason: str = "preempted") -> None:
        """Tear a running job down, to be resumed later (Section 3.6).

        Teardown mirrors the production ordering: the Guardian stops, the
        volume claim is reclaimed, and the workload sets are deleted a
        moment later — so queued pods can briefly reference a deleted PVC
        (the 'persistentvolumeclaim not found' scheduler events of
        Table 8).
        """
        job = self.job(job_id)
        job.preempted = True
        api = self.cluster.api
        # Stop the Guardian first so it does not observe the teardown as a
        # failure.
        for name in (job.guardian_job_name,
                     *(f"{job.guardian_job_name}-r{i}"
                       for i in range(1, job.guardian_attempts + 1))):
            if api.exists("jobs", name):
                api.delete_job(name)
        release_claim(api, job)

        def teardown_sets():
            # PVC reclaim settles before the workload sets are deleted
            # (the production teardown pace); queued pods can observe the
            # missing claim in between.
            yield self.env.timeout(5.0)
            delete_workloads(api, job)

        self.env.process(teardown_sets(), name=f"preempt:{job.job_id}")
        self.etcd_store().delete_prefix(job_prefix(job.job_id))
        self.admission.note_preempted(job.job_id)
        self.record_status(job, st.HALTED, reason)

    # -- fault-injection surface (benches and tests) -------------------------------------

    def start_utilization_sampler(self, interval_s: float = 60.0):
        """Periodically record cluster GPU utilization into the metrics
        service ("FfDL also monitors the usage of the cluster in terms of
        the percentage of GPUs currently allotted to jobs", Section 3.7).
        Returns the sampler process (interrupt it to stop)."""

        def sampler():
            while True:
                self.metrics.emit("cluster_gpu_utilization",
                                  self.cluster.gpu_utilization())
                self.metrics.emit("cluster_allocated_gpus",
                                  float(self.cluster.allocated_gpus()))
                yield self.env.timeout(interval_s)

        return self.env.process(sampler(), name="gpu-sampler")

    def crash_api_replica(self) -> float:
        return self.api_service.crash_replica()

    def crash_lcm_replica(self) -> float:
        return self.lcm.crash_replica()

    def guardian_pod(self, job_id: str):
        """The currently live Guardian pod for a job, if any."""
        for pod in self.cluster.api.list_pods():
            if pod.meta.labels.get("job") == job_id and \
                    pod.meta.labels.get("type") == "jobmonitor" and \
                    not pod.is_terminal:
                return pod
        return None

    def learner_pods(self, job_id: str):
        return [pod for pod in self.cluster.api.list_pods()
                if pod.meta.labels.get("job") == job_id
                and pod.meta.labels.get("type") == "learner"]

    def helper_pod(self, job_id: str):
        for pod in self.cluster.api.list_pods():
            if pod.meta.labels.get("job") == job_id and \
                    pod.meta.labels.get("type") == "lhelper" and \
                    not pod.is_terminal:
                return pod
        return None

    def kill_pod_containers(self, pod_name: str) -> None:
        """Crash every container in a pod (kubectl-style fault)."""
        pod = self.cluster.api.get_pod(pod_name)
        kubelet = self.cluster.kubelets[pod.node_name]
        for container in kubelet.containers_for(pod_name):
            container.kill()
