"""The pre-production scale test (Table 7 and Figure 5).

Section 5.5: a 680-GPU cluster, light load (70 concurrent jobs) vs heavy
load (700 concurrent jobs), staggered starts in four batches (K80 twice in
the first 15 minutes, P100 after 30, V100 after 32), every job a
ResNet-50/TensorFlow ImageNet training run streaming its dataset from
object storage through an s3fs mount.

The heavy-load degradation by GPU type (K80 6-8%, P100 ~24%, V100 ~51%)
emerges from shared object-storage bandwidth: faster GPUs demand more
bytes per second, so when the link saturates they lose the most.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List

from repro.core import FfDLPlatform, JobManifest, PlatformConfig
from repro.core import statuses as st
from repro.sim.core import Environment
from repro.sim.rng import RngRegistry


@dataclass
class BatchSpec:
    """One staggered batch of identical jobs (Table 7 rows)."""

    name: str
    gpu_type: str
    jobs_light: int
    jobs_heavy: int
    start_s: float


#: Table 7, verbatim.
BATCHES = (
    BatchSpec("K80-batch1", "K80", 30, 300, 30.0),
    BatchSpec("K80-batch2", "K80", 24, 240, 15 * 60.0),
    BatchSpec("P100-batch3", "P100", 11, 110, 30 * 60.0),
    BatchSpec("V100-batch4", "V100", 5, 50, 32 * 60.0),
)


@dataclass
class ScaleTestConfig:
    """Cluster and workload shape, with a linear scale knob.

    ``scale=1.0`` is the paper's full 680-GPU test; smaller scales shrink
    the cluster and the job counts together, preserving the
    contention ratios (used for fast benchmark runs).
    """

    scale: float = 1.0
    #: What no caller varies is a class constant, not a field:
    #: ``benchmarks/e2e`` reads these off a config.
    iterations: ClassVar[int] = 5150
    dataset_objects: ClassVar[int] = 30
    k80_nodes: ClassVar[int] = 130   # x4 GPUs = 520
    p100_nodes: ClassVar[int] = 55   # x2 GPUs = 110
    v100_nodes: ClassVar[int] = 25   # x2 GPUs = 50
    batch_size: ClassVar[int] = 64
    dataset_object_bytes: ClassVar[float] = 352e6
    #: Aggregate OSS bandwidth; scales with the cluster.  Calibrated so the
    #: heavy-load degradation lands near the paper's Figure 5 (K80 ~8%,
    #: P100 ~26%, V100 ~35-50%).
    oss_bandwidth_bps: ClassVar[float] = 6.5e9

    def scaled(self, value: float) -> int:
        return max(1, int(round(value * self.scale)))


@dataclass
class BatchResult:
    name: str
    gpu_type: str
    jobs: int
    completed: int
    mean_runtime_s: float
    runtimes: List[float] = field(default_factory=list)


@dataclass
class ScaleTestResult:
    load: str  # "light" | "heavy"
    batches: Dict[str, BatchResult]
    total_jobs: int
    failed_jobs: int
    makespan_s: float
    aggregate_images_per_s: float
    aggregate_iterations_per_s: float


def build_platform(env: Environment, rng: RngRegistry,
                   config: ScaleTestConfig) -> FfDLPlatform:
    platform_config = PlatformConfig(
        gang_scheduling=True,
        oss_bandwidth_bps=config.oss_bandwidth_bps * config.scale,
        # ImageNet-scale datasets with shuffled reads defeat the mount
        # cache (the paper's own storage lesson): jobs stream every pass.
        mount_cache_bytes=0,
    )
    platform = FfDLPlatform(env, rng, platform_config)
    platform.add_gpu_nodes(config.scaled(config.k80_nodes),
                           gpus_per_node=4, gpu_type="K80")
    platform.add_gpu_nodes(config.scaled(config.p100_nodes),
                           gpus_per_node=2, gpu_type="P100")
    platform.add_gpu_nodes(config.scaled(config.v100_nodes),
                           gpus_per_node=2, gpu_type="V100")
    platform.admission.register("scale-test", gpu_quota=10**6)
    return platform


def job_manifest(config: ScaleTestConfig, batch: BatchSpec,
                 index: int) -> JobManifest:
    return JobManifest(
        name=f"{batch.name}-{index}",
        user="scale-test",
        framework="tensorflow", model="resnet50",
        data_bucket="imagenet", result_bucket="scale-results",
        learners=1, gpus_per_learner=1, gpu_type=batch.gpu_type,
        iterations=config.iterations, batch_size=config.batch_size,
        dataset_objects=config.dataset_objects,
        dataset_object_bytes=config.dataset_object_bytes)


def run_scale_test(load: str, config: ScaleTestConfig,
                   seed: int = 0) -> ScaleTestResult:
    """Run one load scenario end to end; returns per-batch results."""
    if load not in ("light", "heavy"):
        raise ValueError("load must be 'light' or 'heavy'")
    env = Environment()
    platform = build_platform(env, RngRegistry(seed), config)
    job_ids_by_batch: Dict[str, List[str]] = {b.name: [] for b in BATCHES}

    def submit_batch(batch: BatchSpec, count: int):
        yield env.timeout(max(0.0, batch.start_s - env.now))
        for index in range(count):
            manifest = job_manifest(config, batch, index)
            job_id = yield platform.submit_job(manifest)
            job_ids_by_batch[batch.name].append(job_id)

    submitters = []
    for batch in BATCHES:
        count = config.scaled(batch.jobs_light if load == "light"
                              else batch.jobs_heavy)
        submitters.append(env.process(submit_batch(batch, count),
                                      name=f"submit:{batch.name}"))
    # Run until submission finished and every job reached a terminal state.
    horizon = 10 * 86400.0
    env.run_until_complete(env.all_of(submitters), limit=horizon)
    env.run_until_complete(
        env.process(_drain(env, platform, job_ids_by_batch)),
        limit=horizon)

    batches: Dict[str, BatchResult] = {}
    total_images = 0.0
    failed = 0
    makespan = 0.0
    total_jobs = 0
    for batch in BATCHES:
        runtimes = []
        completed = 0
        for job_id in job_ids_by_batch[batch.name]:
            total_jobs += 1
            job = platform.job(job_id)
            if job.status.current == st.COMPLETED:
                completed += 1
                # DOWNLOADING can be coalesced away by the controller's
                # batching under heavy load; fall back along the pipeline.
                start = (job.status.time_of(st.DOWNLOADING) or
                         job.status.time_of(st.PROCESSING) or
                         job.status.time_of(st.DEPLOYING))
                runtimes.append(job.finished_at - start)
                makespan = max(makespan, job.finished_at)
                total_images += (job.manifest.iterations *
                                 (job.manifest.batch_size or 64))
            else:
                failed += 1
        batches[batch.name] = BatchResult(
            name=batch.name, gpu_type=batch.gpu_type,
            jobs=len(job_ids_by_batch[batch.name]), completed=completed,
            mean_runtime_s=(sum(runtimes) / len(runtimes)
                            if runtimes else float("nan")),
            runtimes=runtimes)
    elapsed = makespan or env.now
    return ScaleTestResult(
        load=load, batches=batches, total_jobs=total_jobs,
        failed_jobs=failed, makespan_s=elapsed,
        aggregate_images_per_s=total_images / elapsed if elapsed else 0.0,
        aggregate_iterations_per_s=(total_images / 64) / elapsed
        if elapsed else 0.0)


def _drain(env: Environment, platform: FfDLPlatform,
           job_ids_by_batch: Dict[str, List[str]]):
    """Wait until every submitted job is terminal (submission is staggered,
    so poll the growing id set at a coarse interval)."""
    while True:
        yield env.timeout(60.0)
        ids = [job_id for ids in job_ids_by_batch.values()
               for job_id in ids]
        if not ids:
            continue
        jobs = [platform.job(job_id) for job_id in ids]
        if all(j.status.is_terminal for j in jobs) and \
                env.now > 40 * 60.0:
            return


def degradation_percent(light: ScaleTestResult,
                        heavy: ScaleTestResult) -> Dict[str, float]:
    """Per-batch heavy-vs-light mean-runtime degradation (Figure 5)."""
    out = {}
    for name, light_batch in light.batches.items():
        heavy_batch = heavy.batches[name]
        out[name] = 100.0 * (heavy_batch.mean_runtime_s /
                             light_batch.mean_runtime_s - 1.0)
    return out
