"""Ablation — the object-storage mount cache across training epochs.

Section 3.7: the mount driver "streams files on demand and caches them so
they can be reused across training epochs and jobs.  This is an important
optimization for several use cases."

Ablation: one job training for three epochs over a dataset that fits the
cache, with the cache enabled vs disabled.  With the cache, epochs 2-3
read from local disk; without it, every epoch re-streams the dataset over
the shared link.
"""

from repro.analysis import print_table
from repro.core import FfDLPlatform, JobManifest, PlatformConfig
from repro.core import statuses as st
from repro.sim import Environment, RngRegistry

from tests.golden import check

EPOCHS = 3
DATASET_OBJECTS = 12
OBJECT_BYTES = 256e6


def run_job(cache_bytes):
    env = Environment()
    config = PlatformConfig(mount_cache_bytes=cache_bytes,
                            oss_bandwidth_bps=2e8)  # slow link: 200 MB/s
    platform = FfDLPlatform(env, RngRegistry(5), config)
    platform.add_gpu_nodes(1, gpus_per_node=4, gpu_type="K80")
    platform.admission.register("bench", gpu_quota=8)
    # iterations = EPOCHS passes over the dataset.
    spec_samples = OBJECT_BYTES / 110_000.0
    iters_per_object = int(spec_samples / 128)
    iterations = EPOCHS * DATASET_OBJECTS * iters_per_object
    manifest = JobManifest(
        name="cache-ablation", user="bench", framework="tensorflow",
        model="resnet50", learners=1, gpus_per_learner=1, gpu_type="K80",
        iterations=iterations, batch_size=128,
        dataset_objects=DATASET_OBJECTS,
        dataset_object_bytes=OBJECT_BYTES)
    job_id = env.run_until_complete(platform.submit_job(manifest))
    env.run_until_complete(platform.wait_for_terminal(job_id), limit=1e8)
    job = platform.job(job_id)
    assert job.status.current == st.COMPLETED
    processing = (job.status.time_of(st.STORING) -
                  job.status.time_of(st.PROCESSING))
    streamed_gb = platform.oss.link.bytes_transferred / 1e9
    hit_rate = platform.mount_cache.hit_rate if platform.mount_cache \
        else 0.0
    return processing, streamed_gb, hit_rate


def run_ablation():
    cached = run_job(cache_bytes=200e9)
    uncached = run_job(cache_bytes=0)
    print_table(
        ["mount cache", "PROCESSING time", "bytes streamed from OSS",
         "cache hit rate"],
        [["enabled", f"{cached[0]:.0f}s", f"{cached[1]:.1f} GB",
          f"{cached[2]:.0%}"],
         ["disabled", f"{uncached[0]:.0f}s", f"{uncached[1]:.1f} GB",
          "-"]],
        title=f"Ablation: mount cache over {EPOCHS} epochs")
    return cached, uncached


def test_ablation_mount_cache():
    cached, uncached = run_ablation()
    cached_time, cached_gb, hit_rate = cached
    uncached_time, uncached_gb, _ = uncached
    # Without the cache every epoch re-streams: ~EPOCHS x the bytes.
    assert uncached_gb > (EPOCHS - 0.5) * cached_gb / 1.5
    assert cached_gb < uncached_gb / 2
    # And the job runs faster with the cache on a slow link.
    assert cached_time < uncached_time
    assert hit_rate > 0.5
    check("paper/ablation-cache", {
        mode: {"processing_s": run[0], "streamed_gb": run[1],
               "hit_rate": run[2]}
        for mode, run in (("enabled", cached), ("disabled", uncached))})
