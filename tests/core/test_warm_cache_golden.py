"""Golden end state of a warm-cache platform run.

Six jobs of two tenants share the platform's mount cache (the second
job of a tenant trains on hits only), gangs of 2 and 4 learners read in
lockstep through one mount, and one learner is killed in the middle of
its training loop and resumes from a checkpoint.  Everything a change
to *how the kernel carries a cache hit* must leave alone is pinned:
every status of every job with its timestamp, learner progress, cache
and mount counters, object-store traffic, the etcd revision and the
next draw of every RNG stream.  ``env.events_processed`` is
deliberately not part of it.
"""

from tests.core.conftest import make_manifest, make_platform, submit
from tests.golden import check, next_draw

LEARNERS = (1, 2, 4, 1, 2, 1)
KILL_AT_S = 2034.4978


def run_warm_cache_scenario():
    env, platform = make_platform(seed=3, nodes=6)
    mounts = []
    make_data_mount = platform._data_mount

    def recording_data_mount(manifest):
        mounts.append(make_data_mount(manifest))
        return mounts[-1]

    platform._data_mount = recording_data_mount
    job_ids = []
    for i, learners in enumerate(LEARNERS):
        user = ("alice", "bob")[i % 2]
        job_ids.append(submit(env, platform, make_manifest(
            name=f"warm-{i}", user=user, learners=learners,
            iterations=1500 + 350 * i, ckpt=500,
            dataset_object_bytes=64e6, data_bucket=f"data-{user}")))
        env.run(until=env.now + 7)
    # Learners 0 and 1 of the 4-gang read in lockstep; at this instant
    # each has issued 8 of the 13 cache hits of one chunk's fetch.
    env.run(until=KILL_AT_S)
    platform.kill_pod_containers(platform.learner_pods(job_ids[2])[1].name)
    for job_id in job_ids:
        env.run_until_complete(platform.wait_for_terminal(job_id),
                               limit=1e7)
    env.run(until=env.now + 60)
    jobs = [platform.job(job_id) for job_id in job_ids]
    return env, platform, jobs, mounts


def test_warm_cache_run_ends_in_the_recorded_state():
    env, platform, jobs, mounts = run_warm_cache_scenario()
    cache, oss = platform.mount_cache, platform.oss
    check("core/warm-cache", {
        "now": env.now,
        "counters": {
            "etcd_revision": platform.etcd.revision,
            "cache": {"hits": cache.hits, "misses": cache.misses,
                      "used_bytes": cache.used_bytes},
            "mounts": [[m.reads, m.bytes_read] for m in mounts],
            "oss": {"downloads_started": oss.downloads_started,
                    "uploads_started": oss.uploads_started,
                    "bytes_transferred": oss.link.bytes_transferred}},
        "jobs": {job.manifest.name: {
            "learners": [[s.iterations_done, s.checkpoints_written,
                          s.checkpoints_loaded, s.restarts]
                         for s in job.learner_states],
            "timeline": job.status.timeline()} for job in jobs},
        "draws": {name: next_draw(stream) for name, stream
                  in sorted(platform.rng._streams.items())}})
