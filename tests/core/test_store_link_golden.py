"""Golden end state of a run that leans on the stores and the link.

Twelve jobs (gangs of 1, 2 and 4 learners) train with the mount cache
off, so every chunk streams through one object-store link that is
saturated for most of the run (16 transfers in flight) and browns out
for a minute; a one-second etcd outage makes some client operations
succeed on a retry and one exhaust its six attempts.  Everything a
change to *how the kernel carries a store round trip or a link state
change* must leave alone is pinned: every status of every job with its
timestamp, the link's byte count, store revisions and operation
counts, retries, and the next draw of every RNG stream.
``env.events_processed`` is deliberately not part of it.
"""

from repro.core import PlatformConfig
from repro.resilience import RetryPolicy

from tests.core.conftest import make_manifest, make_platform, submit
from tests.golden import check, next_draw

LEARNERS = (1, 2, 1, 4)
ETCD_OUTAGE_S = (61.0, 62.0)
BROWNOUT_S = (200.0, 260.0)


def run_store_link_scenario():
    env, platform = make_platform(
        seed=11, nodes=8, gpu_type="V100", config=PlatformConfig(
            mount_cache_bytes=0, oss_bandwidth_bps=3e8,
            etcd_retry=RetryPolicy(max_attempts=6)))
    job_ids = []
    for i in range(12):
        job_ids.append(submit(env, platform, make_manifest(
            name=f"pin-{i}", user=("alice", "bob")[i % 2],
            learners=LEARNERS[i % 4], gpu_type="V100",
            iterations=300 + 40 * i, ckpt=150,
            dataset_object_bytes=128e6)))
        env.run(until=env.now + 3)
    env.run(until=ETCD_OUTAGE_S[0])
    platform.etcd_client.set_available(False)
    env.run(until=ETCD_OUTAGE_S[1])
    platform.etcd_client.set_available(True)
    env.run(until=BROWNOUT_S[0])
    platform.oss.set_bandwidth(1e8)
    env.run(until=BROWNOUT_S[1])
    platform.oss.restore_bandwidth()
    for job_id in job_ids:
        env.run_until_complete(platform.wait_for_terminal(job_id),
                               limit=1e6)
    env.run(until=env.now + 30)
    return env, platform, [platform.job(job_id) for job_id in job_ids]


def test_store_and_link_run_ends_in_the_recorded_state():
    env, platform, jobs = run_store_link_scenario()
    oss = platform.oss
    etcd, mongo = platform.etcd_client, platform.mongo_client
    check("core/store-link", {
        "now": env.now,
        "counters": {
            "oss": {"downloads_started": oss.downloads_started,
                    "uploads_started": oss.uploads_started,
                    "bytes_transferred": oss.link.bytes_transferred},
            "etcd": {"revision": platform.etcd.revision,
                     "ops_issued": etcd.ops_issued, "retries": etcd.retries},
            "mongo": {"ops_issued": mongo.ops_issued,
                      "retries": mongo.retries}},
        "jobs": {job.manifest.name: {
            "finished_at": job.finished_at,
            "learners": [[s.iterations_done, s.checkpoints_written]
                         for s in job.learner_states],
            "timeline": job.status.timeline()} for job in jobs},
        "draws": {name: next_draw(stream) for name, stream
                  in sorted(platform.rng._streams.items())}})
