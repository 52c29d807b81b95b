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

import hashlib
import json
import random

from repro.core import statuses as st

from tests.core.conftest import make_manifest, make_platform, submit

LEARNERS = (1, 2, 4, 1, 2, 1)
KILL_AT_S = 2034.4978


def _digest(payload):
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _next_draw(stream):
    peek = random.Random(0)
    peek.setstate(stream.getstate())
    return peek.random()


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
    assert [job.status.current for job in jobs] == [st.COMPLETED] * 6
    cache = platform.mount_cache
    assert (cache.hits, cache.misses, cache.used_bytes) == \
        (6786, 42, 2048000000.0)
    assert [(m.reads, m.bytes_read) for m in mounts] == [
        (394, 25216000000.0), (970, 62080000000.0),
        (2432, 155648000000.0), (667, 42688000000.0),
        (1516, 97024000000.0), (849, 54336000000.0)]
    assert (platform.oss.downloads_started, platform.oss.uploads_started,
            platform.oss.link.bytes_transferred) == \
        (46, 57, 33187999999.999184)
    assert platform.etcd.revision == 74
    assert env.now == 6614.761762561008
    assert _digest([job.status.timeline() for job in jobs]) == \
        "738b0eafbb636cfb"
    assert _digest([[(s.iterations_done, s.checkpoints_written,
                      s.checkpoints_loaded, s.restarts)
                     for s in job.learner_states] for job in jobs]) == \
        "1f4b6d7b37e955be"
    assert _digest(sorted((name, _next_draw(stream)) for name, stream
                          in platform.rng._streams.items())) == \
        "092001f5ad95108f"
