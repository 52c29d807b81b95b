"""A learner reading through a warm mount cache.

After the first epoch every chunk's data comes from the mount cache, so
a learner spends most of its events waiting on cache hits.  These tests
pin that path's simulated timing and its behaviour under a kill.
"""

from repro.core.learner import (
    LearnerContext, LearnerState, make_learner_workload,
)
from repro.core.manifest import JobManifest
from repro.docker import Container, Image
from repro.docker.runtime import SIGKILL_EXIT_CODE
from repro.nfs import NFSVolume
from repro.objectstore import BucketMount, MountCache, ObjectStorageService
from repro.sim import Environment

#: ResNet-50/TensorFlow: 110 kB samples, batch 128 -> 10 iterations per
#: object, so one 50-iteration chunk spans five of the 8 objects.
OBJECT_BYTES = 110_000.0 * 128 * 10
OBJECTS = 8


def start_learner(iterations):
    env = Environment()
    oss = ObjectStorageService(env, bandwidth_bps=1e9,
                               request_latency_s=0.05)
    data = oss.create_bucket("data")
    oss.create_bucket("results")
    for part in range(OBJECTS):
        data.put(f"dataset/part-{part:05d}", OBJECT_BYTES)
    manifest = JobManifest(name="unit", user="u", framework="tensorflow",
                           model="resnet50", iterations=iterations,
                           dataset_objects=OBJECTS,
                           dataset_object_bytes=OBJECT_BYTES)
    ctx = LearnerContext(
        env=env, manifest=manifest, job_id="job-x", volume=NFSVolume("v"),
        data_mount=BucketMount(env, oss, "data", cache=MountCache(1e12)),
        result_mount=BucketMount(env, oss, "results"))
    state = LearnerState(index=0)
    container = Container(env, Image("learner"), "learner-0",
                          make_learner_workload(ctx, state))
    container.start()
    return env, ctx, state, container


def test_statuses_land_at_pinned_times_across_cached_objects():
    env, ctx, state, container = start_learner(iterations=400)
    seen = []

    def on_change(path):
        if path == ctx.status_path(0):
            seen.append((ctx.volume.read(path), env.now))

    ctx.volume.subscribe(on_change)
    env.run()
    assert container.exit_code == 0
    assert state.iterations_done == 400
    # Exact floats: a cache hit must cost cached_read_latency_s of
    # simulated time and nothing else, however the kernel carries it.
    assert seen == [("DOWNLOADING", 0.0),
                    ("PROCESSING", 0.7632000000000001),
                    ("STORING", 761.3578960806622),
                    ("COMPLETED", 761.9078960806621)]
    mount = ctx.data_mount
    assert (mount.reads, mount.bytes_read) == (44, 44 * OBJECT_BYTES)
    assert (mount.cache.hits, mount.cache.misses) == (36, 8)


def test_kill_while_waiting_on_a_hit_drops_the_wakeup():
    env, ctx, state, container = start_learner(iterations=4000)
    mount = ctx.data_mount
    returned = []
    real_read = mount.read

    def recording_read(key):
        returned.append(real_read(key))
        return returned[-1]

    mount.read = recording_read
    while mount.cache.hits == 0:
        env.step()
    # The learner has just yielded the hit's event and is parked on it.
    fired = []
    returned[-1].callbacks.append(lambda event: fired.append(env.now))
    reads, done = mount.reads, state.iterations_done
    container.kill()
    env.run()
    assert container.exit_code == SIGKILL_EXIT_CODE
    # The abandoned hit still fired, once, and woke nobody: a second
    # resume would have issued the next read.
    assert len(fired) == 1
    assert (mount.reads, state.iterations_done) == (reads, done)
    assert not ctx.volume.exists(ctx.exit_path(0))
