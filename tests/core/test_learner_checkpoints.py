"""A learner uploads each periodic checkpoint once.

A checkpoint is due when a chunk crosses a multiple of the interval, and
a HALT checkpoints the current iteration unless that key is already in
the bucket.  Both pins count uploads against distinct keys.
"""

from repro.core.helper import halt_key
from repro.core.learner import (
    LearnerContext, LearnerState, make_learner_workload,
)
from repro.core.manifest import JobManifest
from repro.docker import Container, Image
from repro.etcd import EtcdStore
from repro.nfs import NFSVolume
from repro.objectstore import BucketMount, MountCache, ObjectStorageService
from repro.sim import Environment


def start_learner(iterations, interval, checkpoint_bytes=1e6):
    env = Environment()
    oss = ObjectStorageService(env, bandwidth_bps=1e9,
                               request_latency_s=0.05)
    data = oss.create_bucket("data")
    oss.create_bucket("results")
    for part in range(4):
        data.put(f"dataset/part-{part:05d}", 110_000.0 * 128 * 10)
    manifest = JobManifest(name="unit", user="u", framework="tensorflow",
                           model="resnet50", iterations=iterations,
                           dataset_objects=4,
                           dataset_object_bytes=110_000.0 * 128 * 10,
                           checkpoint_interval_iterations=interval,
                           checkpoint_bytes=checkpoint_bytes)
    etcd = EtcdStore(env)
    ctx = LearnerContext(
        env=env, manifest=manifest, job_id="job-x", volume=NFSVolume("v"),
        data_mount=BucketMount(env, oss, "data", cache=MountCache(1e12)),
        result_mount=BucketMount(env, oss, "results"))
    ctx.halt_requested = lambda: etcd.get(halt_key("job-x")) is not None
    ctx.watch_halt = lambda: etcd.watch(halt_key("job-x"))
    state = LearnerState(index=0)
    container = Container(env, Image("learner"), "learner-0",
                          make_learner_workload(ctx, state))
    container.start()
    return env, oss, etcd, state, container


def checkpoint_keys(oss):
    return [obj.key for obj in oss.list_objects("results", "checkpoints/")]


def test_a_short_last_chunk_does_not_checkpoint_again():
    for iterations, interval, expected in ((130, 100, [100]),
                                           (1030, 500, [500, 1000])):
        env, oss, _etcd, state, container = start_learner(iterations,
                                                          interval)
        env.run()
        assert container.exit_code == 0
        assert state.iterations_done == iterations
        assert [int(key.rsplit("iter-", 1)[1])
                for key in checkpoint_keys(oss)] == expected
        assert state.checkpoints_written == len(expected)


def test_a_halt_during_a_checkpoint_upload_does_not_upload_it_again():
    # A 10 s upload of iter-100; the HALT lands in the middle of it.
    env, oss, etcd, state, container = start_learner(
        iterations=400, interval=100, checkpoint_bytes=1e10)
    while oss.uploads_started == 0:
        env.step()
    env.run(until=env.now + 5.0)
    etcd.put(halt_key("job-x"), "halt")
    env.run()
    assert container.exit_code == 0
    assert state.halted and state.iterations_done == 100
    assert checkpoint_keys(oss) == [
        "checkpoints/job-x/learner-0/iter-0000000100"]
    assert state.checkpoints_written == 1
