"""A learner's warm stretches against the chunk loop they replace.

The reference is the learner's PROCESSING loop as it was before warm
stretches existed - one fetch, one compute timeout and one halt check
per 50-iteration chunk - copied verbatim below, reading key by key.
Random programs draw the dataset shape, iteration count and checkpoint
interval (some with three periods of chunks or more, which a stretch
jumps a period at a time), a start that may put a stretch across a
power-of-two instant, a second reader whose misses evict from a small
shared mount cache, and a kill (followed by a restart), a HALT, a
release of the job volume and a read of the learner's progress at
random instants; each is played through the reference and through
``make_learner_workload``.  At quiescence every status and exit write
with its instant, ``iterations_done`` and the epoch count at the kill
and at the read, what the restart finds (the progress file a
parameter-server rejoin reads, every mount counter), the final learner
state, the container logs, the checkpoints in the bucket and the
cache's LRU order must be equal, exactly.

As in ``tests/objectstore/test_read_all_oracle.py``, a schedule where
two different actors act at the same float instant is discarded: the
order of such a tie is the kernel's, and a stretch's timer takes its
place in line when the stretch starts.
"""

import zlib
from math import gcd, lcm

from hypothesis import assume, example, given, settings, strategies as st

from repro.core.helper import halt_key
from repro.core.learner import (
    CHUNK_ITERATIONS, FETCH_OVERLAP, LearnerContext, LearnerState,
    _dataset_keys, checkpoint_key, find_latest_checkpoint,
    make_learner_workload,
)
from repro.core.manifest import JobManifest
from repro.core.statuses import DOWNLOADING, PROCESSING, STORING
from repro.docker import Container, Image
from repro.etcd import EtcdStore
from repro.nfs import NFSVolume
from repro.objectstore import BucketMount, MountCache, ObjectStorageService
from repro.perfmodel.models import model_spec
from repro.perfmodel.throughput import (
    DISTRIBUTED_EFFICIENCY,
    iteration_time_s,
)
from repro.sim import Environment, Interrupt

from tests.conftest import examples

#: ResNet-50/TensorFlow reads 110 kB samples in batches of 128.
BATCH_BYTES = 110_000 * 128


def chunk_loop_workload(ctx: LearnerContext, state: LearnerState):
    """The learner workload before warm stretches, verbatim."""

    def workload(container):
        env = ctx.env
        manifest = ctx.manifest
        index = state.index
        spec = model_spec(manifest.model, manifest.framework)
        batch = manifest.batch_size or spec.default_batch_size
        overhead = ctx.overheads.total(manifest.learners,
                                       max(1, manifest.gpus_per_learner))
        iter_s = iteration_time_s(
            spec, manifest.gpu_type, manifest.effective_cpus(),
            max(1, manifest.gpus_per_learner), batch)
        # Synchronous data-parallel training: every learner pays the
        # gradient-exchange barrier, so per-learner speed drops with the
        # number of peers (the same efficiency the throughput model uses).
        iter_s /= DISTRIBUTED_EFFICIENCY ** (manifest.learners - 1)
        iter_s *= 1.0 / (1.0 - overhead)

        def report(status):
            ctx.volume.write(ctx.status_path(index), status)
            ctx.volume.append(ctx.log_path(index),
                              f"[{env.now:.1f}] {status}\n")

        try:
            state.restarts += bool(state.iterations_done or
                                   state.checkpoints_loaded)
            # -- recover state -------------------------------------------
            # With parameter servers, a restarted learner "rejoin[s] other
            # learners and get[s] the latest neural net parameters from a
            # parameter server" (Section 3.8): progress survives without a
            # checkpoint load.  Otherwise, resume from the newest
            # checkpoint in the results bucket (or start over).
            ps_progress = None
            saved = None  # the checkpoint this run has loaded or written
            if manifest.parameter_servers > 0:
                recorded = ctx.volume.read(ctx.progress_path(index))
                if recorded is not None:
                    ps_progress = int(recorded)
            if ps_progress:
                yield env.timeout(2.0)  # rejoin + parameter pull
                state.iterations_done = ps_progress
                container.log(f"rejoined via parameter server at "
                              f"iter={ps_progress}")
            else:
                resume_at = find_latest_checkpoint(ctx, index)
                if resume_at is not None and resume_at > 0:
                    obj_key = checkpoint_key(ctx.job_id, index, resume_at)
                    yield ctx.result_mount.read(obj_key)
                    state.checkpoints_loaded += 1
                    state.iterations_done = saved = resume_at
                    container.log(
                        f"resumed from checkpoint iter={resume_at}")
                else:
                    state.iterations_done = 0

            # -- DOWNLOADING: prime the input pipeline -------------------
            # With a mounted object store the dataset is streamed on
            # demand during training; DOWNLOADING covers binding the mount
            # and prefetching the initial window, not staging the full
            # dataset (Section 3.7).
            report(DOWNLOADING)
            part_keys = _dataset_keys(manifest.dataset_objects)
            yield from ctx.data_mount.read_all(part_keys[:4])

            # -- PROCESSING ----------------------------------------------
            report(PROCESSING)
            samples_per_object = max(
                1.0, manifest.dataset_object_bytes / spec.sample_bytes)
            iters_per_object = max(1, int(samples_per_object / batch))
            # Shuffled sharding: each learner walks the dataset from its
            # own offset, so co-located jobs do not read in lockstep.
            # (zlib.crc32 rather than hash(): the latter is salted per
            # process and would break run-to-run determinism.)
            shard_offset = zlib.crc32(
                f"{ctx.job_id}-{index}".encode()) % \
                manifest.dataset_objects
            while state.iterations_done < manifest.iterations:
                if ctx.halt_requested():
                    # User-driven HALT: checkpoint current progress so
                    # RESUME continues from here, then stop cleanly.
                    if manifest.checkpoint_interval_iterations and \
                            state.iterations_done and \
                            state.iterations_done != saved:
                        key = checkpoint_key(ctx.job_id, index,
                                             state.iterations_done)
                        yield ctx.result_mount.write(
                            key, manifest.checkpoint_bytes)
                        state.checkpoints_written += 1
                    state.halted = True
                    report("HALTED")
                    ctx.volume.write(ctx.exit_path(index), "halted")
                    return 0
                chunk = min(CHUNK_ITERATIONS,
                            manifest.iterations - state.iterations_done)
                # Fetch the data for this chunk (cache-aware re-reads).
                obj_index = (shard_offset +
                             state.iterations_done // iters_per_object) \
                    % manifest.dataset_objects
                fetch_started = env.now
                # Read every object the chunk's iterations consume (a
                # chunk can span multiple small objects).
                first_obj = obj_index
                last_obj = (shard_offset +
                            (state.iterations_done + chunk - 1) //
                            iters_per_object) % manifest.dataset_objects
                span = (last_obj - first_obj) % manifest.dataset_objects
                yield from ctx.data_mount.read_all(
                    [part_keys[(first_obj + step) % manifest.dataset_objects]
                     for step in range(span + 1)])
                fetch_s = env.now - fetch_started
                # Imperfect input-pipeline overlap: most of the fetch hides
                # behind compute, the rest extends the chunk.
                compute_s = chunk * iter_s
                yield env.timeout(
                    max(0.0, compute_s - FETCH_OVERLAP * fetch_s))
                state.iterations_done += chunk
                state.epochs_completed = state.iterations_done // \
                    (iters_per_object * manifest.dataset_objects)
                ctx.volume.write(ctx.progress_path(index),
                                 str(state.iterations_done))
                # -- periodic checkpoint, when a chunk crosses a multiple --
                interval = manifest.checkpoint_interval_iterations
                done = state.iterations_done
                if interval and \
                        done // interval > (done - chunk) // interval:
                    saved = done // interval * interval
                    key = checkpoint_key(ctx.job_id, index, saved)
                    yield ctx.result_mount.write(
                        key, manifest.checkpoint_bytes)
                    state.checkpoints_written += 1

            # -- STORING: upload the trained model ------------------------
            report(STORING)
            yield ctx.result_mount.write(
                f"models/{ctx.job_id}/learner-{index}/model.bin",
                manifest.checkpoint_bytes)
            ctx.volume.write(ctx.exit_path(index), "0")
            report("COMPLETED")
            return 0
        except Interrupt:
            # Killed (crash injection / node failure): the exit status file
            # is *not* written — that is how the controller tells a crash
            # from completion.
            raise
        except Exception as err:  # noqa: BLE001 - surface as exit code
            container.log(f"training error: {err!r}")
            ctx.volume.write(ctx.exit_path(index), "1")
            return 1

    return workload


# -- playing a program --------------------------------------------------------


def play(program, stretched):
    """Run ``program`` to quiescence; returns what could be observed and,
    for the key-by-key reference, the actors that acted at each instant."""
    env = Environment()
    oss = ObjectStorageService(env, bandwidth_bps=4e8,
                               request_latency_s=0.0137)
    object_bytes = program["per_object"] * BATCH_BYTES
    data = oss.create_bucket("data")
    oss.create_bucket("results")
    other = oss.create_bucket("other")
    for part in range(program["objects"]):
        data.put(f"dataset/part-{part:05d}", object_bytes)
    for key, size in enumerate(program["other_sizes"]):
        other.put(f"o{key}", size * object_bytes / 4)
    cache = MountCache(program["capacity"] * object_bytes / 4)
    manifest = JobManifest(
        name="oracle", user="u", framework="tensorflow", model="resnet50",
        iterations=program["iterations"],
        dataset_objects=program["objects"],
        dataset_object_bytes=object_bytes,
        checkpoint_interval_iterations=program["interval"],
        checkpoint_bytes=1e6, parameter_servers=program["ps"])
    etcd = EtcdStore(env)
    volume = NFSVolume("v")
    data_mount = BucketMount(env, oss, "data", cache=cache)
    other_mount = BucketMount(env, oss, "other", cache=cache)
    ctx = LearnerContext(env=env, manifest=manifest, job_id="job-x",
                         volume=volume, data_mount=data_mount,
                         result_mount=BucketMount(env, oss, "results"))
    ctx.halt_requested = lambda: etcd.get(halt_key("job-x")) is not None
    ctx.watch_halt = lambda: etcd.watch(halt_key("job-x"))
    state = LearnerState(index=0)
    seen, touches = [], {}

    def touch(actor):
        touches.setdefault(env.now, set()).add(actor)

    if stretched:
        factory = make_learner_workload
    else:
        factory = chunk_loop_workload

        def read_one_by_one(keys):
            for key in keys:
                touch("learner")
                yield data_mount.read(key)
                touch("learner")

        data_mount.read_all = read_one_by_one

    def on_change(path):
        if volume.released:
            seen.append((env.now, "released", path))
        elif path == ctx.progress_path(0):
            touch("learner")  # a chunk ended
        elif path != ctx.log_path(0):
            seen.append((env.now, path, volume.read(path)))

    volume.subscribe(on_change)

    def observed():
        return (state.iterations_done, state.epochs_completed,
                None if volume.released
                else volume.read(ctx.progress_path(0)),
                data_mount.reads, data_mount.bytes_read,
                other_mount.reads, other_mount.bytes_read,
                cache.hits, cache.misses, cache.used_bytes)

    containers = [Container(env, Image("learner"), "learner-0",
                            factory(ctx, state))]

    def starter(at):
        yield env.timeout(at)
        containers[0].start()

    def other_reader():
        for delay, key in program["other_reads"]:
            yield env.timeout(delay)
            touch("other")
            yield other_mount.read(f"o{key}")
            touch("other")

    def killer(at):
        yield env.timeout(at)
        if containers[-1].is_running:
            touch("kill")
            seen.append((env.now, "kill", (state.iterations_done,
                                           state.epochs_completed)))
            containers[-1].kill()
            yield env.timeout(1.0)  # the restart acts as the learner
            seen.append((env.now, "restart", observed()))
            containers.append(Container(env, Image("learner"), "learner-0",
                                        factory(ctx, state)))
            containers[-1].start()

    def peeker(at):
        yield env.timeout(at)
        touch("peek")
        seen.append((env.now, "peek", (state.iterations_done,
                                       state.epochs_completed)))

    def halter(at):
        yield env.timeout(at)
        touch("halt")
        etcd.put(halt_key("job-x"), "halt")

    def releaser(at):
        yield env.timeout(at)
        touch("release")
        volume.release()

    env.process(starter(program["start_at"]))
    env.process(other_reader())
    if program["peek_at"] is not None:
        env.process(peeker(program["peek_at"]))
    if program["kill_at"] is not None:
        env.process(killer(program["kill_at"]))
    if program["halt_at"] is not None:
        env.process(halter(program["halt_at"]))
    if program["release_at"] is not None:
        env.process(releaser(program["release_at"]))
    env.run()
    lru = sorted(cache._entries, key=lambda k: cache._entries[k].stamp)
    return {
        "seen": seen,
        "exit": [container.exit_code for container in containers],
        "state": (state.iterations_done, state.epochs_completed,
                  state.checkpoints_written, state.checkpoints_loaded,
                  state.restarts, state.halted),
        "end": observed(),
        "log": None if volume.released else volume.read(ctx.log_path(0)),
        "logs": [container.logs for container in containers],
        "checkpoints": [obj.key for obj in
                        oss.list_objects("results", "checkpoints/")],
        "oss": (oss.downloads_started, oss.uploads_started),
        "lru": lru,
    }, touches


def assert_stretches_are_the_chunk_loop(program):
    reference, touches = play(program, stretched=False)
    assume(all(len(actors) == 1 for actors in touches.values()))
    assert play(program, stretched=True)[0] == reference


# -- random programs ----------------------------------------------------------

#: One ResNet-50 iteration on a K80 takes about 1.9 s, so a chunk is
#: about 95 s; instants are drawn in odd units no other actor produces.
UNIT_S = 0.7313


#: Iterations per object whose chunks repeat every four chunks or fewer.
SHORT_PERIODS = [per for per in range(1, 71)
                 if per // gcd(CHUNK_ITERATIONS, per) <= 4]


@st.composite
def programs(draw):
    objects = draw(st.integers(1, 6))
    # A stretch jumps whole periods of chunks, as many as fit in a
    # binade: give some three periods or more, of at most four chunks,
    # and checkpoints too far apart to stop the stretch first.
    if draw(st.booleans()):
        per_object = draw(st.sampled_from(SHORT_PERIODS))
        period = lcm(CHUNK_ITERATIONS, per_object)
        iterations = draw(st.integers(3 * period, 3 * period + 5000))
        interval = draw(st.sampled_from([0, 0, 2 * period]))
    else:
        per_object = draw(st.integers(1, 70))
        iterations = draw(st.integers(1, 900))
        interval = draw(st.sampled_from([0, 0, 30, 100, 130, 500]))
    # Some start just before a power of two, so a stretch crosses it.
    start_at = draw(st.sampled_from([0.0, 0.0, None]))
    if start_at is None:
        start_at = 2.0 ** draw(st.integers(9, 14)) - \
            draw(st.integers(0, 2000)) * UNIT_S - 0.0000229
        start_at = max(0.0, start_at)
    horizon = int((start_at + iterations * 2.0) / UNIT_S) + 100
    other_reads = [(draw(st.integers(0, horizon // 4)) * UNIT_S + 0.000173,
                    draw(st.integers(0, 3)))
                   for _ in range(draw(st.integers(0, 8)))]

    def instant(offset, odds):
        if draw(st.integers(0, 3)) >= odds:
            return None
        return draw(st.integers(0, horizon)) * UNIT_S + offset

    return {
        "objects": objects,
        "per_object": per_object,
        "iterations": iterations,
        "start_at": start_at,
        "interval": interval,
        "ps": draw(st.integers(0, 1)),
        # In quarters of a dataset object: room for the dataset and at
        # most one and a half objects more, so the second reader's
        # misses evict.
        "capacity": draw(st.integers(4 * objects, 4 * objects + 6)),
        "other_sizes": [draw(st.integers(1, 6)) for _ in range(4)],
        "other_reads": other_reads,
        "kill_at": instant(0.0000291, odds=3),
        "halt_at": instant(0.0000447, odds=2),
        "release_at": instant(0.0000613, odds=1),
        "peek_at": instant(0.0000839, odds=2),
    }


#: Five objects of 20 iterations: a chunk reads 2.5 objects, and chunks
#: repeat every two.  One stretch from about 3 s to 5 700 s, crossing
#: 1 024 s, 2 048 s and 4 096 s, walks whole periods in each binade.
WARM = {"objects": 5, "per_object": 20, "iterations": 3000,
        "start_at": 0.0, "interval": 0, "ps": 0, "capacity": 21,
        "other_sizes": [2, 1, 1, 1], "other_reads": [], "kill_at": None,
        "halt_at": None, "release_at": None, "peek_at": None}


@settings(max_examples=examples(150), deadline=None)
@example(program=WARM)
# At 3 000 s, settling jumps periods in two binades and stops mid-period:
# a miss of the second reader evicts an object the stretch reads next,
# a HALT lands, or a reader asks for the iterations done.
@example(program={**WARM, "other_reads": [(3000.000173, 0)]})
@example(program={**WARM, "halt_at": 3000.0000447})
@example(program={**WARM, "peek_at": 3000.0000839})
# Killed at 150 iterations, restarted from zero, read mid-stretch before
# its first chunk ends: the chunk loop still shows the 3 epochs of before
# the kill.
@example(program={**WARM, "objects": 1, "per_object": 40,
                  "iterations": 2016, "interval": 400, "capacity": 4,
                  "kill_at": 352.4866291, "peek_at": 414.6471839})
@given(program=programs())
def test_a_warm_stretch_is_the_chunk_loop(program):
    assert_stretches_are_the_chunk_loop(program)
