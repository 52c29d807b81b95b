"""The learner: FfDL's unit of training execution.

Each learner runs in its own container (one per StatefulSet ordinal) and:

1. reports DOWNLOADING and streams its dataset shard through the object
   storage mount driver (cache-aware, bandwidth-contended),
2. reports PROCESSING and trains in chunks of ``CHUNK_ITERATIONS``: each
   chunk re-reads through the mount the data its iterations consume (cache
   hits after the first epoch), then computes for a time that comes from
   the calibrated performance model degraded by the platform overhead
   components, less the part of the fetch the input pipeline hides;
   between chunks it records its progress on the NFS volume and checks
   the HALT flag,
3. checkpoints to the results bucket when a chunk crosses a multiple of
   the checkpoint interval,
4. on (re)start, searches the bucket for the latest checkpoint and resumes
   from it — losing only the work since that checkpoint,
5. reports STORING, uploads the final model, and writes its process exit
   code to the shared NFS volume, where the helper controller reads it.

While the whole dataset is cached, the chunks up to the next checkpoint
are one *stretch*: arithmetic on one timer (:class:`_Chunks`), which
leaves every instant, counter and file as the chunk loop would.

The learner only reads etcd (the HALT flag) and never talks to MongoDB —
exactly as in the paper, coordination flows learner -> NFS -> controller
-> etcd -> Guardian -> MongoDB.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from repro.core.manifest import JobManifest
from repro.core.statuses import DOWNLOADING, PROCESSING, STORING
from repro.nfs.volume import NFSVolume
from repro.objectstore.mount import BucketMount
from repro.perfmodel.models import model_spec
from repro.perfmodel.overhead import DEFAULT_OVERHEADS, OverheadComponents
from repro.perfmodel.throughput import (
    DISTRIBUTED_EFFICIENCY,
    iteration_time_s,
)
from repro.sim.core import Environment, Interrupt

#: Iterations in one chunk: one data fetch, then compute that hides part of
#: it, then the progress write, the checkpoint test and the HALT check.
#: The size is part of the timing model (the fetch overlap is per chunk),
#: not an event budget: a warm stretch costs the same events however many
#: chunks it spans.
CHUNK_ITERATIONS = 50

#: Fraction of data-fetch time hidden behind GPU compute by the input
#: pipeline.  Real frameworks prefetch, but decode/copy work still steals
#: host cycles, so overlap is imperfect; 0.8 reproduces the graded
#: heavy-load degradation of Figure 5 (K80 barely affected, V100 hit
#: hardest) given the paper's shared-bandwidth saturation.
FETCH_OVERLAP = 0.8


@dataclass
class LearnerState:
    """Cross-restart state of one learner, visible to tests and benches."""

    index: int
    checkpoints_written: int = 0
    checkpoints_loaded: int = 0
    restarts: int = 0
    halted: bool = False
    #: The warm stretch in flight, if any: the two counts below are the
    #: chunk loop's at the current instant, settled when read.
    stretch: Optional["_Chunks"] = field(default=None, repr=False,
                                         compare=False)
    _iterations: int = field(default=0, repr=False)
    _epochs: int = field(default=0, repr=False)

    @property
    def iterations_done(self) -> int:
        if self.stretch is not None:
            return self.stretch.settle()
        return self._iterations

    @iterations_done.setter
    def iterations_done(self, value: int) -> None:
        self._iterations = value

    @property
    def epochs_completed(self) -> int:
        if self.stretch is not None:
            return self.stretch.epochs(self.stretch.settle())
        return self._epochs

    @epochs_completed.setter
    def epochs_completed(self, value: int) -> None:
        self._epochs = value


@dataclass
class LearnerContext:
    """Everything a learner container needs from its environment."""

    env: Environment
    manifest: JobManifest
    job_id: str
    volume: NFSVolume
    data_mount: BucketMount
    result_mount: BucketMount
    overheads: OverheadComponents = field(default_factory=lambda:
                                          DEFAULT_OVERHEADS)
    #: Called to check a user-driven HALT request (reads the etcd flag).
    halt_requested = staticmethod(lambda: False)
    #: Opens a watch on that flag (an etcd ``Watcher``; None: no HALT
    #: can come).
    watch_halt = staticmethod(lambda: None)

    def status_path(self, index: int) -> str:
        return f"learners/{index}/status"

    def exit_path(self, index: int) -> str:
        return f"learners/{index}/exit"

    def progress_path(self, index: int) -> str:
        return f"learners/{index}/iterations"

    def log_path(self, index: int) -> str:
        return f"learners/{index}/log"


def checkpoint_key(job_id: str, learner_index: int, iteration: int) -> str:
    return f"checkpoints/{job_id}/learner-{learner_index}/" \
           f"iter-{iteration:010d}"


@lru_cache(maxsize=None)
def _dataset_keys(objects: int) -> tuple:
    """Keys of an ``objects``-part dataset, shared by every learner."""
    return tuple(f"dataset/part-{part:05d}" for part in range(objects))


def find_latest_checkpoint(ctx: LearnerContext,
                           learner_index: int) -> Optional[int]:
    """Scan the results bucket for this learner's newest checkpoint.

    This is the FfDL component that, "after the training pod is restarted,
    searches the object store bucket for the latest checkpoint and uses
    that to resume training" (Section 3.8).
    """
    prefix = f"checkpoints/{ctx.job_id}/learner-{learner_index}/"
    objects = ctx.result_mount.listdir(prefix)
    if not objects:
        return None
    latest = max(obj.key for obj in objects)
    return int(latest.rsplit("iter-", 1)[1])


class _Chunks:
    """A learner's chunks over its dataset, and its warm stretch.

    The chunk after ``done`` iterations reads every object its
    iterations consume, walking the dataset from the learner's own
    offset, ``per_object`` iterations per object (at most the whole
    dataset once).  While the whole dataset is cached, the chunks up to
    the one that crosses the next checkpoint multiple (or the last) are
    one *stretch*, and this is the plan of the data mount's hit run that
    carries it (DESIGN.md, "A warm training stretch is the same run"):
    run chunk 0 reads nothing and waits ``gap0``, what the chunk that
    began the stretch still has to compute; run chunk *r* >= 1 is the
    chunk after ``iterations(r)``.  A HALT flag written or the job
    volume released meanwhile ends the stretch at the next chunk start,
    where the chunk loop would have looked.
    """

    #: Of a fetch, the part the compute after it hides.
    overlap = FETCH_OVERLAP

    def __init__(self, ctx: LearnerContext, part_keys: tuple,
                 per_object: int, offset: int, iter_s: float):
        self.ctx = ctx
        self.part_keys = part_keys
        self.total = ctx.manifest.iterations
        self.per_object = per_object
        self.offset = offset
        self.iter_s = iter_s
        self.first = self.chunks = 0
        self.gap0 = 0.0
        self.run = self.watcher = self.volume = None

    def reads(self, done: int, size: int) -> tuple:
        """``(first object, objects read)`` of a ``size``-iteration
        chunk after ``done``."""
        objects, first = len(self.part_keys), done // self.per_object
        return (self.offset + first) % objects, \
            ((done + size - 1) // self.per_object - first) % objects + 1

    def keys(self, done: int, size: int) -> list:
        first, count = self.reads(done, size)
        return [self.part_keys[(first + step) % len(self.part_keys)]
                for step in range(count)]

    def epochs(self, done: int) -> int:
        return done // (self.per_object * len(self.part_keys))

    def iterations(self, chunk: int) -> int:
        return min(self.first + CHUNK_ITERATIONS * chunk, self.total)

    def chunk(self, chunk: int) -> tuple:
        """``(first object, objects read, compute_s)`` of run chunk
        ``chunk``."""
        if chunk == 0:
            return 0, 0, self.gap0
        done = self.first + CHUNK_ITERATIONS * chunk
        size = min(CHUNK_ITERATIONS, self.total - done)
        return (*self.reads(done, size), size * self.iter_s)

    def begins(self, done: int) -> bool:
        """At a chunk start: plan the stretch from this chunk to the
        next checkpoint's, and say whether it begins - two chunks or
        more, and the whole dataset cached now."""
        end = self.total
        interval = self.ctx.manifest.checkpoint_interval_iterations
        if interval:
            end = min(end, (done // interval + 1) * interval)
        self.first, self.chunks = done, -(-(end - done) // CHUNK_ITERATIONS)
        return self.chunks >= 2 and self.ctx.data_mount.cached(self.part_keys)

    def start(self, gap0: float) -> bool:
        """After the first chunk's fetch: start the run and watch what
        would end it, unless a HALT came during the fetch or the dataset
        is no longer all cached."""
        if self.ctx.halt_requested():
            return False
        self.gap0 = gap0
        self.run = self.ctx.data_mount.stretch(self.part_keys, self)
        if self.run is None:
            return False
        self.watcher = self.ctx.watch_halt()
        if self.watcher is not None:
            self.watcher.get().callbacks.append(self._halted)
        self.volume = self.ctx.volume  # a restarted peer may rebind ctx's
        self.volume.subscribe(self._volume_changed)
        self._volume_changed("")
        return True

    def _halted(self, _event) -> None:
        # Delivered at the instant of the write, possibly after the run
        # ended; ending a later run at a chunk start early is harmless.
        if self.run is not None:
            self.run.end_at_next_chunk()

    def _volume_changed(self, _path: str) -> None:
        if self.volume.released:  # the next progress write fails
            self.run.end_at_next_chunk()

    def settle(self) -> int:
        """Iterations done now, as the chunk loop would have them."""
        self.run.apply(self.run.mount.env.now)
        return self.iterations(self.run.chunk)

    def finish(self) -> tuple:
        """Stop watching.  Returns the iterations done, the size of the
        last chunk ended and, if the run ended inside a chunk, that
        chunk's ``(size, keys not read, fetch start)``."""
        if self.watcher is not None:
            self.watcher.close()
            # Dropped now, its queue and pending get go with it rather
            # than at the next cycle collection.
            self.watcher = None
        self.volume.unsubscribe(self._volume_changed)
        run, cut, self.run = self.run, None, None
        done = self.iterations(run.chunk)
        if run.issued:
            size = self.iterations(run.chunk + 1) - done
            cut = (size, self.keys(done, size)[run.issued:], run.start)
        return done, done - self.iterations(run.chunk - 1), cut


def make_learner_workload(ctx: LearnerContext, state: LearnerState):
    """Build the container workload generator for one learner."""

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
            chunks = _Chunks(ctx, part_keys, iters_per_object,
                             shard_offset, iter_s)
            interval = manifest.checkpoint_interval_iterations

            def chunk_ended(done, write=True):
                state.iterations_done = done
                state.epochs_completed = chunks.epochs(done)
                if write:
                    ctx.volume.write(ctx.progress_path(index), str(done))

            cut = None  # (chunk, keys left, fetch start) of a cut stretch
            while state.iterations_done < manifest.iterations:
                warm = False
                if cut is None:
                    if ctx.halt_requested():
                        # User-driven HALT: checkpoint current progress so
                        # RESUME continues from here, then stop cleanly.
                        if interval and state.iterations_done and \
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
                    keys = chunks.keys(state.iterations_done, chunk)
                    fetch_started = env.now
                    warm = chunks.begins(state.iterations_done)
                else:
                    (chunk, keys, fetch_started), cut = cut, None
                # Fetch the data for this chunk (cache-aware re-reads of
                # every object its iterations consume).
                yield from ctx.data_mount.read_all(keys)
                fetch_s = env.now - fetch_started
                # Imperfect input-pipeline overlap: most of the fetch hides
                # behind compute, the rest extends the chunk.
                compute_s = chunk * iter_s
                delay = max(0.0, compute_s - FETCH_OVERLAP * fetch_s)
                if warm and chunks.start(delay):
                    state.stretch = chunks
                    try:
                        yield chunks.run.done
                    except Interrupt:
                        chunks.run.cancel()
                        done = chunks.finish()[0]
                        state.stretch = None
                        # The progress file as the chunk loop left it (a
                        # released volume has lost it either way).
                        changed = done != state.iterations_done
                        chunk_ended(done, write=changed and
                                    not ctx.volume.released)
                        raise
                    done, chunk, cut = chunks.finish()
                    state.stretch = None
                    chunk_ended(done)
                else:
                    yield env.timeout(delay)
                    chunk_ended(state.iterations_done + chunk)
                # -- periodic checkpoint, when a chunk crosses a multiple --
                done = state.iterations_done
                if interval and cut is None and \
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
