"""The learner: FfDL's unit of training execution.

Each learner runs in its own container (one per StatefulSet ordinal) and:

1. reports DOWNLOADING and streams its dataset shard through the object
   storage mount driver (cache-aware, bandwidth-contended),
2. reports PROCESSING and iterates: compute time comes from the calibrated
   performance model degraded by the platform overhead components; training
   data for each chunk is re-read through the mount (cache hits after the
   first epoch),
3. checkpoints to the results bucket every N iterations,
4. on (re)start, searches the bucket for the latest checkpoint and resumes
   from it — losing only the work since that checkpoint,
5. reports STORING, uploads the final model, and writes its process exit
   code to the shared NFS volume, where the helper controller reads it.

The learner never talks to etcd or MongoDB directly — exactly as in the
paper, coordination flows learner -> NFS -> controller -> etcd ->
Guardian -> MongoDB.
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

#: Iterations processed between bookkeeping points (checkpoint checks, data
#: chunk fetches, halt-flag checks).  Coarser chunks keep event counts low
#: on month-scale simulations without changing aggregate timing.
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
    iterations_done: int = 0
    checkpoints_written: int = 0
    checkpoints_loaded: int = 0
    restarts: int = 0
    epochs_completed: int = 0
    halted: bool = False


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
    #: Throughput degradation multiplier hook (heavy-load contention etc.).
    compute_slowdown: float = 1.0

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
        iter_s *= ctx.compute_slowdown / (1.0 - overhead)

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
                    state.iterations_done = resume_at
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
                            state.iterations_done:
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
                # -- periodic checkpoint ------------------------------
                interval = manifest.checkpoint_interval_iterations
                if interval and state.iterations_done % interval < \
                        CHUNK_ITERATIONS and state.iterations_done >= \
                        interval:
                    ckpt_iter = (state.iterations_done // interval) \
                        * interval
                    key = checkpoint_key(ctx.job_id, index, ckpt_iter)
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
