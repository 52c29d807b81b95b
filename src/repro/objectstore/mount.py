"""s3fs-style bucket mount driver with an LRU caching layer.

FfDL "can mount remote data in the learner container, so DL frameworks can
access training data as though it were on the local filesystem.  A driver
streams files on demand and caches them so they can be reused across
training epochs and jobs" (Section 3.7).  :class:`MountCache` is shared
across mounts on the same node; the ablation benchmark toggles it to show
the epoch-reuse win the paper's "lessons learned" section argues for.
"""

from __future__ import annotations

import random
from itertools import accumulate, repeat
from math import inf
from typing import Optional

from repro.errors import NoSuchObjectError, ObjectStorageUnavailableError
from repro.objectstore.service import ObjectStorageService
from repro.resilience import RetryPolicy, retry_call
from repro.sim.core import Environment, Event, Interrupt


class _Entry:
    """One cached object: its size and the stamp of its last use."""

    __slots__ = ("size", "stamp")

    def __init__(self, size: float, stamp: tuple):
        self.size = size
        self.stamp = stamp


class MountCache:
    """A byte-capacity LRU cache of objects, shared across mounts.

    Recency is a ``(time, serial)`` *stamp* per entry, not a list
    position: a use sets ``stamp = max(stamp, new)`` and only an eviction
    looks for the smallest; ``serial``, one cache-wide counter, keeps
    uses at one instant in the order they were made.  ``max`` commutes,
    so a :class:`_HitRun` may apply its uses late, provided whatever
    removes an entry sees them first (:meth:`_evict`).  The mount tells
    ``lookup`` / ``admit`` / ``invalidate`` the time; a bare call stamps
    at the last time told, which orders bare calls as a list would.
    """

    def __init__(self, capacity_bytes: float):
        self.capacity_bytes = float(capacity_bytes)
        self._entries: "dict[tuple[str, str], _Entry]" = {}
        #: Pending hit runs, in creation order.
        self._runs: "dict[_HitRun, None]" = {}
        self._now = 0.0
        self._serial = 0
        self.used_bytes = 0.0
        self.hits = 0
        self.misses = 0

    def _stamp(self, now: Optional[float], uses: int = 1) -> tuple:
        """Stamp of the first of ``uses`` consecutive uses at ``now``."""
        if now is not None:
            self._now = now
        self._serial += uses
        return self._now, self._serial - uses

    def lookup(self, bucket: str, key: str,
               now: Optional[float] = None) -> bool:
        entry = self._entries.get((bucket, key))
        if entry is None:
            self.misses += 1
            return False
        entry.stamp = self._stamp(now)
        self.hits += 1
        return True

    def admit(self, bucket: str, key: str, size_bytes: float,
              now: Optional[float] = None) -> None:
        if size_bytes > self.capacity_bytes:
            return  # object larger than the whole cache: bypass
        stamp = self._stamp(now)
        entry = self._entries.get((bucket, key))
        if entry is not None:
            entry.stamp = stamp
            return
        while self.used_bytes + size_bytes > self.capacity_bytes:
            self._evict()
        self._entries[(bucket, key)] = _Entry(size_bytes, stamp)
        self.used_bytes += size_bytes

    def invalidate(self, bucket: str, key: str,
                   now: Optional[float] = None) -> None:
        if (bucket, key) in self._entries:
            if now is not None:
                self._now = now
            self._evict((bucket, key))

    def _evict(self, cache_key: Optional[tuple] = None) -> None:
        """Remove ``cache_key``, by default the least recently used."""
        # Settle first: uses issued strictly before now count for the order,
        # and a run cut at a read whose time has passed would end in the past.
        for run in self._runs:
            run.apply(self._now)
        entries = self._entries
        if cache_key is None:
            cache_key = min(entries, key=lambda k: entries[k].stamp)
        entry = entries.pop(cache_key)
        self.used_bytes -= entry.size
        for run in self._runs:
            run.cut(entry)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _HitRun:
    """Consecutive cache hits by one reader on one timer, not one each.

    Read *j* is issued at ``times[j]`` and the run ends at ``times[n]``,
    each ``cached_read_latency_s`` after the one before **by repeated
    addition** - the additions the kernel makes for a ``Timeout`` per
    hit; ``t0 + j * latency`` is another float.  Stamps, ``hits``,
    ``reads`` and ``bytes_read`` move when the timer fires, or earlier
    if the cache has to settle.
    """

    __slots__ = ("mount", "entries", "objs", "times", "serial", "applied",
                 "timer", "done")

    #: KernelProfiler site family of the firing callback.
    name = "mount-hit"

    def __init__(self, mount: "BucketMount", entries: list, objs: list):
        self.mount = mount
        self.entries = entries
        self.objs = objs
        now, self.serial = mount.cache._stamp(mount.env.now, len(entries))
        self.times = list(accumulate(
            repeat(mount.cached_read_latency_s, len(entries)), initial=now))
        self.applied = 0
        #: Resolves with the number of reads served.
        self.done = Event(mount.env)
        mount.cache._runs[self] = None
        self._arm()
        self.apply(self.times[1])  # read 0, and only it, is issued now

    def _arm(self) -> None:
        self.timer = self.mount.env.timeout_at(self.times[len(self.entries)])
        self.timer.callbacks.append(self._fire)

    def _fire(self, timer: Event) -> None:
        if timer is self.timer:  # else superseded by a cut, or cancelled
            self.apply()
            del self.mount.cache._runs[self]
            self.done.succeed(len(self.entries))

    def apply(self, before: float = inf) -> None:
        """Apply the reads issued strictly before ``before``."""
        mount, entries, times = self.mount, self.entries, self.times
        upto = self.applied
        while upto < len(entries) and times[upto] < before:
            entry, stamp = entries[upto], (times[upto], self.serial + upto)
            if stamp > entry.stamp:
                entry.stamp = stamp
            mount.bytes_read += self.objs[upto].size_bytes
            upto += 1
        mount.reads += upto - self.applied
        mount.cache.hits += upto - self.applied
        self.applied = upto

    def cut(self, entry: _Entry) -> None:
        """``entry`` left the cache: a read of it still ahead is a miss,
        so the run ends when that read is issued."""
        if entry in self.entries[self.applied:]:
            del self.entries[self.entries.index(entry, self.applied):]
            self._arm()

    def cancel(self) -> None:
        """The reader was interrupted: reads issued before now happened,
        the rest never will; the pending timer fires dead."""
        self.apply(self.mount.env.now)
        self.timer = None
        del self.mount.cache._runs[self]


class BucketMount:
    """A mounted bucket: filesystem-like reads backed by streaming + cache."""

    def __init__(self, env: Environment, service: ObjectStorageService,
                 bucket: str, cache: Optional[MountCache] = None,
                 token: Optional[str] = None,
                 cached_read_latency_s: float = 0.001,
                 retry: Optional[RetryPolicy] = None,
                 retry_stream: Optional[random.Random] = None):
        self.env = env
        self.service = service
        self.bucket = bucket
        self.cache = cache
        self.token = token
        self.cached_read_latency_s = cached_read_latency_s
        #: Optional resilience against object-store outage windows: reads
        #: and writes retry under this policy (jitter from retry_stream).
        self.retry = retry
        self.retry_stream = retry_stream
        self.reads = 0
        self.bytes_read = 0.0
        self.retries = 0

    def _with_retry(self, attempt):
        """Run ``attempt`` (→ Event) under the mount's retry policy."""

        def count_retry(_attempt: int, _err: BaseException) -> None:
            self.retries += 1

        return retry_call(self.env, self.retry_stream, attempt, self.retry,
                          retry_on=(ObjectStorageUnavailableError,),
                          on_retry=count_retry)

    def read(self, key: str) -> Event:
        """Read a file; resolves with the StoredObject.

        Cache hits cost only local-disk latency; misses stream the object
        over the shared OSS bandwidth and then admit it to the cache.
        """
        self.reads += 1
        if self.cache is not None and \
                self.cache.lookup(self.bucket, key, self.env.now):
            try:
                obj = self.service.bucket(self.bucket).get(key)
            except NoSuchObjectError:
                # Deleted behind the cache: drop the stale entry, count
                # the read as the miss it turns out to be, and let the
                # miss path fail the returned event.
                self.cache.invalidate(self.bucket, key, self.env.now)
                self.cache.hits -= 1
                self.cache.misses += 1
            else:
                self.bytes_read += obj.size_bytes
                return self.env.timeout(self.cached_read_latency_s, obj)

        def miss():
            if self.retry is not None:
                obj = yield from self._with_retry(
                    lambda: self.service.download(self.bucket, key,
                                                  self.token))
            else:
                obj = yield self.service.download(self.bucket, key,
                                                  self.token)
            self.bytes_read += obj.size_bytes
            if self.cache is not None:
                self.cache.admit(self.bucket, key, obj.size_bytes,
                                 self.env.now)
            return obj

        return self.env.process(miss(), name=f"mount-miss:{key}")

    def read_all(self, keys):
        """Read ``keys`` one after another; drive it with ``yield from``.

        Everything ends up as after ``for key in keys: yield
        self.read(key)``, but a maximal stretch of two or more keys that
        are cached (and stored) right now is carried by one
        :class:`_HitRun`; the rest - no cache, a miss, a stale entry, a
        lone hit - goes through :meth:`read`.  A run that loses a key
        before reading it ends there and the loop carries on from that
        key; an ``Interrupt`` while waiting cancels it.  Counters of a
        *pending* run lag, and ``bytes_read`` is summed in apply order
        across readers of one mount (equal for integer-valued sizes below
        2**53); an object deleted behind the cache during a run is
        noticed by the first read after it.
        """
        done = 0
        while done < len(keys):
            run = self._start_run(keys, done)
            if run is None:
                yield self.read(keys[done])
                done += 1
                continue
            try:
                done += yield run.done
            except Interrupt:
                run.cancel()
                raise

    def _start_run(self, keys, start: int) -> Optional[_HitRun]:
        """A run over the longest stretch of ``keys[start:]`` that is
        cached and stored right now, or None if that is under two."""
        if self.cache is None or len(keys) - start < 2 or \
                (self.bucket, keys[start]) not in self.cache._entries:
            return None  # the last is the usual reason; then any bucket exists
        cached = self.cache._entries.get
        stored = self.service.bucket(self.bucket)._objects.get
        entries, objs = [], []
        for key in keys[start:]:
            entry, obj = cached((self.bucket, key)), stored(key)
            if entry is None or obj is None:
                break
            entries.append(entry)
            objs.append(obj)
        return _HitRun(self, entries, objs) if len(entries) > 1 else None

    def write(self, key: str, size_bytes: float, payload=None) -> Event:
        """Write a file through to the bucket (checkpoints, results)."""

        def upload():
            if self.retry is not None:
                obj = yield from self._with_retry(
                    lambda: self.service.upload(self.bucket, key, size_bytes,
                                                payload, self.token))
            else:
                obj = yield self.service.upload(self.bucket, key, size_bytes,
                                                payload, self.token)
            if self.cache is not None:
                self.cache.invalidate(self.bucket, key, self.env.now)
            return obj

        return self.env.process(upload(), name=f"mount-write:{key}")

    def listdir(self, prefix: str = "") -> list:
        return self.service.list_objects(self.bucket, prefix, self.token)
