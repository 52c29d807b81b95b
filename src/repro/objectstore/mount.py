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
import sys
from itertools import accumulate, repeat
from math import floor, inf, nextafter, ulp
from typing import Optional

from repro.errors import NoSuchObjectError, ObjectStorageUnavailableError
from repro.objectstore.service import ObjectStorageService
from repro.resilience import RetryPolicy, retry_call
from repro.sim.core import Environment, Event, Interrupt


#: Ulps in a binade: a float ``t`` in ``[2**k, 2**(k+1))``, ``k`` at least
#: the smallest normal exponent, is ``n * ulp(t)`` for one integer ``n``
#: in ``[2**52, 2**53)``.
_BINADE = 1 << 53
_NORMAL = sys.float_info.min


def _ulps(d: float, u: float) -> Optional[int]:
    """``d`` rounded to the nearest whole number of ``u``, a power of two,
    or None on a tie - then ``t + d`` rounds to even, which depends on
    ``t`` - or when the step is a binade or more."""
    q = d / u  # exact: u is a power of two
    if not q < _BINADE:
        return None
    whole = floor(q)
    rest = q - whole
    return None if rest == 0.5 else whole + (rest > 0.5)


def _chain(t: float, d: float, n: int, before: float) -> tuple:
    """``(k, t)`` after ``while k < n and t < before: t += d; k += 1``.

    In ``t``'s binade every float is a multiple of ``u = ulp(t)``, so
    each addition moves ``t`` by the same whole number of ulps,
    ``_ulps(d, u)``, while the sum stays below the binade's top: the
    chain is one multiplication, and ``before`` an integer ceiling.  A
    tie, a chain that leaves the binade, a subnormal ``t`` or a
    ``d < 0`` take the loop.
    """
    if n and _NORMAL <= t < before and d >= 0.0:
        u = ulp(t)
        step = _ulps(d, u)
        if step is not None:
            base = int(t / u)
            limit = _BINADE if before >= u * _BINADE else int(before / u)
            k = min(n, -((base - limit) // step)) if step else n
            if base + k * step < _BINADE:
                return k, (base + k * step) * u
    k = 0
    while k < n and t < before:
        t += d
        k += 1
    return k, t


def _inline(env: Environment, steps, target: Event, name: str):
    """``yield from steps``, suspended on ``target``, in the caller's
    process - except that an ``Interrupt`` there first hands the rest
    of ``steps`` to a process of its own, ``name``, which waits on
    ``target`` in its place: what the steps started still runs to its
    end, as it would had they been a process from the start.  (A miss
    waits on a timeout and a transfer, which never fail.)"""
    while True:
        try:
            value = yield target
        except Interrupt:
            env.process(_inline(env, steps, target, name), name=name)
            raise
        try:
            target = steps.send(value)
        except StopIteration as stop:
            return stop.value


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


class _Fetch:
    """The plan of a plain ``read_all`` run: one chunk that reads the
    ring once in order, and no compute after it."""

    __slots__ = ("count",)

    chunks = 1
    overlap = 0.0
    #: No period: its one chunk is walked read by read.
    period = regular = 0

    def __init__(self, count: int):
        self.count = count

    def chunk(self, chunk: int) -> tuple:
        return 0, self.count, 0.0


class _HitRun:
    """Cache hits by one reader, in chunks, on one timer, not one each.

    The reader's objects are a *ring* (``entries``, ``sizes``); a
    ``plan`` says which of them each chunk reads and how long the reader
    computes after it: ``plan.chunk(c)`` is ``(first, count,
    compute_s)``, reading positions ``first .. first + count - 1``
    modulo the ring.  Chunk *c*'s reads are issued from its start
    ``T_c``, each ``cached_read_latency_s`` after the one before **by
    repeated addition** - the additions the kernel makes for a
    ``Timeout`` per hit; ``t0 + j * latency`` is another float - and its
    fetch ends one latency after the last, at ``F_c``.  The next chunk
    starts at ``F_c + max(0.0, compute_s - plan.overlap * (F_c - T_c))``,
    the compute less the part of the fetch it hides, as a reader's
    ``Timeout`` would end.  A plain ``read_all`` is one chunk and no
    compute (:class:`_Fetch`).  The run ends at ``stop``, a ``(chunk,
    read)`` position: after the last chunk, or earlier if cut.  Stamps,
    ``hits``, ``reads`` and ``bytes_read`` move when the timer fires,
    or earlier if the cache or the reader has to settle.  A walk along
    the chain jumps whole periods of the plan's full chunks at once
    (:meth:`_jump`) and settling writes one stamp per ring position, so
    a run's state is O(ring) and a walk costs O(binades crossed)
    however many reads the run makes.
    """

    __slots__ = ("mount", "entries", "sizes", "plan", "serial", "stop",
                 "chunk", "issued", "t", "start", "reads", "timer", "done",
                 "periods")

    #: KernelProfiler site family of the firing callback.
    name = "mount-hit"

    def __init__(self, mount: "BucketMount", entries: list, objs: list,
                 plan):
        self.mount = mount
        self.entries = entries
        self.sizes = [obj.size_bytes for obj in objs]
        self.plan = plan
        now, self.serial = mount.cache._stamp(mount.env.now,
                                              plan.chunks * len(entries))
        #: Settled position: ``issued`` reads of chunk ``chunk`` (which
        #: started at ``start``) are applied, and ``t`` is when the next
        #: read is issued - or, all issued, when the fetch ends.
        self.chunk, self.issued, self.t, self.start = 0, 0, now, now
        self.reads = 0  # applied so far
        self.stop = (plan.chunks, 0)
        #: Per binade, by its ulp: ``(ulps, reads)`` of one period of
        #: full chunks, or None if one of its additions rounds a tie.
        self.periods = {}
        #: Resolves with the number of reads served.
        self.done = Event(mount.env)
        mount.cache._runs[self] = None
        mount.env.chains[self] = mount
        self._arm()
        self.apply(nextafter(now, inf))  # the reads issued now, by the reader

    def _walk(self, before: float, stop: tuple, visit=None,
              skip=None) -> tuple:
        """Follow the chain from the settled position to ``stop``,
        halting at the first read or chunk end at or after ``before``,
        or when ``visit(chunk, first, from, to, t_from)``, called with
        each chunk's reads passed, returns true.  Returns the position
        reached.

        Without ``visit``, or with ``skip``, the walk jumps whole
        periods of full chunks (:meth:`_jump`); ``skip(chunk, chunks,
        reads)`` hears of each jump, and ``visit`` still sees the chunks
        at its end that read every ring position the jump passed."""
        plan, latency = self.plan, self.mount.cached_read_latency_s
        chunk, issued, t, start = self.chunk, self.issued, self.t, self.start
        stop_chunk, stop_read = stop
        period = plan.period if visit is None or skip is not None else 0
        regular, retry = min(plan.regular, stop_chunk), 1
        while chunk < stop_chunk or issued < stop_read:
            if period and chunk >= retry and not issued and \
                    chunk + period <= regular:
                chunks, reads, t, retry = self._jump(
                    chunk, t, before, regular, visit is not None)
                if chunks:
                    if skip is not None:
                        skip(chunk, chunks, reads)
                    chunk, start = chunk + chunks, t
                    continue
            first, count, compute_s = plan.chunk(chunk)
            last = count if chunk < stop_chunk else stop_read
            begun, t_begun = issued, t
            reads, t = _chain(t, latency, last - issued, before)
            issued += reads
            if visit is not None and issued > begun and \
                    visit(chunk, first, begun, issued, t_begun):
                break
            if issued < last or chunk == stop_chunk:
                break
            end = t + max(0.0, compute_s - plan.overlap * (t - start))
            if not end < before:
                break
            chunk, issued, t, start = chunk + 1, 0, end, end
        return chunk, issued, t, start

    def _jump(self, chunk: int, t: float, before: float, end: int,
              tail: bool) -> tuple:
        """Whole periods of full chunks from ``chunk``, which starts at
        ``t``: as many as end before ``before``, by chunk ``end`` and in
        ``t``'s binade, less with ``tail`` those at the end that read
        every ring position the others read.  Returns ``(chunks,
        reads, t, retry)``: the chunks and reads jumped, the start of
        the chunk after them, and the chunk to try again from.

        In the binade of ``t``, every addition of the chain rounds to
        the same whole number of ulps whatever its operand (no tie, no
        sum past the binade's top): a chunk's reads move ``t`` by
        ``count x`` the latency's ulps, ``F - T`` is exact, so the
        compute after them is one float per chunk shape, and so is the
        chunk's end.  A period's chunk shapes repeat, so periods add up
        to integers: ``before`` and the binade's top are integer
        ceilings on ``t``'s ulps."""
        period = self.plan.period
        retry = chunk + period
        if not _NORMAL <= t < before:
            return 0, 0, t, retry
        u = ulp(t)
        steps = self.periods.get(u, False)
        if steps is False:
            steps = self.periods[u] = self._period(chunk, u)
        if steps is None:
            return 0, 0, t, retry
        ulps, reads = steps
        base = int(t / u)
        periods = (end - chunk) // period
        if ulps:
            limit = _BINADE if before >= u * _BINADE else int(before / u)
            periods = min(periods, (limit - 1 - base) // ulps)
        if periods <= 0:
            return 0, 0, t, retry
        retry = chunk + periods * period
        if tail:
            periods -= self._tail(chunk, retry)
            if periods <= 0:
                return 0, 0, t, retry
        return periods * period, periods * reads, \
            (base + periods * ulps) * u, retry

    def _period(self, chunk: int, u: float) -> Optional[tuple]:
        """``(ulps, reads)`` of the period of full chunks from ``chunk``
        in the binade whose ulp is ``u``, or None on a tie."""
        plan = self.plan
        step = _ulps(self.mount.cached_read_latency_s, u)
        if step is None:
            return None
        ulps = reads = 0
        for at in range(chunk, chunk + plan.period):
            _first, count, compute_s = plan.chunk(at)
            fetch = count * step
            gap = _ulps(max(0.0, compute_s - plan.overlap * (fetch * u)), u)
            if gap is None:
                return None
            ulps += fetch + gap
            reads += count
        return ulps, reads

    def _tail(self, chunk: int, end: int) -> int:
        """Periods at the end of full chunks ``chunk .. end - 1`` that
        read every ring position the others read: all of the ring, or
        every shift of the period's reads (after ``ring`` periods at
        most they repeat)."""
        plan, ring = self.plan, len(self.entries)
        seen, at, bound = set(), end, max(chunk, end - ring * plan.period)
        while at > bound and len(seen) < ring:
            at -= 1
            first, count, _compute_s = plan.chunk(at)
            seen.update((first + read) % ring for read in range(count))
        return -(-(end - at) // plan.period)

    def _arm(self) -> None:
        self.timer = self.mount.env.timeout_at(self._walk(inf, self.stop)[2])
        self.timer.callbacks.append(self._fire)

    def _fire(self, timer: Event) -> None:
        if timer is self.timer:  # else superseded by an earlier end
            self.apply()
            del self.mount.cache._runs[self]
            del self.mount.env.chains[self]
            self.done.succeed(self.reads)

    def apply(self, before: float = inf) -> None:
        """Apply the reads issued, and end the chunks that end,
        strictly before ``before``."""
        mount, entries, sizes, plan = \
            self.mount, self.entries, self.sizes, self.plan
        ring = len(entries)
        # Per ring position, the reads of the chunk that used it last:
        # only that use can raise the entry's stamp.
        last = {}
        bytes_read, serial = mount.bytes_read, self.serial + self.reads

        def visit(_chunk, first, begun, issued, t):
            nonlocal bytes_read, serial
            reads = (first, begun, issued, t, serial)
            for read in range(begun, issued):
                position = (first + read) % ring
                bytes_read += sizes[position]
                last[position] = reads
            serial += issued - begun

        def skip(chunk, chunks, reads):
            # Sums of equal integers below 2**53 are exact in any order.
            nonlocal bytes_read, serial
            serial += reads
            size = sizes[0]
            if bytes_read.is_integer() and size.is_integer() and \
                    bytes_read + reads * size < _BINADE and \
                    sizes.count(size) == ring:
                bytes_read += reads * size
                return
            for at in range(chunk, chunk + chunks):
                first, count, _compute_s = plan.chunk(at)
                for read in range(count):
                    bytes_read += sizes[(first + read) % ring]

        self.chunk, self.issued, self.t, self.start = \
            self._walk(before, self.stop, visit, skip)
        count = serial - self.serial - self.reads
        self.reads += count
        mount.reads += count
        mount.cache.hits += count
        mount.bytes_read = bytes_read
        latency, timelines = mount.cached_read_latency_s, {}
        for position, reads in last.items():
            first, begun, issued, t, base = reads
            times = timelines.get(reads)
            if times is None:
                times = timelines[reads] = list(accumulate(
                    repeat(latency, issued - begun - 1), initial=t))
            read = (position - first) % ring - begun
            entry, stamp = entries[position], (times[read], base + read)
            if stamp > entry.stamp:
                entry.stamp = stamp

    settle = apply  # as Environment.settle calls it

    def _end_at(self, stop: tuple) -> None:
        if stop < self.stop:
            self.stop = stop
            self._arm()

    def cut(self, entry: _Entry) -> None:
        """``entry`` left the cache: a read of it still ahead is a miss,
        so the run ends when that read is issued."""
        if entry not in self.entries:
            return
        entries, ring = self.entries, len(self.entries)

        def visit(chunk, first, begun, issued, _t):
            for read in range(begun, issued):
                if entries[(first + read) % ring] is entry:
                    self._end_at((chunk, read))
                    return True
            return False

        self._walk(inf, self.stop, visit)

    def end_at_next_chunk(self) -> None:
        """Something the reader looks at between chunks changed: the run
        ends where the next chunk starts.  (Settled to now, the chunk in
        progress has begun: a chunk that starts before now has issued its
        first read, and the first chunk began with the run.)"""
        if self.done.triggered or self.timer is None:
            return
        self.apply(self.mount.env.now)
        self._end_at((self.chunk + 1, 0))

    def cancel(self) -> None:
        """The reader was interrupted: reads issued before now happened,
        the rest never will; the pending timer fires dead."""
        self.apply(self.mount.env.now)
        self.timer = None
        del self.mount.cache._runs[self]
        del self.mount.env.chains[self]


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
        obj = self._hit(key)
        if obj is not None:
            return self.env.timeout(self.cached_read_latency_s, obj)
        return self.env.process(self._miss(key), name=f"mount-miss:{key}")

    def _hit(self, key: str):
        """Count a read of ``key``: its object if the cache serves it,
        else None and the read is a miss."""
        self.reads += 1
        if self.cache is not None and \
                self.cache.lookup(self.bucket, key, self.env.now):
            try:
                obj = self.service.bucket(self.bucket).get(key)
            except NoSuchObjectError:
                # Deleted behind the cache: drop the stale entry, count
                # the read as the miss it turns out to be, and let the
                # miss path fail.
                self.cache.invalidate(self.bucket, key, self.env.now)
                self.cache.hits -= 1
                self.cache.misses += 1
            else:
                self.bytes_read += obj.size_bytes
                return obj
        return None

    def _miss(self, key: str):
        """The steps of a miss: stream ``key``, then admit it."""
        if self.retry is not None:
            obj = yield from self._with_retry(
                lambda: self.service.download(self.bucket, key, self.token))
        else:
            obj = yield from self.service.download_steps(
                self.bucket, key, self.token)
        self.bytes_read += obj.size_bytes
        if self.cache is not None:
            self.cache.admit(self.bucket, key, obj.size_bytes, self.env.now)
        return obj

    def read_all(self, keys):
        """Read ``keys`` one after another; drive it with ``yield from``.

        Everything ends up as after ``for key in keys: yield
        self.read(key)``, but a maximal stretch of two or more keys that
        are cached (and stored) right now is carried by one
        :class:`_HitRun`; the rest - no cache, a miss, a stale entry, a
        lone hit - is read one key at a time, a miss without a retry
        policy as steps of the caller's own process (:func:`_inline`).
        A run that loses a key before reading it ends there and the loop
        carries on from that key; an ``Interrupt`` while waiting cancels
        it.  Counters of a *pending* run lag, and ``bytes_read`` is
        summed in apply order across readers of one mount (equal for
        integer-valued sizes below 2**53); an object deleted behind the
        cache during a run is noticed by the first read after it.
        """
        done = 0
        while done < len(keys):
            run = self._start_run(keys, done)
            if run is None:
                key, done = keys[done], done + 1
                if self.retry is not None:
                    yield self.read(key)
                    continue
                obj = self._hit(key)
                if obj is None:
                    miss = self._miss(key)
                    yield from _inline(self.env, miss, next(miss),
                                       f"mount-miss:{key}")
                else:
                    yield self.env.timeout(self.cached_read_latency_s, obj)
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
        entries, objs = self._cached(keys[start:])
        return _HitRun(self, entries, objs, _Fetch(len(entries))) \
            if len(entries) > 1 else None

    def _cached(self, keys) -> tuple:
        """Cache entries and stored objects of the longest prefix of
        ``keys`` that is cached and stored right now."""
        cached = self.cache._entries.get
        stored = self.service.bucket(self.bucket)._objects.get
        entries, objs = [], []
        for key in keys:
            entry, obj = cached((self.bucket, key)), stored(key)
            if entry is None or obj is None:
                break
            entries.append(entry)
            objs.append(obj)
        return entries, objs

    def cached(self, keys) -> bool:
        """Whether every key is cached and stored right now."""
        return self.cache is not None and \
            len(self._cached(keys)[0]) == len(keys)

    def stretch(self, keys, plan) -> Optional[_HitRun]:
        """A run that reads the ring ``keys`` in ``plan``'s chunks (see
        :class:`_HitRun`), or None unless every key is cached and stored
        right now.  Wait on its ``done``; an ``Interrupt`` meanwhile
        must ``cancel`` it."""
        if self.cache is None:
            return None
        entries, objs = self._cached(keys)
        return _HitRun(self, entries, objs, plan) \
            if len(entries) == len(keys) else None

    def write(self, key: str, size_bytes: float, payload=None) -> Event:
        """Write a file through to the bucket (checkpoints, results)."""

        def upload():
            if self.retry is not None:
                obj = yield from self._with_retry(
                    lambda: self.service.upload(self.bucket, key, size_bytes,
                                                payload, self.token))
            else:
                obj = yield from self.service.upload_steps(
                    self.bucket, key, size_bytes, payload, self.token)
            if self.cache is not None:
                self.cache.invalidate(self.bucket, key, self.env.now)
            return obj

        return self.env.process(upload(), name=f"mount-write:{key}")

    def listdir(self, prefix: str = "") -> list:
        return self.service.list_objects(self.bucket, prefix, self.token)
