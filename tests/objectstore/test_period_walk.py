"""A hit run's walk by periods against the walk chunk by chunk.

``_HitRun`` walks the chain of a run's reads and chunk ends to arm its
timer and to settle, and jumps whole periods of full chunks inside a
binade.  The reference is ``_HitRun._walk`` and ``_HitRun.apply`` as
they were before the walk jumped, kept verbatim below as functions of
the run.  Random periodic plans, started at random instants across
binades, settle at random bounds - read instants and chunk ends
exactly, and the floats either side of them - and at random stops,
through both; the position reached, every counter, ``bytes_read`` and
every stamp must be equal, bit for bit.
"""

from itertools import accumulate, repeat
from math import inf, nextafter

from hypothesis import example, given, settings, strategies as st

from repro.objectstore import BucketMount, MountCache, ObjectStorageService
from repro.sim import Environment

from tests.conftest import examples


def reference_walk(self, before: float, stop: tuple, visit=None) -> tuple:
    """``_HitRun._walk`` before periods, verbatim."""
    plan, latency = self.plan, self.mount.cached_read_latency_s
    chunk, issued, t, start = self.chunk, self.issued, self.t, self.start
    stop_chunk, stop_read = stop
    while chunk < stop_chunk or issued < stop_read:
        first, count, compute_s = plan.chunk(chunk)
        last = count if chunk < stop_chunk else stop_read
        begun, t_begun = issued, t
        while issued < last and t < before:
            t += latency
            issued += 1
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


def reference_apply(self, before: float = inf) -> None:
    """``_HitRun.apply`` before periods, verbatim."""
    mount, entries, sizes = self.mount, self.entries, self.sizes
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

    self.chunk, self.issued, self.t, self.start = \
        reference_walk(self, before, self.stop, visit)
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


class Plan:
    """Chunk 0 waits ``gap0``; then chunk *c* reads ``counts[c % P]``
    objects from ``c * advance`` and computes ``compute_s``, but for a
    last chunk of ``short`` reads (if any) that computes half as long."""

    overlap = 0.8

    def __init__(self, chunks, counts, advance, compute_s, gap0, short):
        self.chunks, self.counts, self.advance = chunks, counts, advance
        self.compute_s, self.gap0, self.short = compute_s, gap0, short
        self.period = len(counts)
        self.regular = chunks - 1 if short else chunks

    def chunk(self, chunk):
        if chunk == 0:
            return 0, 0, self.gap0
        if chunk >= self.regular:
            return chunk * self.advance, self.short, self.compute_s / 2
        return chunk * self.advance, self.counts[chunk % self.period], \
            self.compute_s


def world(spec):
    """A run of ``spec``'s plan over a warm ring, started at its start."""
    env = Environment()
    env.run(until=spec["start"])
    service = ObjectStorageService(env)
    bucket = service.create_bucket("data")
    keys = [f"k{index}" for index in range(len(spec["sizes"]))]
    cache = MountCache(1e18)
    mount = BucketMount(env, service, "data", cache=cache,
                        cached_read_latency_s=spec["latency"])
    mount.bytes_read = spec["bytes_read"]
    for key, size in zip(keys, spec["sizes"]):
        bucket.put(key, size)
        cache.admit("data", key, size, 0.0)
    return mount.stretch(keys, Plan(**spec["plan"]))


def state(run):
    mount = run.mount
    return ((run.chunk, run.issued, run.t.hex(), run.start.hex(), run.stop,
             run.reads, mount.reads, mount.cache.hits,
             mount.bytes_read.hex()),
            [(entry.stamp[0].hex(), entry.stamp[1])
             for entry in run.entries])


def instants(plan, latency, t):
    """Every read instant and chunk end of ``plan`` from ``t``."""
    seen, start = [t], t
    for chunk in range(plan.chunks):
        _first, count, compute_s = plan.chunk(chunk)
        for _ in range(count):
            t += latency
            seen.append(t)
        t += max(0.0, compute_s - plan.overlap * (t - start))
        start = t
        seen.append(t)
    return seen


@st.composite
def specs(draw):
    ring = draw(st.integers(1, 6))
    period = draw(st.integers(1, 4))
    chunks = draw(st.integers(2, 120))
    if draw(st.booleans()):
        sizes = [draw(st.sampled_from([1000.0, 2.0 ** 52]))] * ring
    else:
        sizes = [draw(st.floats(0.0, 1e6)) for _ in range(ring)]
    start = draw(st.one_of(
        st.floats(0.0, 5000.0),
        st.integers(3, 13).map(lambda k: 2.0 ** k - 3.7)))
    return {
        "start": start,
        "latency": draw(st.sampled_from([0.001, 0.001, 0.05, 1 / 3,
                                         3 * 2.0 ** -53, 0.0])),
        "sizes": sizes,
        "bytes_read": draw(st.sampled_from([0.0, 5e15, 0.5])),
        "plan": {
            "chunks": chunks,
            "counts": [draw(st.integers(1, ring)) for _ in range(period)],
            "advance": draw(st.integers(0, ring)),
            "compute_s": draw(st.sampled_from([0.0, 0.01, 1.9, 95.0, 400.0])),
            "gap0": draw(st.floats(0.0, 100.0)),
            "short": draw(st.sampled_from([None, 1, ring])),
        },
    }


#: A stretch of two-chunk periods from 800 s to past 2 100 s.
LONG = {"start": 800.0, "latency": 0.001, "sizes": [1000.0] * 5,
        "bytes_read": 0.0,
        "plan": {"chunks": 60, "counts": [3, 2], "advance": 2,
                 "compute_s": 23.0, "gap0": 1.5, "short": 1}}


@settings(max_examples=examples(200), deadline=None)
@example(spec=LONG, bounds=[(77, 0), (78, 1), (200, 0)], stop=None)
@example(spec=LONG, bounds=[(150, -1), (151, 0)], stop=(40, 2))
@given(spec=specs(),
       bounds=st.lists(st.tuples(st.integers(0, 10 ** 4),
                                 st.sampled_from([-1, 0, 1])),
                       max_size=4),
       stop=st.one_of(st.none(), st.tuples(st.integers(1, 119),
                                           st.integers(0, 6))))
def test_a_walk_by_periods_is_the_walk_by_chunks(spec, bounds, stop):
    run, reference = world(spec), world(spec)
    assert run._walk(inf, run.stop) == \
        reference_walk(reference, inf, reference.stop)
    # As a cut or a halt sets it: ahead of the settled position, never
    # behind it (the walks would run on past it without end).
    if stop is not None and (run.chunk, run.issued) <= stop < run.stop:
        chunk, read = stop
        count = run.plan.chunk(chunk)[1]
        run.stop = reference.stop = (chunk, read % count if count else 0)
    times = instants(run.plan, spec["latency"], spec["start"])
    befores = []
    for index, side in bounds:
        before = times[index % len(times)]
        befores.append(nextafter(before, side * inf) if side else before)
    for before in sorted(befores) + [inf]:
        run.apply(before)
        reference_apply(reference, before)
        assert state(run) == state(reference)
