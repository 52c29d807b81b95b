"""``BucketMount.read_all`` against the per-key reader it replaces.

The reference is the code the platform ran before hit runs existed:
``for key in keys: yield mount.read(key)`` over a cache that keeps
recency as list order (``ListOrderCache``, the former ``MountCache``).
Random programs - several readers over mounts sharing one small cache,
think times, kills, write-through invalidations - are played three
times: reference cache + per-key reads (the oracle), the stamp cache +
per-key reads, the stamp cache + ``read_all``.  At quiescence every
instant a reader observed, every counter and the surviving entries *in
LRU order* must be equal, exactly.

The strict comparison needs tie-free schedules: when two different
actors touch the cache at exactly the same float instant, which goes
first is the kernel's tie-break, and a run's timer takes its place in
line when the run starts rather than at each hit.  Such examples are
discarded (the oracle run detects them); lockstep twins, whose every
instant is a tie, are compared separately under a cache that never
evicts.

Without a cache, ``read_all`` runs each miss as steps of the reader's
own process.  There the reference is the read as it stood with a
``mount-miss`` process over an ``oss-get`` one (``two_process_read``,
verbatim), and kills land in a miss's request latency or mid-transfer:
the interrupted miss must still start, finish and count its transfer.
"""

from collections import OrderedDict

from hypothesis import assume, example, given, settings, strategies as st

from repro.errors import NoSuchObjectError, ObjectStorageUnavailableError
from repro.objectstore import BucketMount, MountCache, ObjectStorageService
from repro.sim import Environment

from tests.conftest import examples

KEYS = ("k0", "k1", "k2", "k3", "k4", "k5")
UNBOUNDED = 1e12


class ListOrderCache:
    """The reference: a byte-capacity LRU whose recency is list order."""

    def __init__(self, capacity_bytes):
        self.capacity_bytes = float(capacity_bytes)
        self._entries = OrderedDict()
        self.used_bytes = 0.0
        self.hits = 0
        self.misses = 0

    def lookup(self, bucket, key, now=None):
        if (bucket, key) in self._entries:
            self._entries.move_to_end((bucket, key))
            self.hits += 1
            return True
        self.misses += 1
        return False

    def admit(self, bucket, key, size_bytes, now=None):
        if size_bytes > self.capacity_bytes:
            return
        if (bucket, key) in self._entries:
            self._entries.move_to_end((bucket, key))
            return
        while self.used_bytes + size_bytes > self.capacity_bytes:
            _victim, victim_size = self._entries.popitem(last=False)
            self.used_bytes -= victim_size
        self._entries[(bucket, key)] = size_bytes
        self.used_bytes += size_bytes

    def invalidate(self, bucket, key, now=None):
        size = self._entries.pop((bucket, key), None)
        if size is not None:
            self.used_bytes -= size


def download(self, bucket_name, key, token=None):
    """``ObjectStorageService.download`` as it stood, verbatim."""
    self._authorize(token, bucket_name)
    obj = self.bucket(bucket_name).get(key)
    self.downloads_started += 1

    def stream():
        yield self.env.timeout(self.request_latency_s)
        if not self.available:
            raise ObjectStorageUnavailableError(
                f"object storage unavailable: GET {bucket_name}/{key}")
        yield self.link.transfer(obj.size_bytes)
        return obj

    return self.env.process(stream(), name=f"oss-get:{key}")


def two_process_read(self, key):
    """``BucketMount.read`` as it stood, verbatim but for the call of
    ``download`` above: a miss is a process waiting on another."""
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
                lambda: download(self.service, self.bucket, key,
                                 self.token))
        else:
            obj = yield download(self.service, self.bucket, key,
                                 self.token)
        self.bytes_read += obj.size_bytes
        if self.cache is not None:
            self.cache.admit(self.bucket, key, obj.size_bytes,
                             self.env.now)
        return obj

    return self.env.process(miss(), name=f"mount-miss:{key}")


def lru_order(cache):
    if cache is None:
        return []
    if isinstance(cache, ListOrderCache):
        return list(cache._entries)
    return sorted(cache._entries, key=lambda k: cache._entries[k].stamp)


def play(program, cache_class, batched, read=BucketMount.read):
    """Run ``program`` to quiescence, reading one key at a time with
    ``read`` unless ``batched``.  Returns what could be observed, and
    for each instant the actors that touched the cache then (reads are
    only traceable one by one, i.e. when not ``batched``)."""
    env = Environment()
    service = ObjectStorageService(env, bandwidth_bps=1e5,
                                   request_latency_s=0.00037)
    for bucket, sizes in enumerate(program["objects"]):
        stored = service.create_bucket(f"b{bucket}")
        for key, size in zip(KEYS, sizes):
            stored.put(key, size)
    cache = None if program["capacity"] is None else \
        cache_class(program["capacity"])
    mounts = [BucketMount(env, service, f"b{bucket}", cache=cache)
              for bucket in program["mounts"]]
    seen = []      # (actor, instant, what)
    touches = {}   # instant -> actors
    transfers = []  # completion instants of the link's transfers
    link_transfer = service.link.transfer

    def transfer(size_bytes):
        done = link_transfer(size_bytes)
        done.callbacks.append(lambda _done: transfers.append(env.now))
        return done

    service.link.transfer = transfer

    def touch(actor):
        touches.setdefault(env.now, set()).add(actor)

    def reader(actor, mount, start, chunks):
        yield env.timeout(start)
        for keys, think in chunks:
            if batched:
                yield from mount.read_all(keys)
            else:
                for key in keys:  # the reference loop
                    touch(actor)
                    yield read(mount, key)
            seen.append((actor, env.now, "fetched"))
            yield env.timeout(think)

    def killer(actor, victim, at):
        yield env.timeout(at)
        if victim.is_alive:
            touch(actor)
            seen.append((actor, env.now, "kill",
                         service.link.active_transfers))
            victim.interrupt("kill")

    def writer(actor, mount, at, key, size):
        yield env.timeout(at)
        yield mount.write(key, size)
        touch(actor)
        seen.append((actor, env.now, "written"))

    for index, (mount, start, chunks, kill_at) in \
            enumerate(program["readers"]):
        victim = env.process(reader(f"r{index}", mounts[mount], start,
                                    chunks))
        if kill_at is not None:
            env.process(killer(f"x{index}", victim, kill_at))
    for index, (mount, at, key, size) in enumerate(program["writes"]):
        env.process(writer(f"w{index}", mounts[mount], at, key, size))
    env.run()
    return {
        "seen": seen,
        "cache": None if cache is None else
        (cache.hits, cache.misses, cache.used_bytes),
        "mounts": [(m.reads, m.bytes_read) for m in mounts],
        "downloads": service.downloads_started,
        "link": (transfers, service.link.bytes_transferred),
        "lru": lru_order(cache),
    }, touches


def assert_all_forms_agree(program, tie_free=True):
    oracle, touches = play(program, ListOrderCache, batched=False)
    if tie_free:
        assume(all(len(actors) == 1 for actors in touches.values()))
    assert play(program, MountCache, batched=False)[0] == oracle
    assert play(program, MountCache, batched=True)[0] == oracle


def assert_cacheless_forms_agree(program, tie_free=True):
    """Two processes per miss (the oracle), one, and none."""
    oracle, touches = play(program, None, batched=False,
                           read=two_process_read)
    if tie_free:
        assume(all(len(actors) == 1 for actors in touches.values()))
    assert play(program, None, batched=False)[0] == oracle
    assert play(program, None, batched=True)[0] == oracle
    return oracle


# -- random programs ---------------------------------------------------------


def _instant(actor, ticks):
    """A delay no other actor can produce: ``ticks`` of an odd unit plus
    an offset that is the actor's own."""
    return ticks * 0.000137 + (actor + 1) * 0.0000113


@st.composite
def programs(draw, capacities=(500, 700, 1000, 1500, UNBOUNDED)):
    buckets = draw(st.integers(1, 2))
    objects = [[draw(st.integers(100, 400)) for _ in KEYS]
               for _ in range(buckets)]
    mounts = [draw(st.integers(0, buckets - 1))
              for _ in range(draw(st.integers(1, 3)))]
    actor = 0
    readers = []
    for _ in range(draw(st.integers(1, 5))):
        chunks = [(draw(st.lists(st.sampled_from(KEYS), min_size=1,
                                 max_size=7)),
                   _instant(actor, draw(st.integers(0, 150))))
                  for _ in range(draw(st.integers(1, 5)))]
        kill_at = None
        if draw(st.integers(0, 2)) == 0:
            kill_at = _instant(actor + 10, draw(st.integers(0, 500)))
        readers.append((draw(st.integers(0, len(mounts) - 1)),
                        _instant(actor, draw(st.integers(0, 100))),
                        chunks, kill_at))
        actor += 1
    writes = [(draw(st.integers(0, len(mounts) - 1)),
               _instant(20 + index, draw(st.integers(0, 500))),
               draw(st.sampled_from(KEYS)), draw(st.integers(100, 400)))
              for index in range(draw(st.integers(0, 3)))]
    capacity = draw(st.sampled_from(capacities))
    return {"capacity": capacity, "objects": objects, "mounts": mounts,
            "readers": readers, "writes": writes}


#: The hang the first hit-run prototype had: r0 warms k0..k3 (four misses
#: of 1.37 ms), then starts one run over six hits at 0.00548; the write
#: of k1 lands at 0.00807 - after the run has read k1 (0.00648) and
#: before it reads it again (0.01048).  Cutting at the first k1 without
#: settling the run first would schedule its end into the past, an
#: error the ``mount-write`` process swallows, and r0 would never wake.
INVALIDATE_INSIDE_A_RUN = {
    "capacity": UNBOUNDED,
    "objects": [[100, 100, 100, 100, 100, 100]],
    "mounts": [0],
    "readers": [(0, 0.0, [(["k0", "k1", "k2", "k3"], 0.0),
                          (["k0", "k1", "k2", "k3", "k0", "k1"], 0.0)],
                 None)],
    "writes": [(0, 0.0065, "k1", 120)],
}

#: Room for four objects.  r0 is two reads into the same six-hit run
#: when r1's miss of k4 is admitted (0.0070): the victim must be k2 -
#: k1 looks older until the run's uses are settled - and k2 is a key the
#: run still has ahead, so the run ends at 0.00748 and r0 re-reads k2.
EVICTION_CUTS_A_RUN = {
    "capacity": 400,
    "objects": [[100, 100, 100, 100, 100, 100]],
    "mounts": [0],
    "readers": [(0, 0.0, [(["k0", "k1", "k2", "k3"], 0.0),
                          (["k0", "k1", "k2", "k3", "k0", "k1"], 0.0)],
                 None),
                (0, 0.0056313, [(["k4"], 0.0)], None)],
    "writes": [],
}


@settings(max_examples=examples(150), deadline=None)
@given(program=programs())
@example(program=INVALIDATE_INSIDE_A_RUN)
@example(program=EVICTION_CUTS_A_RUN)
def test_read_all_is_the_per_key_loop(program):
    assert_all_forms_agree(program)


@settings(max_examples=examples(60), deadline=None)
@given(objects=st.lists(st.integers(100, 400), min_size=len(KEYS),
                        max_size=len(KEYS)),
       twins=st.integers(2, 4),
       start=st.integers(0, 100),
       chunks=st.lists(st.tuples(
           st.lists(st.sampled_from(KEYS), min_size=1, max_size=7),
           st.integers(0, 150)), min_size=1, max_size=5))
def test_lockstep_twins_keep_their_kernel_order(objects, twins, start,
                                                chunks):
    # Same mount, plan and start: every cache touch is a tie, resolved
    # FIFO by the kernel and by run serial in the cache.
    plan = [(keys, ticks * 0.000137) for keys, ticks in chunks]
    program = {"capacity": UNBOUNDED, "objects": [objects], "mounts": [0],
               "readers": [(0, start * 0.000137, plan, None)] * twins,
               "writes": []}
    assert_all_forms_agree(program, tie_free=False)


# -- cache-less mounts: a miss is a step of its reader -----------------------


def _killed_read(kill_at):
    """One reader of k0 then k1 (100 B each: 0.37 ms of request latency,
    then 1 ms alone on the link), killed at ``kill_at``."""
    return {"capacity": None, "objects": [[100, 100, 100, 100, 100, 100]],
            "mounts": [0], "readers": [(0, 0.0, [(["k0", "k1"], 0.0)],
                                        kill_at)],
            "writes": []}


#: Killed 0.2 ms into k0's request latency: its transfer has not begun.
KILLED_IN_THE_REQUEST_LATENCY = _killed_read(0.0002)
#: Killed 0.63 ms into k0's 1 ms transfer.
KILLED_MID_TRANSFER = _killed_read(0.001)


@settings(max_examples=examples(150), deadline=None)
@given(program=programs(capacities=(None,)))
@example(program=KILLED_IN_THE_REQUEST_LATENCY)
@example(program=KILLED_MID_TRANSFER)
def test_a_cacheless_read_all_is_the_two_process_read(program):
    assert_cacheless_forms_agree(program)


def test_a_killed_cold_read_still_finishes_its_transfer():
    # The kill finds the link idle (request latency) or carrying k0;
    # either way k0's transfer starts, ends at 1.37 ms and counts, and
    # k1 is never requested.
    for program, active in ((KILLED_IN_THE_REQUEST_LATENCY, 0),
                            (KILLED_MID_TRANSFER, 1)):
        observed = assert_cacheless_forms_agree(program, tie_free=False)
        assert observed["seen"] == [("x0", program["readers"][0][3],
                                     "kill", active)]
        assert observed["link"] == ([0.00037 + 0.001], 100.0)
        assert observed["downloads"] == 1
        assert observed["mounts"] == [(1, 100.0)]
