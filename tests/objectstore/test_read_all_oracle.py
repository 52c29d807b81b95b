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
"""

from collections import OrderedDict

from hypothesis import assume, example, given, settings, strategies as st

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


def lru_order(cache):
    if isinstance(cache, ListOrderCache):
        return list(cache._entries)
    return sorted(cache._entries, key=lambda k: cache._entries[k].stamp)


def play(program, cache_class, batched):
    """Run ``program`` to quiescence.  Returns what could be observed,
    and for each instant the actors that touched the cache then (reads
    are only traceable one by one, i.e. when not ``batched``)."""
    env = Environment()
    service = ObjectStorageService(env, bandwidth_bps=1e5,
                                   request_latency_s=0.00037)
    for bucket, sizes in enumerate(program["objects"]):
        stored = service.create_bucket(f"b{bucket}")
        for key, size in zip(KEYS, sizes):
            stored.put(key, size)
    cache = cache_class(program["capacity"])
    mounts = [BucketMount(env, service, f"b{bucket}", cache=cache)
              for bucket in program["mounts"]]
    seen = []      # (actor, instant, what)
    touches = {}   # instant -> actors

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
                    yield mount.read(key)
            seen.append((actor, env.now, "fetched"))
            yield env.timeout(think)

    def killer(actor, victim, at):
        yield env.timeout(at)
        if victim.is_alive:
            touch(actor)
            seen.append((actor, env.now, "kill"))
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
        "cache": (cache.hits, cache.misses, cache.used_bytes),
        "mounts": [(m.reads, m.bytes_read) for m in mounts],
        "downloads": service.downloads_started,
        "lru": lru_order(cache),
    }, touches


def assert_all_forms_agree(program, tie_free=True):
    oracle, touches = play(program, ListOrderCache, batched=False)
    if tie_free:
        assume(all(len(actors) == 1 for actors in touches.values()))
    assert play(program, MountCache, batched=False)[0] == oracle
    assert play(program, MountCache, batched=True)[0] == oracle


# -- random programs ---------------------------------------------------------


def _instant(actor, ticks):
    """A delay no other actor can produce: ``ticks`` of an odd unit plus
    an offset that is the actor's own."""
    return ticks * 0.000137 + (actor + 1) * 0.0000113


@st.composite
def programs(draw):
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
    capacity = draw(st.sampled_from([500, 700, 1000, 1500, UNBOUNDED]))
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
