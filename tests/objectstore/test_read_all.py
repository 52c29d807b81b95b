"""``BucketMount.read_all``: what a hit run costs and when it applies.

Equivalence with the per-key loop under random schedules is
``test_read_all_oracle.py``; these are the absolute pins.
"""

import pytest

from repro.objectstore import BucketMount, MountCache, ObjectStorageService
from repro.sim import Environment

KEYS = [f"part-{index}" for index in range(7)]


def make_mount(cache_bytes=1e9, warm=True, latency_s=0.001):
    env = Environment()
    service = ObjectStorageService(env, bandwidth_bps=1e9,
                                   request_latency_s=0.0)
    bucket = service.create_bucket("data")
    for key in KEYS:
        bucket.put(key, 1000)
    cache = MountCache(cache_bytes) if cache_bytes else None
    mount = BucketMount(env, service, "data", cache=cache,
                        cached_read_latency_s=latency_s)
    if warm:
        for key in KEYS:
            env.run_until_complete(mount.read(key))
        env.run(until=0.0005)  # settle the misses; an instant under 2*latency
    return env, mount


def read(env, mount, *fetches, one_by_one=False):
    def reader():
        for keys in fetches:
            if one_by_one:
                for key in keys:
                    yield mount.read(key)
            else:
                yield from mount.read_all(keys)
        return env.now

    return env.process(reader())


def lru_order(cache):
    return [key for _bucket, key in
            sorted(cache._entries, key=lambda k: cache._entries[k].stamp)]


def test_a_run_over_k_cached_keys_ends_k_chained_additions_later():
    env, mount = make_mount()
    started, before = env.now, env.events_processed
    run = mount._start_run(KEYS, 0)
    env.run()
    expected = started
    for _ in KEYS:
        expected += mount.cached_read_latency_s
    assert run.done.value == len(KEYS)
    assert env.now == expected != started + len(KEYS) * 0.001
    assert env.events_processed - before == 2  # the timer, the wake-up
    assert (mount.reads, mount.cache.hits) == (14, 7)
    assert mount.bytes_read == 14000


@pytest.mark.parametrize("latency_s", [0.001, 0.0])
def test_read_all_leaves_what_the_per_key_loop_leaves(latency_s):
    # At zero latency every read shares one instant: only the block of
    # serials a run takes keeps two runs' uses in order.
    ends, order = [], []
    for one_by_one in (True, False):
        env, mount = make_mount(latency_s=latency_s)
        done = read(env, mount, KEYS[3:], KEYS[:5], one_by_one=one_by_one)
        env.run()
        ends.append((done.value, mount.reads, mount.bytes_read,
                     mount.cache.hits, mount.cache.misses))
        order.append(lru_order(mount.cache))
    assert ends[0] == ends[1]
    assert order[0] == order[1] == KEYS[5:] + KEYS[:5]


def test_without_a_cache_read_all_is_the_per_key_loop_event_for_event():
    # Same instants, values and counters; read_all's misses are steps of
    # the reader rather than a process each, so it takes fewer events.
    costs, events = [], []
    for one_by_one in (True, False):
        env, mount = make_mount(cache_bytes=None, warm=False)
        done = read(env, mount, KEYS, one_by_one=one_by_one)
        env.run()
        costs.append((env.now, done.value, mount.reads, mount.bytes_read))
        events.append(env.events_processed)
    assert costs[0] == costs[1]
    assert events[1] < events[0]


@pytest.mark.parametrize("misses", [1, 7])
def test_a_cold_read_costs_its_reader_no_process(misses):
    # Per miss: the request latency, the link's settle, its completion
    # timer and the transfer's done event - four events, where a
    # ``mount-miss`` process over an ``oss-get`` one took six.  The
    # reader is the one process, and its start and end the two others.
    env, mount = make_mount(cache_bytes=None, warm=False)
    pids = next(env._pids)
    done = read(env, mount, KEYS[:misses])
    env.run()
    assert done.value == env.now
    assert mount.service.downloads_started == mount.reads == misses
    assert env.events_processed == 2 + 4 * misses
    assert next(env._pids) == pids + 2  # one process between: the reader


def test_a_lone_hit_between_misses_is_still_one_event():
    env, mount = make_mount(warm=False)
    env.run_until_complete(mount.read(KEYS[1]))
    env.run()
    assert mount._start_run(KEYS, 1) is None  # KEYS[2] is not cached
    assert mount._start_run(KEYS[:2], 1) is None  # nothing after it
    before = env.events_processed
    hit = mount.read(KEYS[1])
    env.run()
    assert hit.value.key == KEYS[1]
    assert env.events_processed - before == 1


def test_a_late_touch_does_not_undo_a_later_use():
    # The run reads part-1 at +0.001 but says so only when it fires
    # (+0.004); meanwhile another reader uses part-1 at +0.0025.
    env, mount = make_mount()
    started = env.now
    read(env, mount, KEYS[:4])

    def other():
        yield env.timeout(0.0025)
        yield mount.read(KEYS[1])

    env.process(other())
    env.run()
    assert lru_order(mount.cache)[-4:] == [
        KEYS[0], KEYS[2], KEYS[1], KEYS[3]]
    assert env.now == started + 0.001 + 0.001 + 0.001 + 0.001


def test_counters_of_a_pending_run_settle_when_the_cache_must_know():
    # Room for exactly the seven warm objects: admitting an eighth
    # evicts, and an eviction first applies what the run has issued.
    env, mount = make_mount(cache_bytes=7000)
    mount.service.bucket("data").put("extra", 1000)
    read(env, mount, KEYS)
    env.run(until=env.now + 0.0035)  # reads 0..3 issued, 4..6 not yet
    assert mount.cache.hits == 1  # only read 0 has been applied
    mount.cache.admit("data", "extra", 1000, env.now)
    assert mount.cache.hits == 4
    # The victim is the least recently used *after* settling: part-4,
    # which the run had ahead of it - so the run ends there.
    assert lru_order(mount.cache) == [
        KEYS[5], KEYS[6], KEYS[0], KEYS[1], KEYS[2], KEYS[3], "extra"]
    env.run()
    # ... and from there each re-read evicts the next key of the plan.
    assert (mount.cache.hits, mount.cache.misses) == (4, 7 + 3)
