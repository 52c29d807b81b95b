"""Tests for the s3fs-style mount driver and its cache."""

import pytest

from repro.errors import NoSuchObjectError
from repro.objectstore import BucketMount, MountCache, ObjectStorageService
from repro.sim import Environment


def make_mount(cache_bytes=None, bandwidth=1e6):
    env = Environment()
    service = ObjectStorageService(env, bandwidth_bps=bandwidth,
                                   request_latency_s=0.0)
    bucket = service.create_bucket("data")
    cache = MountCache(cache_bytes) if cache_bytes else None
    mount = BucketMount(env, service, "data", cache=cache)
    return env, service, bucket, mount


def test_read_streams_object():
    env, _service, bucket, mount = make_mount()
    bucket.put("f", 1e6)

    def flow():
        obj = yield mount.read("f")
        return obj.key, env.now

    key, when = env.run_until_complete(env.process(flow()))
    assert key == "f"
    assert when == pytest.approx(1.0)


def test_second_read_hits_cache_and_is_fast():
    env, _service, bucket, mount = make_mount(cache_bytes=1e7)
    bucket.put("f", 1e6)

    def flow():
        yield mount.read("f")
        first = env.now
        yield mount.read("f")
        return first, env.now

    first, second = env.run_until_complete(env.process(flow()))
    assert first == pytest.approx(1.0)
    assert second - first == pytest.approx(0.001)
    assert mount.cache.hits == 1


def test_cache_hit_is_one_kernel_event():
    env, _service, bucket, mount = make_mount(cache_bytes=1e7)
    bucket.put("f", 1e6)
    env.run_until_complete(mount.read("f"))
    env.run()  # settle the miss completely
    before = env.events_processed
    hit = mount.read("f")
    env.run()
    assert hit.value.key == "f"
    assert env.events_processed - before == 1


def test_hit_on_object_deleted_behind_the_cache_fails_the_event():
    env, _service, bucket, mount = make_mount(cache_bytes=1e7)
    bucket.put("f", 1e6)
    env.run_until_complete(mount.read("f"))
    assert bucket.delete("f")
    stale = mount.read("f")  # must not raise out of read()
    with pytest.raises(NoSuchObjectError):
        env.run_until_complete(stale)
    assert mount.reads == 2
    assert mount.bytes_read == 1e6
    # The stale lookup went to the object store: a miss, not a hit.
    assert (mount.cache.hits, mount.cache.misses) == (0, 2)
    assert mount.cache.used_bytes == 0
    assert not mount.cache.lookup("data", "f")


def test_cache_evicts_lru():
    cache = MountCache(100)
    cache.admit("b", "a", 60)
    cache.admit("b", "b", 30)
    assert cache.lookup("b", "a")  # touch a: b becomes LRU
    cache.admit("b", "c", 30)  # evicts b
    assert cache.lookup("b", "a")
    assert not cache.lookup("b", "b")
    assert cache.lookup("b", "c")
    assert cache.used_bytes <= 100


def test_object_larger_than_cache_bypasses():
    cache = MountCache(100)
    cache.admit("b", "huge", 500)
    assert not cache.lookup("b", "huge")
    assert cache.used_bytes == 0


def test_cache_hit_rate():
    cache = MountCache(1000)
    cache.admit("b", "x", 10)
    cache.lookup("b", "x")
    cache.lookup("b", "y")
    assert cache.hit_rate == pytest.approx(0.5)


def test_cache_shared_across_mounts():
    env, service, bucket, mount1 = make_mount(cache_bytes=1e7)
    bucket.put("f", 1e6)
    mount2 = BucketMount(env, service, "data", cache=mount1.cache)

    def flow():
        yield mount1.read("f")
        t_warm = env.now
        yield mount2.read("f")
        return t_warm, env.now

    warm, second = env.run_until_complete(env.process(flow()))
    assert second - warm == pytest.approx(0.001)


def test_write_uploads_and_invalidates_cache():
    env, service, bucket, mount = make_mount(cache_bytes=1e7)
    bucket.put("ckpt", 1e5)

    def flow():
        yield mount.read("ckpt")  # warm the cache
        yield mount.write("ckpt", 2e5)
        obj = yield mount.read("ckpt")  # must re-stream, not hit stale cache
        return obj.size_bytes

    assert env.run_until_complete(env.process(flow())) == 2e5
    assert mount.cache.hits == 0 or mount.cache.misses >= 2


def test_bytes_read_accounting():
    env, _service, bucket, mount = make_mount(cache_bytes=1e7)
    bucket.put("f", 1000)

    def flow():
        yield mount.read("f")
        yield mount.read("f")

    env.run_until_complete(env.process(flow()))
    assert mount.bytes_read == 2000
    assert mount.reads == 2


def test_listdir_passes_through():
    _env, _service, bucket, mount = make_mount()
    bucket.put("ckpt/0001", 1)
    bucket.put("ckpt/0002", 1)
    assert [o.key for o in mount.listdir("ckpt/")] == ["ckpt/0001",
                                                       "ckpt/0002"]
