"""Unit tests for the object storage service."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    AccessDeniedError,
    NoSuchBucketError,
    NoSuchObjectError,
    ObjectStorageError,
)
from repro.objectstore import ObjectStorageService
from repro.sim import Environment


@pytest.fixture
def oss():
    env = Environment()
    service = ObjectStorageService(env, bandwidth_bps=1e6,
                                   request_latency_s=0.0)
    return env, service


def test_create_and_get_bucket(oss):
    _env, service = oss
    service.create_bucket("training-data")
    assert service.bucket("training-data").name == "training-data"


def test_missing_bucket_raises(oss):
    _env, service = oss
    with pytest.raises(NoSuchBucketError):
        service.bucket("ghost")


def test_put_get_object(oss):
    _env, service = oss
    bucket = service.create_bucket("b")
    bucket.put("data.bin", 1000, payload="contents")
    obj = bucket.get("data.bin")
    assert obj.size_bytes == 1000
    assert obj.payload == "contents"


def test_missing_object_raises(oss):
    _env, service = oss
    service.create_bucket("b")
    with pytest.raises(NoSuchObjectError):
        service.bucket("b").get("ghost")


def test_negative_size_rejected(oss):
    _env, service = oss
    with pytest.raises(ObjectStorageError):
        service.create_bucket("b").put("x", -1)


def test_etag_changes_on_overwrite(oss):
    _env, service = oss
    bucket = service.create_bucket("b")
    first = bucket.put("k", 10)
    second = bucket.put("k", 20)
    assert second.etag > first.etag


def test_list_with_prefix(oss):
    _env, service = oss
    bucket = service.create_bucket("b")
    bucket.put("ckpt/1", 1)
    bucket.put("ckpt/2", 1)
    bucket.put("logs/1", 1)
    assert [o.key for o in bucket.list("ckpt/")] == ["ckpt/1", "ckpt/2"]


def test_download_takes_bandwidth_time(oss):
    env, service = oss
    service.create_bucket("b").put("data", 1e6)  # 1 MB over 1 MB/s

    def flow():
        yield service.download("b", "data")
        return env.now

    assert env.run_until_complete(env.process(flow())) == pytest.approx(1.0)


def test_concurrent_downloads_share_bandwidth(oss):
    env, service = oss
    bucket = service.create_bucket("b")
    bucket.put("a", 1e6)
    bucket.put("b", 1e6)
    times = {}

    def flow(key):
        yield service.download("b", key)
        times[key] = env.now

    env.process(flow("a"))
    env.process(flow("b"))
    env.run(until=10)
    assert times["a"] == pytest.approx(2.0)
    assert times["b"] == pytest.approx(2.0)


def test_upload_creates_object(oss):
    env, service = oss
    service.create_bucket("results")

    def flow():
        obj = yield service.upload("results", "model.bin", 5e5)
        return obj

    obj = env.run_until_complete(env.process(flow()))
    assert obj.size_bytes == 5e5
    assert "model.bin" in service.bucket("results")


def test_credentials_scope_buckets(oss):
    _env, service = oss
    service.create_bucket("mine")
    service.create_bucket("theirs")
    service.issue_credentials("token-1", ["mine"])
    service.bucket("mine").put("k", 1)
    # Allowed.
    service.download("mine", "k", token="token-1")
    # Denied bucket.
    with pytest.raises(AccessDeniedError):
        service.download("theirs", "k", token="token-1")
    # Unknown token.
    with pytest.raises(AccessDeniedError):
        service.download("mine", "k", token="bogus")


def test_wildcard_credentials(oss):
    _env, service = oss
    service.create_bucket("any")
    service.create_bucket("other")
    creds = service.issue_credentials("admin")
    assert creds.allows("any") and creds.allows("other")


def test_download_counters(oss):
    env, service = oss
    service.create_bucket("b").put("k", 10)

    def flow():
        yield service.download("b", "k")
        yield service.upload("b", "k2", 10)

    env.run_until_complete(env.process(flow()))
    assert service.downloads_started == 1
    assert service.uploads_started == 1


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.tuples(st.booleans(),
                                st.sampled_from(["a/1", "a/2", "ab", "b/1",
                                                 "", "a"])),
                      max_size=20))
def test_list_is_the_sorted_scan_after_put_delete_put(steps):
    bucket = ObjectStorageService(Environment()).create_bucket("b")
    for put, key in steps:
        if put:
            bucket.put(key, 1.0)
        else:
            bucket.delete(key)
        for prefix in ("", "a", "a/", "b/1", "z"):
            assert bucket.list(prefix) == \
                [bucket.get(k) for k in sorted(bucket._objects)
                 if k.startswith(prefix)]
