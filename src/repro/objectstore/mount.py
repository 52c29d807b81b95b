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
from collections import OrderedDict
from typing import Optional

from repro.errors import NoSuchObjectError, ObjectStorageUnavailableError
from repro.objectstore.service import ObjectStorageService
from repro.resilience import RetryPolicy, retry_call
from repro.sim.core import Environment, Event


class MountCache:
    """A byte-capacity LRU cache of objects, shared across mounts."""

    def __init__(self, capacity_bytes: float):
        self.capacity_bytes = float(capacity_bytes)
        self._entries: "OrderedDict[str, float]" = OrderedDict()
        self.used_bytes = 0.0
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(bucket: str, key: str) -> str:
        return f"{bucket}/{key}"

    def lookup(self, bucket: str, key: str) -> bool:
        cache_key = self._key(bucket, key)
        if cache_key in self._entries:
            self._entries.move_to_end(cache_key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def admit(self, bucket: str, key: str, size_bytes: float) -> None:
        if size_bytes > self.capacity_bytes:
            return  # object larger than the whole cache: bypass
        cache_key = self._key(bucket, key)
        if cache_key in self._entries:
            self._entries.move_to_end(cache_key)
            return
        while self.used_bytes + size_bytes > self.capacity_bytes:
            _victim, victim_size = self._entries.popitem(last=False)
            self.used_bytes -= victim_size
        self._entries[cache_key] = size_bytes
        self.used_bytes += size_bytes

    def invalidate(self, bucket: str, key: str) -> None:
        size = self._entries.pop(self._key(bucket, key), None)
        if size is not None:
            self.used_bytes -= size

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


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
        if self.cache is not None and self.cache.lookup(self.bucket, key):
            try:
                obj = self.service.bucket(self.bucket).get(key)
            except NoSuchObjectError:
                # Deleted behind the cache: drop the stale entry, count
                # the read as the miss it turns out to be, and let the
                # miss path fail the returned event.
                self.cache.invalidate(self.bucket, key)
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
                self.cache.admit(self.bucket, key, obj.size_bytes)
            return obj

        return self.env.process(miss(), name=f"mount-miss:{key}")

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
                self.cache.invalidate(self.bucket, key)
            return obj

        return self.env.process(upload(), name=f"mount-write:{key}")

    def listdir(self, prefix: str = "") -> list:
        return self.service.list_objects(self.bucket, prefix, self.token)
