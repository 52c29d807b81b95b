"""Cloud Object Storage Service (OSS).

Models the IBM Cloud Object Storage the paper stores training data,
checkpoints and results in: buckets of objects, credential-scoped access,
and a shared, fair-share bandwidth pool — the resource whose saturation
produces the heavy-load degradation in Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import (
    AccessDeniedError,
    NoSuchBucketError,
    NoSuchObjectError,
    ObjectStorageError,
    ObjectStorageUnavailableError,
)
from repro.sim.core import Environment, Event
from repro.sim.resources import FairShareLink

#: Aggregate object-storage bandwidth of a production deployment (bytes/s).
#: Roughly 10 Gbit/s of aggregate storage throughput.
DEFAULT_BANDWIDTH_BPS = 1.25e9


@dataclass
class StoredObject:
    """One object: a key, a size, and optional payload/metadata."""

    key: str
    size_bytes: float
    payload: Any = None
    etag: int = 0


@dataclass
class Credentials:
    """An access token scoped to a set of buckets ('*' grants everything)."""

    token: str
    buckets: List[str] = field(default_factory=lambda: ["*"])

    def allows(self, bucket: str) -> bool:
        return "*" in self.buckets or bucket in self.buckets


class Bucket:
    """A flat namespace of objects."""

    def __init__(self, name: str):
        self.name = name
        self._objects: Dict[str, StoredObject] = {}
        self._etag_counter = 0

    def put(self, key: str, size_bytes: float,
            payload: Any = None) -> StoredObject:
        if size_bytes < 0:
            raise ObjectStorageError("object size cannot be negative")
        self._etag_counter += 1
        obj = StoredObject(key, float(size_bytes), payload,
                           self._etag_counter)
        self._objects[key] = obj
        return obj

    def get(self, key: str) -> StoredObject:
        obj = self._objects.get(key)
        if obj is None:
            raise NoSuchObjectError(f"{self.name}/{key}")
        return obj

    def delete(self, key: str) -> bool:
        return self._objects.pop(key, None) is not None

    def list(self, prefix: str = "") -> List[StoredObject]:
        return [self._objects[k] for k in
                sorted(k for k in self._objects if k.startswith(prefix))]

    def __contains__(self, key: str) -> bool:
        return key in self._objects


class ObjectStorageService:
    """The OSS control plane plus its shared bandwidth pool."""

    def __init__(self, env: Environment,
                 bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
                 request_latency_s: float = 0.05):
        self.env = env
        self.link = FairShareLink(env, bandwidth_bps, name="oss")
        self.nominal_bandwidth_bps = float(bandwidth_bps)
        self.request_latency_s = request_latency_s
        self._buckets: Dict[str, Bucket] = {}
        self._credentials: Dict[str, Credentials] = {}
        self.downloads_started = 0
        self.uploads_started = 0
        #: Chaos hook: while False every new request fails (after its
        #: request latency) with ObjectStorageUnavailableError.
        self.available = True

    # -- chaos hooks -------------------------------------------------------

    def begin_outage(self) -> None:
        self.available = False

    def end_outage(self) -> None:
        self.available = True

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Brownout: throttle the shared pool; in-flight transfers slow."""
        self.link.set_capacity(bandwidth_bps)

    def restore_bandwidth(self) -> None:
        self.link.set_capacity(self.nominal_bandwidth_bps)

    # -- admin -------------------------------------------------------------

    def create_bucket(self, name: str) -> Bucket:
        if name not in self._buckets:
            self._buckets[name] = Bucket(name)
        return self._buckets[name]

    def bucket(self, name: str) -> Bucket:
        bucket = self._buckets.get(name)
        if bucket is None:
            raise NoSuchBucketError(name)
        return bucket

    def issue_credentials(self, token: str,
                          buckets: Optional[List[str]] = None) -> Credentials:
        creds = Credentials(token, buckets or ["*"])
        self._credentials[token] = creds
        return creds

    def _authorize(self, token: Optional[str], bucket: str) -> None:
        if token is None:
            return  # unauthenticated deployments (tests) skip auth
        creds = self._credentials.get(token)
        if creds is None or not creds.allows(bucket):
            raise AccessDeniedError(f"token cannot access bucket {bucket!r}")

    # -- data path ------------------------------------------------------------

    def download(self, bucket_name: str, key: str,
                 token: Optional[str] = None) -> Event:
        """Stream an object; the event resolves with the StoredObject."""
        return self.env.process(self.download_steps(bucket_name, key, token),
                                name=f"oss-get:{key}")

    def download_steps(self, bucket_name: str, key: str,
                       token: Optional[str] = None):
        """The steps of :meth:`download`, for a process to ``yield
        from``: access, the object and the count are settled at the
        call, the rest as the steps run."""
        self._authorize(token, bucket_name)
        obj = self.bucket(bucket_name).get(key)
        self.downloads_started += 1
        return self._stream("GET", bucket_name, key, obj.size_bytes,
                            lambda: obj)

    def upload(self, bucket_name: str, key: str, size_bytes: float,
               payload: Any = None, token: Optional[str] = None) -> Event:
        """Stream an object in; the event resolves with the StoredObject."""
        return self.env.process(
            self.upload_steps(bucket_name, key, size_bytes, payload, token),
            name=f"oss-put:{key}")

    def upload_steps(self, bucket_name: str, key: str, size_bytes: float,
                     payload: Any = None, token: Optional[str] = None):
        """The steps of :meth:`upload`, settled at the call as
        :meth:`download_steps` are."""
        self._authorize(token, bucket_name)
        bucket = self.bucket(bucket_name)
        self.uploads_started += 1
        return self._stream("PUT", bucket_name, key, size_bytes,
                            lambda: bucket.put(key, size_bytes, payload))

    def _stream(self, verb: str, bucket_name: str, key: str,
                size_bytes: float, result):
        """Request latency, the outage check, the transfer; returns
        ``result()``."""
        yield self.env.timeout(self.request_latency_s)
        if not self.available:
            raise ObjectStorageUnavailableError(
                f"object storage unavailable: {verb} {bucket_name}/{key}")
        yield self.link.transfer(size_bytes)
        return result()

    def list_objects(self, bucket_name: str, prefix: str = "",
                     token: Optional[str] = None) -> List[StoredObject]:
        self._authorize(token, bucket_name)
        return self.bucket(bucket_name).list(prefix)
