"""Exception hierarchy shared across the FfDL reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can distinguish platform faults from programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Raised when the discrete-event kernel is misused."""


class InvariantViolation(ReproError):
    """A runtime invariant checker observed a safety violation."""


class ConsensusError(ReproError):
    """Raised by the Raft implementation on protocol violations."""


class NotLeaderError(ConsensusError):
    """A write was submitted to a Raft node that is not the leader."""

    def __init__(self, node_id: str, leader_hint: str | None = None):
        super().__init__(f"node {node_id} is not the leader")
        self.node_id = node_id
        self.leader_hint = leader_hint


class ResilienceError(ReproError):
    """Raised by the client-side resilience layer (:mod:`repro.resilience`)."""


class RetryExhaustedError(ResilienceError):
    """A retried call failed on every attempt the policy allowed."""


class CircuitOpenError(ResilienceError):
    """A call was rejected because its circuit breaker is open."""


class DeadlineExceededError(ResilienceError):
    """A call (or its retries) outlived its deadline."""


class StoreError(ReproError):
    """Raised by the etcd / MongoDB substrates."""


class StoreUnavailableError(StoreError):
    """The store is temporarily unreachable (outage, failover in progress).

    This is the *transient* store failure: retry policies treat it as
    retryable, unlike its :class:`StoreError` siblings which signal
    semantic errors (duplicate keys, malformed updates) that a retry
    cannot fix."""


class LeaseExpiredError(StoreError):
    """An operation referenced a lease that has already expired."""


class DuplicateKeyError(StoreError):
    """An insert named an ``_id`` that already exists."""


class ObjectStorageError(ReproError):
    """Raised by the object storage service."""


class ObjectStorageUnavailableError(ObjectStorageError):
    """The object store is inside an injected outage window (transient)."""


class NoSuchBucketError(ObjectStorageError):
    """The referenced bucket does not exist."""


class NoSuchObjectError(ObjectStorageError):
    """The referenced object key does not exist."""


class AccessDeniedError(ObjectStorageError):
    """Credentials do not grant access to the bucket."""


class NFSError(ReproError):
    """Raised by the simulated NFS substrate."""


class ProvisioningError(NFSError):
    """Dynamic volume provisioning failed (e.g. under heavy load)."""


class ContainerError(ReproError):
    """Raised by the container runtime."""


class ImageNotFoundError(ContainerError):
    """The requested image is not present in the registry."""


class KubeError(ReproError):
    """Raised by the simulated orchestrator."""


class ObjectNotFoundError(KubeError):
    """A named API object does not exist."""


class ConflictError(KubeError):
    """An API write conflicted (already exists / stale resource version)."""


class UnschedulableError(KubeError):
    """The scheduler could not place a pod."""


class PlatformError(ReproError):
    """Raised by the FfDL core services."""


class ValidationError(PlatformError):
    """A job manifest failed validation."""


class JobNotFoundError(PlatformError):
    """The referenced training job does not exist."""


class QuotaExceededError(PlatformError):
    """Admission control rejected a job because the tenant is over quota."""


class DeploymentFailedError(PlatformError):
    """The Guardian exhausted its deployment retries."""


class FederationError(ReproError):
    """Raised by the multi-cell federation layer."""


class CellUnavailableError(FederationError):
    """The targeted cell is blacked out or unreachable over the bus."""


class IntentConflictError(FederationError):
    """An intent-log transition raced a newer generation (stale retry)."""
