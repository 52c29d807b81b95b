"""FfDL core: the paper's primary contribution.

Public surface: build a :class:`FfDLPlatform`, describe jobs with
:class:`JobManifest`, submit and track them through the DL-specific status
pipeline (QUEUED -> DEPLOYING -> DOWNLOADING -> PROCESSING -> STORING ->
COMPLETED, plus FAILED / HALTED / RESUMED).
"""

from repro.core.admission import (
    AdmissionController,
    AdmissionDecision,
    FREE_TIER,
    PAID_TIER,
    Tenant,
)
from repro.core.job import TrainingJob
from repro.core.learner import LearnerState
from repro.core.logging_service import LogEntry, LogIndex
from repro.core.manifest import JobManifest
from repro.core.metrics import TrainingMetricsService
from repro.core.platform import FfDLPlatform, PlatformConfig
from repro.core.services import Microservice
from repro.core.statuses import (
    ALL_STATUSES,
    COMPLETED,
    DEPLOYING,
    DOWNLOADING,
    FAILED,
    HALTED,
    PROCESSING,
    QUEUED,
    RESUMED,
    STORING,
    StatusHistory,
    TERMINAL_STATUSES,
)
from repro.core.tshirt import TSHIRT_SIZES, TShirtSize, derive_cpus, recommend

__all__ = [
    "ALL_STATUSES",
    "AdmissionController",
    "AdmissionDecision",
    "COMPLETED",
    "DEPLOYING",
    "DOWNLOADING",
    "FAILED",
    "FREE_TIER",
    "FfDLPlatform",
    "HALTED",
    "JobManifest",
    "LearnerState",
    "LogEntry",
    "LogIndex",
    "Microservice",
    "PAID_TIER",
    "PROCESSING",
    "PlatformConfig",
    "QUEUED",
    "RESUMED",
    "STORING",
    "StatusHistory",
    "TERMINAL_STATUSES",
    "TSHIRT_SIZES",
    "TShirtSize",
    "Tenant",
    "TrainingJob",
    "TrainingMetricsService",
    "derive_cpus",
    "recommend",
]
