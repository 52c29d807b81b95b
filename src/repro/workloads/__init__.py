"""Workload generators: production trace, gang bursts, scale test."""

from repro.workloads.scaletest import (
    BATCHES,
    BatchResult,
    BatchSpec,
    ScaleTestConfig,
    ScaleTestResult,
    build_platform,
    degradation_percent,
    run_scale_test,
)
from repro.workloads.synthetic import (
    CLUSTER_MACHINES,
    GANG_WORKLOADS,
    GPUS_PER_MACHINE,
    GangRunResult,
    JOBS_PER_WORKLOAD,
    run_gang_experiment,
)
from repro.workloads.federation_trace import (
    FederationTrace,
    FederationTraceConfig,
    FederationTraceJob,
)
from repro.workloads.trace import (
    ProductionTrace,
    SECONDS_PER_DAY,
    TraceConfig,
    TraceJob,
    arrivals_by_day,
)

__all__ = [
    "BATCHES",
    "BatchResult",
    "BatchSpec",
    "CLUSTER_MACHINES",
    "FederationTrace",
    "FederationTraceConfig",
    "FederationTraceJob",
    "GANG_WORKLOADS",
    "GPUS_PER_MACHINE",
    "GangRunResult",
    "JOBS_PER_WORKLOAD",
    "ProductionTrace",
    "SECONDS_PER_DAY",
    "ScaleTestConfig",
    "ScaleTestResult",
    "TraceConfig",
    "TraceJob",
    "arrivals_by_day",
    "build_platform",
    "degradation_percent",
    "run_gang_experiment",
]
