"""Deterministic chaos engine for the FfDL platform.

Composes the per-substrate fault hooks that already exist across the tree
(Raft leader kills and partitions, MongoDB primary kills, object-store
outage/brownout windows, kubelet node crashes, scheduler races,
whole-cell blackouts and brownouts) into declarative, seeded scenarios.
One :class:`ChaosEngine` runs them all: it builds the scenario's target
(a platform, or a federation of cells), drives a job churn against it,
fires each fault once or recurring at a mean time between faults,
checks steady-state hypotheses before and after the
injections, and emits a merged audit log that is byte-identical across
runs with the same seed — the property ``--check-determinism`` verifies.

Run ``python -m repro.chaos --list`` to see the named scenarios.
"""

from repro.chaos.engine import (
    ChaosEngine,
    ChaosReport,
    HypothesisResult,
    InjectionStep,
    JobShape,
    RecoveryRecord,
    Scenario,
    run_scenario,
)
from repro.chaos.federation import FederationScenario
from repro.chaos.scenarios import SCENARIOS, get_scenario
from repro.federation.cell import CellSpec
from repro.kube.resources import NodeGroup

#: The names federation scenarios were fetched and run under while they
#: had an engine of their own (``benchmarks/e2e`` resolves them).
get_federation_scenario = get_scenario
run_federation_scenario = run_scenario

__all__ = [
    "CellSpec",
    "ChaosEngine",
    "ChaosReport",
    "FederationScenario",
    "HypothesisResult",
    "InjectionStep",
    "JobShape",
    "NodeGroup",
    "RecoveryRecord",
    "SCENARIOS",
    "Scenario",
    "get_federation_scenario",
    "get_scenario",
    "run_federation_scenario",
    "run_scenario",
]
