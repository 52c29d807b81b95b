"""Deterministic chaos engine for the FfDL platform.

Composes the per-substrate fault hooks that already exist across the tree
(:class:`~repro.sim.failure.FaultInjector` specs, Raft network partitions,
MongoDB primary kills, object-store outage/brownout windows, kubelet crash
injection, whole-cell blackouts and brownouts) into declarative, seeded
scenarios.  One :class:`ChaosEngine` runs them all: it builds the
scenario's target (a fully replicated platform, or a federation of
cells), drives a job churn against it, injects the faults on a fixed
schedule, checks steady-state hypotheses before and after the
injections, and emits a merged audit log that is byte-identical across
runs with the same seed — the property ``--check-determinism`` verifies.

Run ``python -m repro.chaos --list`` to see the named scenarios.
"""

from repro.chaos.engine import (
    ChaosEngine,
    ChaosReport,
    HypothesisResult,
    InjectionStep,
    NodeGroup,
    RecoveryRecord,
    Scenario,
    run_scenario,
)
from repro.chaos.federation import CellDef, FederationScenario
from repro.chaos.scenarios import SCENARIOS, get_scenario

#: The names federation scenarios were fetched and run under while they
#: had an engine of their own (``benchmarks/e2e`` resolves them).
get_federation_scenario = get_scenario
run_federation_scenario = run_scenario

__all__ = [
    "CellDef",
    "ChaosEngine",
    "ChaosReport",
    "FederationScenario",
    "HypothesisResult",
    "InjectionStep",
    "NodeGroup",
    "RecoveryRecord",
    "SCENARIOS",
    "Scenario",
    "get_federation_scenario",
    "get_scenario",
    "run_federation_scenario",
    "run_scenario",
]
