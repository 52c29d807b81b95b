"""The named chaos scenarios, single-platform and federation alike.

Each scenario is pure data (:class:`~repro.chaos.engine.Scenario` or
:class:`~repro.chaos.federation.FederationScenario`); its target binds
the fault kinds to the substrate hooks at run time.  Node targets follow
the cluster naming convention ``node-<gpu_type>-<index>`` for the four
K80 nodes a :class:`~repro.chaos.engine.Scenario` provisions by default.

The two failure-study scenarios run at the paper's rates for one
simulated hour; ``benchmarks/test_fig6_table8_failures.py`` and
``benchmarks/test_fig7_fig8_node_failures.py`` lengthen the horizon to
days with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from typing import Dict, Union

from repro.chaos.engine import InjectionStep, JobShape, NodeGroup, Scenario
from repro.chaos.federation import CellDef, FederationScenario
from repro.workloads.trace import SECONDS_PER_DAY

ETCD_LEADER_KILL = Scenario(
    name="etcd-leader-kill",
    description="Kill the Raft leader twice under job churn; the cluster "
                "must re-elect and the coordination plane must recover.",
    steps=(
        InjectionStep(at_s=60.0, kind="etcd-leader-kill", duration_s=30.0),
        InjectionStep(at_s=180.0, kind="etcd-leader-kill", duration_s=30.0),
        InjectionStep(at_s=300.0, kind="etcd-partition", duration_s=20.0),
    ),
    horizon_s=900.0,
)

MONGO_FAILOVER_UNDER_CHURN = Scenario(
    name="mongo-failover-under-churn",
    description="Crash the MongoDB primary twice while jobs are being "
                "submitted; the status writer must buffer through each "
                "election window and flush with no lost records.",
    steps=(
        InjectionStep(at_s=50.0, kind="mongo-primary-kill",
                      duration_s=40.0),
        InjectionStep(at_s=150.0, kind="mongo-primary-kill",
                      duration_s=40.0),
    ),
    horizon_s=900.0,
)

OBJECTSTORE_BROWNOUT = Scenario(
    name="objectstore-brownout",
    description="Throttle object storage to 5% bandwidth, then take it "
                "down entirely; mounts must retry through the brownout "
                "and learners must survive the outage.",
    steps=(
        InjectionStep(at_s=60.0, kind="oss-brownout", duration_s=90.0,
                      param=0.05),
        InjectionStep(at_s=200.0, kind="oss-outage", duration_s=30.0),
    ),
    horizon_s=900.0,
)

ROLLING_NODE_CRASHES = Scenario(
    name="rolling-node-crashes",
    description="Crash three of the four GPU nodes in a staggered "
                "rolling wave; gang rescheduling must keep GPU "
                "accounting consistent.",
    steps=(
        InjectionStep(at_s=90.0, kind="node-crash", target="node-K80-0",
                      duration_s=120.0),
        InjectionStep(at_s=210.0, kind="node-crash", target="node-K80-1",
                      duration_s=120.0),
        InjectionStep(at_s=330.0, kind="node-crash", target="node-K80-2",
                      duration_s=120.0),
    ),
    horizon_s=1100.0,
    settle_s=300.0,
)

EVERYTHING_AT_ONCE = Scenario(
    name="everything-at-once",
    description="Every fault kind in one run: etcd leader kill and "
                "partition, mongo failovers, object-store brownout and "
                "outage, rolling node crashes, API and LCM replica "
                "wipes.  The combined stress test behind the "
                "acceptance criteria.",
    steps=(
        InjectionStep(at_s=60.0, kind="etcd-leader-kill", duration_s=30.0),
        InjectionStep(at_s=120.0, kind="mongo-primary-kill",
                      duration_s=45.0),
        InjectionStep(at_s=180.0, kind="oss-brownout", duration_s=90.0,
                      param=0.05),
        InjectionStep(at_s=240.0, kind="node-crash", target="node-K80-0",
                      duration_s=120.0),
        InjectionStep(at_s=300.0, kind="node-crash", target="node-K80-1",
                      duration_s=120.0),
        InjectionStep(at_s=330.0, kind="api-crash"),
        InjectionStep(at_s=360.0, kind="lcm-crash"),
        InjectionStep(at_s=420.0, kind="oss-outage", duration_s=30.0),
        InjectionStep(at_s=480.0, kind="etcd-partition", duration_s=20.0),
        InjectionStep(at_s=540.0, kind="mongo-primary-kill",
                      duration_s=45.0),
    ),
    horizon_s=1100.0,
    settle_s=300.0,
    jobs=8,
)

#: The failure study's cluster: deliberately CPU-tight nodes, so four
#: 4-CPU learners leave ~3.4 CPUs for helper and guardian pods and
#: lhelper pods also contend (Figure 6's lhelper share).
FAILURE_STUDY_NODES = (NodeGroup(20, 4, "K80", cpus=19.4, memory_gb=256.0),)
FAILURE_STUDY_SIZE_MIX = (JobShape(1, 1, 0.62), JobShape(1, 2, 0.18),
                          JobShape(2, 1, 0.12), JobShape(2, 2, 0.08))
#: How long a crashed node stays down.
NODE_OUTAGE_S = 900.0

FIG6_TABLE8_FAILURES = Scenario(
    name="fig6-table8-failures",
    description="Section 5.6's scheduler logs (Fig 6, Table 8): 20 "
                "CPU-tight K80 nodes at 80-90% GPU load, 550 jobs a day "
                "of which 12% are cancelled, every node crashing at a "
                "45-day MTBF, and Table 8's scheduler timeout and "
                "assume races once a day each.",
    steps=(
        InjectionStep(at_s=0.0, kind="node-crash", duration_s=NODE_OUTAGE_S,
                      mtbf_s=45 * SECONDS_PER_DAY),
        InjectionStep(at_s=0.0, kind="scheduler-assume",
                      mtbf_s=SECONDS_PER_DAY),
        InjectionStep(at_s=0.0, kind="scheduler-timeout",
                      mtbf_s=SECONDS_PER_DAY),
    ),
    horizon_s=3600.0,
    settle_s=1200.0,
    jobs=10 ** 6,
    interarrival_s=SECONDS_PER_DAY / 550,
    iterations=6500,
    draw_iterations=True,
    size_mix=FAILURE_STUDY_SIZE_MIX,
    cancel_probability=0.12,
    nodes=FAILURE_STUDY_NODES,
)

FIG7_FIG8_NODE_FAILURES = Scenario(
    name="fig7-fig8-node-failures",
    description="Section 5.6's pod deletions (Figs 7-8): the failure "
                "study's cluster at production's churn-to-crash ratio, "
                "320 jobs a day of which 6% are cancelled and every "
                "node crashing at a 40-day MTBF, so crashes are a few "
                "per ten days against thousands of routine deletions.",
    steps=(
        InjectionStep(at_s=0.0, kind="node-crash", duration_s=NODE_OUTAGE_S,
                      mtbf_s=40 * SECONDS_PER_DAY),
    ),
    horizon_s=3600.0,
    settle_s=1200.0,
    jobs=10 ** 6,
    interarrival_s=SECONDS_PER_DAY / 320,
    iterations=4000,
    draw_iterations=True,
    size_mix=FAILURE_STUDY_SIZE_MIX,
    cancel_probability=0.06,
    nodes=FAILURE_STUDY_NODES,
)

FEDERATION_CELL_OUTAGE = FederationScenario(
    name="federation-cell-outage",
    description="Two cells; cell-a suffers a whole-cell blackout under "
                "churn.  Queued and running jobs migrate to cell-b, the "
                "recovered cell is fenced, and no intent is lost or run "
                "twice.  (CI smoke scenario.)",
    cells=(
        CellDef("cell-a", "zone-a", gpu_nodes=4, gpus_per_node=4,
                gpu_type="K80"),
        CellDef("cell-b", "zone-b", gpu_nodes=4, gpus_per_node=4,
                gpu_type="K80"),
    ),
    steps=(
        InjectionStep(at_s=120.0, kind="cell-blackout", target="cell-a",
                      duration_s=150.0),
    ),
    horizon_s=1600.0,
    settle_s=600.0,
    jobs=8,
    arrival_window_s=180.0,
    min_iterations=60,
    max_iterations=140,
)

FEDERATION_BROWNOUT_MIGRATION = FederationScenario(
    name="federation-brownout-migration",
    description="Three cells; cell-a browns out (200x API/LCM latency) "
                "without dying.  The health monitor must classify the "
                "brownout from probe latency alone and migrate work to "
                "the healthy cells.",
    cells=(
        CellDef("cell-a", "zone-a", gpu_nodes=4, gpus_per_node=4,
                gpu_type="K80"),
        CellDef("cell-b", "zone-a", gpu_nodes=4, gpus_per_node=4,
                gpu_type="K80"),
        CellDef("cell-c", "zone-b", gpu_nodes=4, gpus_per_node=4,
                gpu_type="K80"),
    ),
    steps=(
        InjectionStep(at_s=100.0, kind="cell-brownout", target="cell-a",
                      duration_s=200.0, param=200.0),
    ),
    horizon_s=1600.0,
    settle_s=600.0,
    jobs=9,
    arrival_window_s=180.0,
    min_iterations=60,
    max_iterations=140,
)

FEDERATION_TRACE_3K = FederationScenario(
    name="federation-trace-3k",
    description="The acceptance scenario: 4 cells / 3072 GPUs across "
                "two zones replaying a paper-shaped trace, with one "
                "whole-cell blackout and one brownout.  Zero lost "
                "intents, zero double executions, byte-identical audit "
                "across runs.",
    cells=(
        CellDef("cell-a", "zone-a", gpu_nodes=24, gpus_per_node=32,
                gpu_type="K80"),
        CellDef("cell-b", "zone-b", gpu_nodes=24, gpus_per_node=32,
                gpu_type="K80"),
        CellDef("cell-c", "zone-a", gpu_nodes=24, gpus_per_node=32,
                gpu_type="V100"),
        CellDef("cell-d", "zone-b", gpu_nodes=24, gpus_per_node=32,
                gpu_type="V100"),
    ),
    steps=(
        InjectionStep(at_s=180.0, kind="cell-blackout", target="cell-a",
                      duration_s=240.0),
        InjectionStep(at_s=300.0, kind="cell-brownout", target="cell-c",
                      duration_s=240.0, param=200.0),
    ),
    horizon_s=2200.0,
    settle_s=800.0,
    jobs=48,
    arrival_window_s=420.0,
    min_iterations=80,
    max_iterations=240,
    tenant_quota_gpus=1024,
)

#: name -> scenario, in documentation order.
SCENARIOS: Dict[str, Union[Scenario, FederationScenario]] = {
    scenario.name: scenario
    for scenario in (
        ETCD_LEADER_KILL,
        MONGO_FAILOVER_UNDER_CHURN,
        OBJECTSTORE_BROWNOUT,
        ROLLING_NODE_CRASHES,
        EVERYTHING_AT_ONCE,
        FIG6_TABLE8_FAILURES,
        FIG7_FIG8_NODE_FAILURES,
        FEDERATION_CELL_OUTAGE,
        FEDERATION_BROWNOUT_MIGRATION,
        FEDERATION_TRACE_3K,
    )
}


def get_scenario(name: str) -> Union[Scenario, FederationScenario]:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(SCENARIOS)
        raise KeyError(f"unknown scenario {name!r}; known: {known}") \
            from None
