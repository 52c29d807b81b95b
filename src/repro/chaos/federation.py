"""Whole-cell chaos: the federation target of the chaos engine.

:class:`~repro.chaos.engine.PlatformTarget` breaks components *inside*
one FfDL installation.  :class:`FederationTarget` breaks entire
installations: it builds N cells under a
:class:`~repro.federation.dispatcher.FederationDispatcher`, replays a
paper-shaped federated trace, and binds two whole-cell fault kinds —

* ``cell-blackout`` — the cell goes completely dark (services held
  down, every node dead, MongoDB unreachable) and later returns;
* ``cell-brownout`` — the cell stays up but its API/LCM latency
  inflates by ``param`` (default 200x), the crash-storm signature the
  health monitor must classify from probe latency alone.

The steady-state hypotheses pin the federation's contract: zero lost
intent records, zero double executions, every intent resolved, every
buffered writer drained, all cells healthy again.  The loop that runs
them is :class:`~repro.chaos.engine.ChaosEngine`, the same one that runs
a single platform, so ``--check-determinism``, ``--perturb`` and
``--detect-races`` apply unchanged: two runs with the same seed must
produce byte-identical audit logs and end states under every tie-break
permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Tuple

from repro.chaos.engine import (
    CELL_FAULT_KINDS,
    ChaosEngine,
    InjectionStep,
)
from repro.core import statuses as st
from repro.errors import QuotaExceededError, SimulationError
from repro.federation import (
    Cell,
    CellSpec,
    FederationBus,
    FederationDispatcher,
    HEALTHY,
)
from repro.workloads.federation_trace import (
    FederationTrace,
    FederationTraceConfig,
)


@dataclass(frozen=True)
class CellDef:
    """Declarative cell shape inside a scenario (pure data)."""

    name: str
    zone: str
    gpu_nodes: int
    gpus_per_node: int
    gpu_type: str


@dataclass(frozen=True)
class FederationScenario:
    """A named multi-cell chaos scenario."""

    kind: ClassVar[str] = "federation"

    name: str
    description: str
    cells: Tuple[CellDef, ...]
    steps: Tuple[InjectionStep, ...]
    horizon_s: float = 1500.0
    settle_s: float = 600.0
    jobs: int = 12
    arrival_window_s: float = 240.0
    min_iterations: int = 80
    max_iterations: int = 200
    #: Federation-wide per-tenant GPU quota.
    tenant_quota_gpus: int = 512

    @property
    def total_gpus(self) -> int:
        return sum(c.gpu_nodes * c.gpus_per_node for c in self.cells)

    def target(self, engine: ChaosEngine) -> "FederationTarget":
        return FederationTarget(engine)


class FederationTarget:
    """N cells under one dispatcher, replaying a federated trace."""

    LABEL = "cell"
    PREFIX = "fedchaos"
    FAULT_KINDS = CELL_FAULT_KINDS

    def __init__(self, engine: ChaosEngine):
        self.engine = engine
        self.env = engine.env
        self.scenario = scenario = engine.scenario
        self.bus = FederationBus(self.env, engine.rng)
        self.cells: Dict[str, Cell] = {}
        for spec in scenario.cells:
            cell = Cell(self.env, engine.rng, CellSpec(
                name=spec.name, zone=spec.zone, gpu_nodes=spec.gpu_nodes,
                gpus_per_node=spec.gpus_per_node, gpu_type=spec.gpu_type))
            self.cells[cell.name] = cell
        self.dispatcher = FederationDispatcher(
            self.env, engine.rng, self.bus, list(self.cells.values()),
            audit=engine.log)
        self.trace = FederationTrace(engine.rng, FederationTraceConfig(
            jobs=scenario.jobs,
            arrival_window_s=scenario.arrival_window_s,
            min_iterations=scenario.min_iterations,
            max_iterations=scenario.max_iterations,
            gpu_type_mix=self._gpu_type_mix(scenario)))

    @staticmethod
    def _gpu_type_mix(scenario: FederationScenario):
        """Restrict the trace's GPU-type mix to types some cell actually
        has (a job demanding a type no cell offers would queue forever),
        renormalized to preserve the relative production weights."""
        available = {spec.gpu_type for spec in scenario.cells}
        mix = tuple((gpu_type, weight) for gpu_type, weight
                    in FederationTraceConfig().gpu_type_mix
                    if gpu_type in available)
        if not mix:
            raise SimulationError(
                f"no trace weights for cell GPU types {sorted(available)}")
        total = sum(weight for _, weight in mix)
        return tuple((gpu_type, weight / total) for gpu_type, weight in mix)

    # -- fault binding -----------------------------------------------------

    def expand(self, step: InjectionStep):
        """Every cell fault names its one cell."""
        return [step]

    def bind(self, step: InjectionStep):
        cell = self.cells.get(step.target)
        if cell is None:
            raise SimulationError(
                f"scenario targets unknown cell {step.target!r}")
        monitor = self.dispatcher.monitors[cell.name]

        if step.kind == "cell-blackout":
            def inject() -> None:
                cell.begin_blackout()

            def recover() -> None:
                cell.end_blackout()
        else:  # cell-brownout
            factor = step.param or 200.0

            def inject() -> None:
                cell.begin_brownout(latency_factor=factor)

            def recover() -> None:
                cell.end_brownout()

        noticed = False

        def healthy() -> bool:
            # Recovered means the *monitor* says so: detection and
            # recovery are both observed through probes, like
            # production.  Probes take a few intervals to classify, so
            # the all-clear only counts once the monitor has noticed
            # the fault.
            nonlocal noticed
            if not noticed:
                noticed = monitor.state != HEALTHY
                return False
            return monitor.state == HEALTHY

        return inject, recover, healthy

    # -- workload ----------------------------------------------------------

    def churn(self):
        jobs = self.trace.generate()
        for user in sorted({job.user for job in jobs}):
            self.dispatcher.register_tenant(
                user, self.scenario.tenant_quota_gpus)
        now = 0.0
        for job in jobs:
            if job.arrival_s > now:
                yield self.env.timeout(job.arrival_s - now)
                now = job.arrival_s
            self.env.process(self._one_job(job),
                             name=f"fedchaos-job:{job.trace_id}")

    def _one_job(self, job):
        try:
            intent_id = yield self.dispatcher.submit(
                job.to_manifest(), preferred_zone=job.preferred_zone)
        except QuotaExceededError:
            self.engine.submit_failures += 1
            self.engine.log(f"submit-rejected {job.trace_id} "
                            f"user={job.user} (quota)")
            return
        self.engine.submitted.append(intent_id)
        self.engine.log(f"submitted {intent_id} ({job.trace_id} "
                        f"{job.total_gpus}x{job.gpu_type})")

    # -- hypotheses --------------------------------------------------------

    def writers(self):
        return [self.dispatcher.intent_log] + \
            [self.cells[name].platform.status_writer
             for name in sorted(self.cells)]

    def _hyp_no_lost_intents(self) -> Tuple[bool, str]:
        lost = self.dispatcher.lost_intents()
        if lost:
            return False, f"{len(lost)} intent records lost: {lost[:3]}"
        return True, (f"{len(self.dispatcher.intents())} intent records "
                      f"durable or buffered")

    def _hyp_no_double_execution(self) -> Tuple[bool, str]:
        doubles = self.dispatcher.counters["double_executions"]
        multi = [i.intent_id for i in self.dispatcher.intents()
                 if i.completions > 1]
        ok = doubles == 0 and not multi
        return ok, f"double-executions={doubles} multi-completed={multi[:3]}"

    def _hyp_intent_log_flushed(self) -> Tuple[bool, str]:
        writer = self.dispatcher.intent_log
        ok = writer.pending == 0 and not writer.degraded \
            and writer.write_errors == 0
        return ok, (f"enqueued={writer.total_enqueued} "
                    f"flushed={writer.total_flushed} "
                    f"pending={writer.pending} "
                    f"errors={writer.write_errors}")

    def _hyp_cell_writers_flushed(self) -> Tuple[bool, str]:
        stuck = []
        for name in sorted(self.cells):
            writer = self.cells[name].platform.status_writer
            if writer.pending or writer.degraded:
                stuck.append(f"{name}:{writer.pending}")
        if stuck:
            return False, f"cell writers not drained: {stuck}"
        return True, "every cell status writer drained"

    def _hyp_all_intents_resolved(self) -> Tuple[bool, str]:
        open_intents = [i.intent_id for i in self.dispatcher.intents()
                        if not i.terminal]
        if open_intents:
            return False, (f"{len(open_intents)} intents unresolved: "
                           f"{open_intents[:3]}")
        return True, f"{len(self.dispatcher.intents())} intents terminal"

    def _hyp_cells_healthy(self) -> Tuple[bool, str]:
        unhealthy = [name for name in sorted(self.dispatcher.monitors)
                     if self.dispatcher.monitors[name].state != HEALTHY]
        if unhealthy:
            return False, f"unhealthy cells: {unhealthy}"
        return True, f"all {len(self.cells)} cells HEALTHY"

    def _hyp_no_overallocation(self) -> Tuple[bool, str]:
        over = []
        for name in sorted(self.cells):
            cluster = self.cells[name].platform.cluster
            for node, alloc in sorted(cluster.allocations.items()):
                if alloc.allocated_gpus > alloc.capacity.gpus:
                    over.append(f"{name}/{node}")
        if over:
            return False, f"over-allocated: {over[:3]}"
        return True, "no cell over-allocates GPUs"

    def stores_ready(self) -> bool:
        """Cells run standalone stores: nothing elects."""
        return True

    HYPOTHESES = (
        ("no-lost-intent-records", _hyp_no_lost_intents),
        ("no-double-execution", _hyp_no_double_execution),
        ("intent-log-flushed", _hyp_intent_log_flushed),
        ("cell-writers-flushed", _hyp_cell_writers_flushed),
        ("all-intents-resolved", _hyp_all_intents_resolved),
        ("cells-healthy", _hyp_cells_healthy),
        ("no-gpu-overallocation", _hyp_no_overallocation),
    )

    def hypotheses(self, phase: str):
        if phase == "steady-state:before":
            # Meaningless before the workload finishes.
            return [(name, check) for name, check in self.HYPOTHESES
                    if name != "all-intents-resolved"]
        return self.HYPOTHESES

    # -- report ------------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        counters: Dict[str, float] = {
            "cells": len(self.cells),
            "total-gpus": self.scenario.total_gpus,
            "intents-submitted": len(self.engine.submitted),
            "submit-rejections": self.engine.submit_failures,
            "bus-messages": self.bus.stats.messages,
        }
        for key in sorted(self.dispatcher.counters):
            counters[f"fed-{key.replace('_', '-')}"] = \
                self.dispatcher.counters[key]
        for name in sorted(self.cells):
            platform = self.cells[name].platform
            counters[f"{name}-jobs"] = len(platform.jobs)
            counters[f"{name}-completed"] = sum(
                1 for job in platform.jobs.values()
                if job.status.current == st.COMPLETED)
        counters["faults-injected"] = len(self.engine.faults)
        return counters

    def job_states(self) -> Dict[str, str]:
        # The end-state witness covers both layers: federated intents
        # and every cell-local job.
        job_states = {intent.intent_id: intent.state
                      for intent in self.dispatcher.intents()}
        for name in sorted(self.cells):
            for job_id, job in sorted(
                    self.cells[name].platform.jobs.items()):
                job_states[f"{name}/{job_id}"] = job.status.current
        return job_states
