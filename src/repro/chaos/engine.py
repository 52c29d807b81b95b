"""The chaos engine: seeded scenarios, injections, hypotheses, audit.

A scenario is pure data: a topology, a workload shape and a schedule of
:class:`InjectionStep` records against named fault kinds.
:class:`ChaosEngine` is the one loop that runs any of them: it fires
every step, once or recurring, records each occurrence as a
:class:`FaultEvent` in its audit log, watches each fault's recovery,
checks steady-state hypotheses before the first injection and after the
last recovery, and assembles the report.

What differs between attacking one platform and attacking a federation
of them lives behind the scenario's *target*: :class:`PlatformTarget`
here (Raft crash/partition, Mongo member kills, object-store outage and
brownout windows, kubelet node crashes, microservice replica kills) and
:class:`~repro.chaos.federation.FederationTarget` for whole cells.  A
target builds the substrate, binds a step to its hooks, drives the job
churn, and says which hypotheses, counters and job states judge the run.

Everything — churn arrivals, recurring faults, retry jitter — draws from
named :class:`~repro.sim.rng.RngRegistry` streams, so a scenario's merged
audit log is identical across runs with the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar, Dict, List, Optional, Tuple

from repro.core import statuses as st
from repro.core.manifest import JobManifest
from repro.core.platform import FfDLPlatform, PlatformConfig
from repro.errors import SimulationError, StoreUnavailableError
from repro.etcd.replicated import ReplicatedEtcd
from repro.kube.events import REASON_ASSUME_FAILED, REASON_TIMEOUT
from repro.mongo.database import MongoReplicaSet
from repro.resilience import RetryPolicy, TRANSIENT_ERRORS
from repro.sim.core import Environment, Event, OBSERVER, Process
from repro.sim.race import RaceDetector
from repro.sim.rng import RngRegistry

#: Paper recovery-time calibration (Table 3), for the kinds that map onto
#: a crashed FfDL component.  Other kinds report measured times only.
TABLE3_RECOVERY_S: Dict[str, Tuple[str, Tuple[float, float]]] = {
    "api-crash": ("API", (3.0, 5.0)),
    "lcm-crash": ("LCM", (4.0, 6.0)),
}

#: Fault kinds by what they break: a component inside one platform, or
#: a whole cell of a federation.  A step may name any of them; the
#: scenario's target binds only its own.
PLATFORM_FAULT_KINDS = (
    "etcd-leader-kill",
    "etcd-partition",
    "mongo-primary-kill",
    "oss-outage",
    "oss-brownout",
    "node-crash",
    "api-crash",
    "lcm-crash",
    "scheduler-timeout",
    "scheduler-assume",
)
CELL_FAULT_KINDS = ("cell-blackout", "cell-brownout")
FAULT_KINDS = PLATFORM_FAULT_KINDS + CELL_FAULT_KINDS

#: A cancelled churn job is cancelled within this long of its submission.
CANCELLATION_DELAY_S = 120.0
#: The fewest iterations a drawn churn job runs.
MIN_DRAWN_ITERATIONS = 100

#: Table 8's rare scheduler races, by the fault kind that injects one.
SCHEDULER_RACES = {"scheduler-timeout": REASON_TIMEOUT,
                   "scheduler-assume": REASON_ASSUME_FAILED}


@dataclass(frozen=True)
class InjectionStep:
    """One scheduled injection: *what* to break, *when*, for *how long*.

    Without ``mtbf_s`` the step fires once, at ``at_s``.  With it the
    step recurs per target from ``at_s`` on, at exponential gaps of
    that mean (each target draws from its own ``fault:<kind>:<target>``
    stream), until the scenario's horizon.  Every outage lasts exactly
    ``duration_s``, and the next gap starts when it ends.
    """

    at_s: float
    kind: str
    #: The node (platform kinds) or the cell (cell kinds) to break.  An
    #: untargeted ``node-crash`` breaks every provisioned node.
    target: str = ""
    duration_s: float = 0.0
    #: Kind-specific knob (brownout bandwidth fraction; cell-brownout
    #: latency inflation factor).
    param: float = 0.0
    #: Mean time between faults of a recurring step.
    mtbf_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {', '.join(FAULT_KINDS)}")
        if not (math.isfinite(self.at_s) and math.isfinite(self.duration_s)):
            raise ValueError("at_s and duration_s must be finite")
        if self.at_s < 0 or self.duration_s < 0:
            raise ValueError("at_s and duration_s must be non-negative")
        if self.param < 0:
            raise ValueError("param must be non-negative")
        if self.kind == "oss-brownout" and self.param > 1:
            raise ValueError("an oss-brownout param is a bandwidth "
                             "fraction of at most 1")
        if self.mtbf_s is not None and not 0 < self.mtbf_s < math.inf:
            raise ValueError("mtbf_s must be positive and finite")


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault, as the audit log records it."""

    time: float
    kind: str
    target: str
    duration_s: float


@dataclass(frozen=True)
class JobShape:
    """One job shape of the churn's size mix and its share of arrivals."""

    learners: int = 1
    gpus_per_learner: int = 1
    weight: float = 1.0


@dataclass(frozen=True)
class NodeGroup:
    """``count`` identical GPU nodes of one type."""

    count: int
    gpus_per_node: int
    gpu_type: str
    cpus: float = 64.0
    memory_gb: float = 512.0

    def node_names(self) -> Tuple[str, ...]:
        """Provisioned node names (cluster convention
        ``node-<gpu_type>-<index>``)."""
        return tuple(f"node-{self.gpu_type}-{index}"
                     for index in range(self.count))


@dataclass(frozen=True)
class Scenario:
    """A named, declarative chaos scenario against one platform."""

    #: What ``--list`` and the manifests call this scenario family.
    kind: ClassVar[str] = "chaos"

    name: str
    description: str
    steps: Tuple[InjectionStep, ...]
    horizon_s: float = 900.0
    #: Extra quiet time after the horizon for recoveries and flushes.
    settle_s: float = 240.0
    #: Churn jobs at most; none arrives after the horizon.
    jobs: int = 6
    interarrival_s: float = 20.0
    #: Iterations of each churn job: exactly this many, or with
    #: ``draw_iterations`` an exponential draw of this mean (at least
    #: ``MIN_DRAWN_ITERATIONS``).
    iterations: int = 150
    draw_iterations: bool = False
    #: The shapes churn jobs are drawn from, by weight.  A one-shape mix
    #: draws nothing.
    size_mix: Tuple[JobShape, ...] = (JobShape(),)
    #: Chance that the user cancels a job within
    #: ``CANCELLATION_DELAY_S`` of its submission (0 draws nothing).
    cancel_probability: float = 0.0
    gpu_type: str = "K80"
    memory_gb_per_learner: Optional[float] = None
    #: The GPU nodes the platform is provisioned with.
    nodes: Tuple[NodeGroup, ...] = (NodeGroup(4, 4, "K80"),)

    def target(self, engine: "ChaosEngine") -> "PlatformTarget":
        return PlatformTarget(engine)


@dataclass(frozen=True)
class HypothesisResult:
    phase: str
    name: str
    ok: bool
    detail: str
    time: float
    #: Which replica satisfied the check (the Raft leader, the Mongo
    #: primary).  It rides on same-instant ties, so it is rendered for
    #: the reader of a report and is in no audit line.
    who: str = ""

    @property
    def described(self) -> str:
        return f"{self.detail}: {self.who}" if self.who else self.detail


@dataclass(frozen=True)
class RecoveryRecord:
    kind: str
    target: str
    started_at: float
    duration_s: Optional[float]
    timed_out: bool = False


@dataclass
class ChaosReport:
    """Everything one scenario run produced."""

    scenario: str
    seed: int
    hypotheses: List[HypothesisResult]
    recoveries: List[RecoveryRecord]
    audit_lines: List[str]
    counters: Dict[str, float] = field(default_factory=dict)
    #: Heap tie-break permutation the run used (0 = FIFO).
    tiebreak_seed: int = 0
    #: job_id -> final status; part of the end-state witness.
    job_states: Dict[str, str] = field(default_factory=dict)
    #: Rendered schedule-sensitivity conflicts (empty unless the run
    #: was started with ``detect_races=True`` and found some).
    race_lines: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(h.ok for h in self.hypotheses) and bool(self.hypotheses) \
            and not self.race_lines \
            and not any(rec.timed_out for rec in self.recoveries)

    def end_state(self) -> dict:
        """The schedule-independence witness: everything that must be
        identical across tie-break perturbations of the same seed."""
        return {
            "counters": dict(self.counters),
            "job_states": dict(self.job_states),
            "hypotheses": [(h.phase, h.name, h.ok)
                           for h in self.hypotheses],
        }

    def render(self, fmt: str = "text", audit: bool = True) -> str:
        if fmt == "md":
            return self._render_md(audit)
        return self._render_text(audit)

    def _recovery_rows(self) -> List[Tuple[str, str, str, str]]:
        rows = []
        for rec in self.recoveries:
            measured = "TIMED OUT" if rec.timed_out \
                else f"{rec.duration_s:.2f}s"
            paper = ""
            mapped = TABLE3_RECOVERY_S.get(rec.kind)
            if mapped is not None:
                component, (lo, hi) = mapped
                paper = f"{component} {lo:g}-{hi:g}s (Table 3)"
            rows.append((rec.kind, rec.target or "-", measured, paper))
        return rows

    def _render_text(self, audit: bool) -> str:
        lines = [f"chaos scenario {self.scenario!r} seed={self.seed} "
                 f"tiebreak={self.tiebreak_seed}: "
                 f"{'PASS' if self.passed else 'FAIL'}"]
        if self.race_lines:
            lines.append(f"schedule-sensitive conflicts "
                         f"({len(self.race_lines)}):")
            lines.extend(f"  {entry}" for entry in self.race_lines)
        lines.append("counters: " + " ".join(
            f"{key}={value:g}" for key, value in self.counters.items()))
        lines.append("hypotheses:")
        for h in self.hypotheses:
            lines.append(f"  [{h.phase}] {h.name}: "
                         f"{'PASS' if h.ok else 'FAIL'} ({h.described})")
        lines.append("recovery times:")
        for kind, target, measured, paper in self._recovery_rows():
            suffix = f"  [paper: {paper}]" if paper else ""
            lines.append(f"  {kind} target={target}: {measured}{suffix}")
        if audit:
            lines.append(f"audit log ({len(self.audit_lines)} entries):")
            lines.extend(f"  {entry}" for entry in self.audit_lines)
        return "\n".join(lines)

    def _render_md(self, audit: bool) -> str:
        lines = [f"## Chaos scenario `{self.scenario}` (seed {self.seed}, "
                 f"tiebreak {self.tiebreak_seed}) — "
                 f"{'PASS' if self.passed else 'FAIL'}", ""]
        if self.race_lines:
            lines.append(f"**{len(self.race_lines)} schedule-sensitive "
                         f"conflict(s):**")
            lines.extend(f"- `{entry}`" for entry in self.race_lines)
            lines.append("")
        lines.append("| counter | value |")
        lines.append("|---|---|")
        for key, value in self.counters.items():
            lines.append(f"| {key} | {value:g} |")
        lines.append("")
        lines.append("| phase | hypothesis | result | detail |")
        lines.append("|---|---|---|---|")
        for h in self.hypotheses:
            lines.append(f"| {h.phase} | {h.name} | "
                         f"{'PASS' if h.ok else 'FAIL'} | {h.described} |")
        lines.append("")
        lines.append("| fault | target | measured recovery | paper |")
        lines.append("|---|---|---|---|")
        for kind, target, measured, paper in self._recovery_rows():
            lines.append(f"| {kind} | {target} | {measured} | "
                         f"{paper or '—'} |")
        if audit:
            lines.append("")
            lines.append("<details><summary>audit log "
                         f"({len(self.audit_lines)} entries)</summary>")
            lines.append("")
            lines.append("```")
            lines.extend(self.audit_lines)
            lines.append("```")
            lines.append("</details>")
        return "\n".join(lines)




class PlatformTarget:
    """One FfDL platform under a seeded job churn.

    The stores are replicated only where a step breaks them: etcd runs
    as a Raft group when a step kills its leader or partitions it, and
    MongoDB as a replica set when a step kills its primary.  Otherwise
    each is one standalone store, which costs a long run nothing.
    """

    #: How a step's target reads in the audit log, and the prefix of
    #: the engine's process names.
    LABEL = "target"
    PREFIX = "chaos"
    FAULT_KINDS = PLATFORM_FAULT_KINDS

    def __init__(self, engine: "ChaosEngine"):
        self.engine = engine
        self.env = engine.env
        self.scenario = engine.scenario
        kinds = {step.kind for step in self.scenario.steps}
        self.platform = FfDLPlatform(self.env, engine.rng, PlatformConfig(
            etcd_replicas=3 if kinds & {"etcd-leader-kill",
                                        "etcd-partition"} else 0,
            mongo_secondaries=2 if "mongo-primary-kill" in kinds else 0,
            mongo_election_delay_s=4.0,
            client_breakers=True,
            mount_retry=RetryPolicy(max_attempts=6, base_delay_s=0.2,
                                    max_delay_s=5.0),
        ))
        for group in self.scenario.nodes:
            self.platform.add_gpu_nodes(
                group.count, gpus_per_node=group.gpus_per_node,
                gpu_type=group.gpu_type, cpus=group.cpus,
                memory_gb=group.memory_gb)
        self.platform.admission.register("chaos", gpu_quota=10 ** 6)
        self.stream = engine.rng.stream("chaos:arrivals")

    # -- fault binding ------------------------------------------------------

    def expand(self, step: InjectionStep) -> List[InjectionStep]:
        """The steps ``step`` stands for: an untargeted node crash is
        one step per provisioned node."""
        if step.kind != "node-crash" or step.target:
            return [step]
        return [replace(step, target=name) for group in self.scenario.nodes
                for name in group.node_names()]

    def bind(self, step: InjectionStep):
        """(inject, recover, healthy) callables for one step; ``healthy``
        is None for a fault that leaves nothing to recover."""
        platform = self.platform
        state: Dict[str, object] = {}

        if step.kind == "etcd-leader-kill":
            def inject() -> None:
                state["node"] = platform.etcd.crash_leader()

            def recover() -> None:
                node = state.get("node")
                if node:
                    platform.etcd.restart_replica(node)

            def healthy() -> bool:
                return platform.etcd.cluster.leader() is not None

        elif step.kind == "etcd-partition":
            raft = platform.etcd.cluster

            def inject() -> None:
                leader = raft.leader()
                state["term"] = leader.current_term if leader else 0
                if leader is not None:
                    others = {node_id for node_id in raft.node_ids()
                              if node_id != leader.node_id}
                    raft.network.partition({leader.node_id}, others)

            def recover() -> None:
                raft.network.heal_all()

            def healthy() -> bool:
                # Healthy once the majority side elected a fresh leader.
                leader = raft.leader()
                return leader is not None and \
                    leader.current_term > int(state.get("term", 0))

        elif step.kind == "mongo-primary-kill":
            def inject() -> None:
                state["index"] = platform.mongo.primary_index
                platform.mongo.crash_member(state["index"])

            def recover() -> None:
                platform.mongo.restart_member(int(state["index"]))

            def healthy() -> bool:
                return platform.mongo.has_primary

        elif step.kind == "oss-outage":
            def inject() -> None:
                platform.oss.begin_outage()

            def recover() -> None:
                platform.oss.end_outage()

            def healthy() -> bool:
                return platform.oss.available

        elif step.kind == "oss-brownout":
            fraction = step.param or 0.1

            def inject() -> None:
                platform.oss.set_bandwidth(
                    platform.oss.nominal_bandwidth_bps * fraction)

            def recover() -> None:
                platform.oss.restore_bandwidth()

            def healthy() -> bool:
                return platform.oss.link.capacity_bps >= \
                    platform.oss.nominal_bandwidth_bps

        elif step.kind == "node-crash":
            def inject() -> None:
                platform.cluster.fail_node(step.target)

            def recover() -> None:
                platform.cluster.recover_node(step.target)

            def healthy() -> bool:
                return platform.cluster.node_is_up(step.target)

        elif step.kind in SCHEDULER_RACES:
            def inject() -> None:
                platform.cluster.scheduler.inject_race(
                    SCHEDULER_RACES[step.kind])

            def recover() -> None:
                pass  # the race fails one placement attempt

            healthy = None

        else:  # api-crash / lcm-crash
            service = platform.api_service if step.kind == "api-crash" \
                else platform.lcm

            def inject() -> None:
                # Kill the whole replica set so availability actually
                # drops; recovery time is the fastest replica's restart
                # (the quantity Table 3 reports).
                for _ in range(service.replicas_up):
                    service.crash_replica()

            def recover() -> None:
                pass  # replicas restart themselves

            def healthy() -> bool:
                return service.available

        return inject, recover, healthy

    # -- workload -----------------------------------------------------------

    def churn(self):
        """Arrivals at exponential gaps until ``jobs`` or the horizon.

        Every draw of a job (its gap, shape, iterations, cancellation)
        is made here, in arrival order, so no two job processes ever
        draw from the stream at the same instant."""
        scenario, stream = self.scenario, self.stream
        weights = [shape.weight for shape in scenario.size_mix]
        for index in range(scenario.jobs):
            gap = stream.expovariate(1.0 / scenario.interarrival_s)
            if self.env.now + gap >= scenario.horizon_s:
                return
            yield self.env.timeout(gap)
            shape = scenario.size_mix[0] if len(weights) == 1 \
                else stream.choices(scenario.size_mix, weights)[0]
            iterations = scenario.iterations
            if scenario.draw_iterations:
                iterations = max(MIN_DRAWN_ITERATIONS, int(
                    stream.expovariate(1.0 / iterations)))
            cancel_after = None
            if scenario.cancel_probability and \
                    stream.random() < scenario.cancel_probability:
                cancel_after = stream.random() * CANCELLATION_DELAY_S
            self.env.process(
                self._one_job(index, shape, iterations, cancel_after),
                name=f"chaos-job:{index}")

    def _one_job(self, index: int, shape: JobShape, iterations: int,
                 cancel_after: Optional[float]):
        manifest = JobManifest(
            name=f"chaos-{index}", user="chaos", framework="tensorflow",
            model="resnet50", data_bucket=f"chaos-data-{index}",
            result_bucket="chaos-results",
            learners=shape.learners,
            gpus_per_learner=shape.gpus_per_learner,
            gpu_type=self.scenario.gpu_type,
            memory_gb_per_learner=self.scenario.memory_gb_per_learner,
            iterations=iterations,
            dataset_objects=2, dataset_object_bytes=32e6)
        try:
            job_id = yield self.platform.submit_job(manifest)
        except TRANSIENT_ERRORS as err:
            self.engine.submit_failures += 1
            self.engine.log(f"submit-failed job=chaos-{index} "
                            f"error={type(err).__name__}")
            return
        self.engine.submitted.append(job_id)
        self.engine.log(f"submitted {job_id} (chaos-{index})")
        if cancel_after is None:
            return
        yield self.env.timeout(cancel_after)
        if not self.platform.job(job_id).status.is_terminal:
            self.platform.preempt_job(job_id, reason="user cancelled")
            self.engine.log(f"cancelled {job_id}")

    # -- hypotheses ---------------------------------------------------------

    def writers(self):
        """The buffered writers a hypothesis check waits on."""
        return [self.platform.status_writer]

    def _jobs_collection(self):
        return self.platform.mongo.collection("jobs")

    def _hyp_writer_flushed(self) -> Tuple[bool, str]:
        writer = self.platform.status_writer
        ok = writer.pending == 0 and not writer.degraded \
            and writer.write_errors == 0
        return ok, (f"enqueued={writer.total_enqueued} "
                    f"flushed={writer.total_flushed} "
                    f"pending={writer.pending} "
                    f"errors={writer.write_errors}")

    def _hyp_jobs_durable(self) -> Tuple[bool, str]:
        if self.platform.status_writer.pending:
            return False, (f"{self.platform.status_writer.pending} "
                           f"writes still buffered")
        try:
            collection = self._jobs_collection()
        except StoreUnavailableError:
            return False, "mongo primary unavailable"
        missing = [job_id for job_id in sorted(self.platform.jobs)
                   if collection.find_one({"_id": job_id}) is None]
        if missing:
            return False, (f"{len(missing)} job records lost: "
                           f"{missing[:3]}")
        return True, f"{len(self.platform.jobs)} job records durable"

    def _hyp_status_consistent(self) -> Tuple[bool, str]:
        try:
            collection = self._jobs_collection()
        except StoreUnavailableError:
            return False, "mongo primary unavailable"
        stale = []
        for job_id in sorted(self.platform.jobs):
            document = collection.find_one({"_id": job_id})
            if document is None:
                continue  # counted by the durability hypothesis
            if document.get("status") != \
                    self.platform.jobs[job_id].status.current:
                stale.append(job_id)
        if stale:
            return False, (f"{len(stale)} durable statuses stale: "
                           f"{stale[:3]}")
        return True, "durable status matches in-memory status"

    def _hyp_mongo_primary(self) -> Tuple[bool, ...]:
        backend = self.platform.mongo
        if isinstance(backend, MongoReplicaSet):
            if not backend.has_primary:
                return False, "no primary"
            return True, "primary elected", f"index {backend.primary_index}"
        return True, "standalone mongo"

    def _hyp_etcd_leader(self) -> Tuple[bool, ...]:
        backend = self.platform.etcd
        if isinstance(backend, ReplicatedEtcd):
            leader = backend.cluster.leader()
            if leader is None:
                return False, "no raft leader"
            return True, "leader elected", leader.node_id
        return True, "standalone etcd"

    def stores_ready(self) -> bool:
        """Whether every replicated store has a leader or primary."""
        return self._hyp_mongo_primary()[0] and self._hyp_etcd_leader()[0]

    def _hyp_no_overallocation(self) -> Tuple[bool, str]:
        over = [name for name, alloc in
                sorted(self.platform.cluster.allocations.items())
                if alloc.allocated_gpus > alloc.capacity.gpus]
        if over:
            return False, f"over-allocated nodes: {over}"
        return True, (f"allocated {self.platform.cluster.allocated_gpus()}"
                      f"/{self.platform.cluster.total_gpus()} GPUs")

    #: (name, check) in report order; the names are the catalog the
    #: manifest schema validates ``hypotheses.checks`` against.
    HYPOTHESES = (
        ("status-writer-flushed", _hyp_writer_flushed),
        ("no-lost-job-records", _hyp_jobs_durable),
        ("status-consistency", _hyp_status_consistent),
        ("mongo-primary-available", _hyp_mongo_primary),
        ("etcd-leader-elected", _hyp_etcd_leader),
        ("no-gpu-overallocation", _hyp_no_overallocation),
    )

    def hypotheses(self, phase: str):
        """The checks that mean something in ``phase``."""
        return self.HYPOTHESES

    # -- report -------------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        platform = self.platform
        completed = sum(1 for job in platform.jobs.values()
                        if job.status.current == st.COMPLETED)
        terminal = sum(1 for job in platform.jobs.values()
                       if job.status.is_terminal)
        writer = platform.status_writer
        counters: Dict[str, float] = {
            "jobs-submitted": len(self.engine.submitted),
            "submit-failures": self.engine.submit_failures,
            "jobs-completed": completed,
            "jobs-terminal": terminal,
            "writes-enqueued": writer.total_enqueued,
            "writes-flushed": writer.total_flushed,
            "write-errors": writer.write_errors,
            "peak-buffered-writes": writer.peak_pending,
            "degraded-windows": len(writer.degraded_periods),
            "mongo-retries": platform.mongo_client.retries,
            "etcd-retries": platform.etcd_client.retries,
            "faults-injected": len(self.engine.faults),
        }
        if isinstance(platform.mongo, MongoReplicaSet):
            counters["mongo-failovers"] = len(platform.mongo.failover_log)
        return counters

    def job_states(self) -> Dict[str, str]:
        return {job_id: job.status.current
                for job_id, job in sorted(self.platform.jobs.items())}


class ChaosEngine:
    """Runs one scenario against its freshly built target."""

    #: Recovery polling resolution (quantizes measured recovery times).
    POLL_S = 0.25
    #: Give up watching for a fault's recovery after this long.
    RECOVERY_TIMEOUT_S = 900.0
    #: Bounded drain grace before each hypothesis check: the writers get
    #: up to this many half-second windows to flush in-flight writes, so
    #: a write enqueued microseconds before the check does not read as a
    #: stuck backlog.
    DRAIN_GRACE_STEPS = 120

    def __init__(self, scenario, seed: int = 0, tiebreak_seed: int = 0,
                 detect_races: bool = False):
        self.scenario = scenario
        self.seed = seed
        self.tiebreak_seed = tiebreak_seed
        self.env = Environment(tiebreak_seed=tiebreak_seed)
        #: Attach the vector-clock monitor *before* any substrate is
        #: built so every access from t=0 is covered.
        self.race_detector = RaceDetector(self.env) if detect_races else None
        self.rng = RngRegistry(seed)
        self._engine_log: List[Tuple[float, str]] = []
        #: Every fault fired, in firing order.
        self.faults: List[FaultEvent] = []
        self.hypotheses: List[HypothesisResult] = []
        self.recoveries: List[RecoveryRecord] = []
        #: Fired faults nobody has seen recover yet: (step, fired at).
        self._unrecovered: List[Tuple[InjectionStep, float]] = []
        #: The fault and watch processes; one that raised fails the run.
        self._fault_procs: List[Process] = []
        #: Made only while the baseline waits for the stores to elect;
        #: the first fault to fire succeeds it and ends the wait.
        self._first_fire: Optional[Event] = None
        self.submitted: List[str] = []
        self.submit_failures = 0
        self._ran = False
        self.target = scenario.target(self)

    # -- audit --------------------------------------------------------------

    def log(self, text: str) -> None:
        self._engine_log.append((self.env.now, text))

    def audit_lines(self) -> List[str]:
        """Fired faults merged with the engine's own events.

        At equal timestamps the fault record comes first (it is written
        before the fault is applied); *within* one source and timestamp,
        lines sort canonically by text.  Within-tick append order is
        exactly what the kernel is free to permute when two events tie
        (see :class:`~repro.sim.core.Environment`), so the witness treats
        one instant's lines as an unordered set.  The merged log is the
        determinism contract: two runs with the same scenario seed must
        produce identical lines under *every* tie-break seed.
        """
        entries: List[Tuple[float, int, str, int]] = []
        for seq, fault in enumerate(self.faults):
            entries.append((fault.time, 0,
                            f"fault {fault.kind} target={fault.target} "
                            f"duration={fault.duration_s:.3f}", seq))
        for seq, (time, text) in enumerate(self._engine_log):
            entries.append((time, 1, text, seq))
        entries.sort()
        return [f"t={time:10.3f} {text}"
                for time, _src, text, _seq in entries]

    # -- faults -------------------------------------------------------------

    def _where(self, step: InjectionStep) -> str:
        return f"{self.target.LABEL}={step.target or '-'}"

    def _schedule_step(self, step: InjectionStep) -> None:
        if step.kind not in self.target.FAULT_KINDS:
            raise SimulationError(
                f"scenario {self.scenario.name!r} cannot inject "
                f"{step.kind!r}; its target binds: "
                f"{', '.join(self.target.FAULT_KINDS)}")
        label = step.target or step.kind
        bound = self.target.bind(step)
        if step.mtbf_s is None:
            fault, name = self._once(step, label, bound), "fault-once"
        else:
            fault, name = self._recurring(step, label, bound), "fault"
        self._fault_procs.append(self.env.process(
            fault, name=f"{name}:{step.kind}:{label}"))

    def _once(self, step: InjectionStep, label: str, bound):
        yield self.env.timeout(step.at_s)
        yield from self._fire(step, label, *bound)

    def _recurring(self, step: InjectionStep, label: str, bound):
        stream = self.rng.stream(f"fault:{step.kind}:{label}")
        yield self.env.timeout(step.at_s)
        while True:
            gap = stream.expovariate(1.0 / step.mtbf_s)
            if self.env.now + gap >= self.scenario.horizon_s:
                return
            yield self.env.timeout(gap)
            yield from self._fire(step, label, *bound)

    def _fire(self, step: InjectionStep, label: str, inject, recover,
              healthy):
        """One occurrence: record, apply, watch, and recover after
        ``duration_s``."""
        if self._first_fire is not None and \
                not self._first_fire.triggered:
            self._first_fire.succeed()
        self.faults.append(FaultEvent(self.env.now, step.kind, label,
                                      step.duration_s))
        inject()
        self.log(f"inject {step.kind} {self._where(step)} "
                 f"duration={step.duration_s:g}")
        if healthy is not None:
            fired = (step, self.env.now)
            self._unrecovered.append(fired)
            self._fault_procs.append(self.env.process(
                self._watch_recovery(fired, healthy),
                name=f"{self.target.PREFIX}-watch:{step.kind}"))
        if step.duration_s > 0:
            yield self.env.timeout(step.duration_s)
        recover()
        self.log(f"recover {step.kind} {self._where(step)}")

    def _watch_recovery(self, fired, healthy):
        step, started = fired
        # The deadline counts from the end of the outage: a fault cannot
        # recover while it is still being applied.
        deadline = started + step.duration_s + self.RECOVERY_TIMEOUT_S
        while self.env.now < deadline:
            # OBSERVER priority: sample the tick's settled state, so a
            # recovery landing exactly on a poll boundary is measured
            # identically under every legal tie-breaking order.
            yield self.env.timeout(self.POLL_S, priority=OBSERVER)
            if healthy():
                duration = self.env.now - started
                self._unrecovered.remove(fired)
                self.recoveries.append(RecoveryRecord(
                    step.kind, step.target, started, duration))
                self.log(f"recovered {step.kind} {self._where(step)} "
                         f"after {duration:.2f}s")
                return

    def _raise_fault_errors(self) -> None:
        """Fail the run if applying, recovering or watching a fault
        raised: nothing waits on those processes, so the kernel keeps
        their exception to itself."""
        for proc in self._fault_procs:
            if proc.triggered and not proc.ok:
                raise SimulationError(
                    f"scenario {self.scenario.name!r}: {proc.name} "
                    f"raised {proc.value!r}") from proc.value

    # -- hypotheses ---------------------------------------------------------

    def _check_hypotheses(self, phase: str):
        # Bounded drain grace: let in-flight (non-degraded) writes land
        # so the check measures steady state, not a scheduling race.
        writers = self.target.writers()
        for _ in range(self.DRAIN_GRACE_STEPS):
            if all(w.pending == 0 and not w.degraded for w in writers):
                break
            yield self.env.timeout(0.5, priority=OBSERVER)
        for name, check in self.target.hypotheses(phase):
            ok, detail, *who = check(self.target)
            self.hypotheses.append(HypothesisResult(
                phase, name, ok, detail, self.env.now, *who))
            self.log(f"hypothesis {name} [{phase}]: "
                     f"{'PASS' if ok else 'FAIL'} ({detail})")

    # -- run ----------------------------------------------------------------

    def run(self) -> ChaosReport:
        if self._ran:
            raise SimulationError("ChaosEngine instances are single-use; "
                                  "build a fresh one per run")
        self._ran = True
        prefix = self.target.PREFIX
        first_fault = min((step.at_s for step in self.scenario.steps),
                          default=0.0)

        def baseline():
            yield self.env.timeout(max(0.0, first_fault - 1.0))
            # Replicated stores elect in their first seconds; a baseline
            # taken before that measures the election, not the steady
            # state.  Wait for it, but not past the first fault.
            if not (self.faults or self.target.stores_ready()):
                fired = self._first_fire = self.env.event()
                while not (fired.triggered or self.target.stores_ready()):
                    yield self.env.any_of([fired, self.env.timeout(
                        self.POLL_S, priority=OBSERVER)])
            yield from self._check_hypotheses("steady-state:before")

        self.env.process(baseline(), name=f"{prefix}-baseline")
        self.env.process(self.target.churn(), name=f"{prefix}-churn")
        for step in self.scenario.steps:
            for one in self.target.expand(step):
                self._schedule_step(one)
        self.env.run(until=self.scenario.horizon_s
                     + self.scenario.settle_s)
        self._raise_fault_errors()
        self.env.run_until_complete(
            self.env.process(self._check_hypotheses("steady-state:after"),
                             name=f"{prefix}-final"),
            limit=self.env.now + 120.0)
        self.env.settle()
        return self._report()

    def _report(self) -> ChaosReport:
        # A fault still open when the run ends (or after
        # RECOVERY_TIMEOUT_S of watching) is a finding, not silence.
        for step, started in self._unrecovered:
            self.recoveries.append(RecoveryRecord(
                step.kind, step.target, started, None, timed_out=True))
            self.log(f"recovery-timeout {step.kind} {self._where(step)}")
        counters = self.target.counters()
        race_lines: List[str] = []
        if self.race_detector is not None:
            race_lines = self.race_detector.render()
            counters["schedule-conflicts"] = len(race_lines)
        return ChaosReport(
            scenario=self.scenario.name,
            seed=self.seed,
            hypotheses=list(self.hypotheses),
            recoveries=list(self.recoveries),
            audit_lines=self.audit_lines(),
            counters=counters,
            tiebreak_seed=self.tiebreak_seed,
            job_states=self.target.job_states(),
            race_lines=race_lines,
        )


def run_scenario(scenario, seed: int = 0, tiebreak_seed: int = 0,
                 detect_races: bool = False) -> ChaosReport:
    """Build a fresh engine and run ``scenario`` once."""
    return ChaosEngine(scenario, seed=seed, tiebreak_seed=tiebreak_seed,
                       detect_races=detect_races).run()
