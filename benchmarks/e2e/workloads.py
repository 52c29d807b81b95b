"""The five paper-shaped workloads.

Every workload is a fixed-size batch on the host side and an open loop
in *simulated* time: arrivals are scheduled at their due instants
whatever the platform is doing.  ``seconds`` is the size knob - sizes
are calibrated so that ``seconds=10`` is about ten host seconds on the
2-core calibration box (``SIZES`` lists them) - and ``seed`` feeds every
``RngRegistry`` and trace generator, so equal ``(seed, seconds)`` means
equal inputs and an equal state digest.

A workload object is built in three harness phases (``import``,
``generate``, ``build`` - together ``setup_s``), then :meth:`run` is
the timed section (``run`` and, where the harness owns the
``Environment``, ``drain``), then :meth:`collect` checks the outputs and
returns an :class:`Outcome`.

Only ``repro.*`` names that the ROADMAP's planned deletions keep are
imported, each inside the workload that needs it, and scenarios are
resolved by name.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
from typing import Dict, List, Optional

from benchmarks.e2e.hostclock import Spans, now

#: What ``seconds=10`` means for each workload (recorded in the README
#: and the results file; every size is linear in ``seconds``).
SIZES = {
    "prod-trace": "150 jobs, 2.45M predicted events, 45x4 K80 + 55x4 "
                  "V100, one simulated day",
    "scale-heavy": "ScaleTestConfig(scale=0.5): 350 jobs, 340 GPUs",
    "chaos-suite": "5 scenarios + everything-at-once perturbed with the "
                   "race detector",
    "fed-trace": "federation-trace-3k, 1400 jobs over 5600 s, 4 cells",
    "sched-sweep": "1000 nodes, 15000 pods, exhaustive scoring",
}

CHAOS_SCENARIOS = ("etcd-leader-kill", "mongo-failover-under-churn",
                   "objectstore-brownout", "rolling-node-crashes",
                   "everything-at-once")
#: RecoveryRecord kinds that are control-plane recoveries (Table 3);
#: the others (node-crash, oss-*) are injected windows, not recoveries.
CONTROL_PLANE_KINDS = ("etcd-leader-kill", "etcd-partition",
                       "mongo-primary-kill", "api-crash", "lcm-crash")
TERMINAL_STATES = ("COMPLETED", "FAILED", "HALTED")


@dataclasses.dataclass
class Outcome:
    """What one run produced, checked."""

    #: Jobs (pods on ``sched-sweep``) brought to a terminal state.
    units: int
    #: Simulated seconds the run covered.
    sim_s: float
    #: Operations attempted / failed (see the README for each workload).
    attempted: int
    failed: int
    failures: List[str]
    #: Exact simulated-time metrics (``sim_*``).
    sim: Dict[str, float]
    #: State digest; identical across repetitions of one (seed, size).
    digest: str
    #: Values only the workload can see, used by per-layer metrics.
    extras: Dict[str, object] = dataclasses.field(default_factory=dict)


def digest_of(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def percentile(values: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile; None on an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def training_started_at(job) -> Optional[float]:
    """When a job's learners first ran; DOWNLOADING can be coalesced
    away by the controller's batching under heavy load."""
    started = job.status.time_of("DOWNLOADING")
    return job.status.time_of("PROCESSING") if started is None else started


def resolve(*candidates: str):
    """First importable ``module:name`` (public names move between
    ``repro.chaos`` and its engine modules as the engines merge)."""
    for candidate in candidates:
        module_name, _, attr = candidate.partition(":")
        try:
            return getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            continue
    raise ImportError(f"none of {candidates} is importable")


# -- prod-trace ---------------------------------------------------------------


class ProdTrace:
    """The first jobs of the production trace through a full platform.

    Durations become iteration counts through the performance model and
    are scaled by one common factor so that every seed offers the same
    amount of host work; the run drains and then idles to the end of
    the simulated day, so every seed also covers the same simulated
    time.  "Host work" is the predicted kernel event count
    ``EVENTS_PER_LEARNER_ITERATION`` x learner-iterations +
    ``EVENTS_PER_JOB_SECOND`` x job-seconds of training, a
    least-squares fit over 14 seeds that is within 0.3 % of the
    measured count (learner-iterations alone are within 3.3 %, which
    was most of the seed-to-seed spread of ``wall_s``).  The two
    constants define the input; they are not measurements and do not
    follow the code.  With ``days`` set the whole ``days``-day trace is
    replayed as generated, to drain - the ``trace_60d`` recipe.
    """

    name = "prod-trace"
    JOBS_PER_SECOND = 15
    EVENT_BUDGET_PER_SECOND = 245_000
    EVENTS_PER_LEARNER_ITERATION = 0.875
    EVENTS_PER_JOB_SECOND = 0.413
    TENANTS = 4
    DAY_S = 86_400.0
    #: A job must leave this much of the day for deploy and store.
    SLACK_S = 1_800.0

    def __init__(self, seed: int, seconds: float, spans: Spans,
                 days: Optional[int] = None):
        with spans.span("import"):
            from repro.core import FfDLPlatform, JobManifest, PlatformConfig
            from repro.perfmodel import iteration_time_s, model_spec
            from repro.sim import Environment, RngRegistry
            from repro.workloads import ProductionTrace, TraceConfig
        with spans.span("generate"):
            rng = RngRegistry(seed)
            trace = ProductionTrace(
                rng, TraceConfig(days=days or 1)).generate()
            if days is None:
                trace = trace[:max(1, round(self.JOBS_PER_SECOND * seconds))]
            spec = model_spec("resnet50", "tensorflow")
            tenants = rng.stream("e2e:tenants")
            natural = []
            for job in trace:
                # No 4xV100 t-shirt size (Table 5), as in the
                # federation trace.
                gpu_type = "K80" if job.gpus_per_learner > 2 \
                    else job.gpu_type
                user = f"tenant-{tenants.randrange(self.TENANTS)}"
                manifest = JobManifest(
                    name=job.job_id, user=user, framework="tensorflow",
                    model="resnet50", data_bucket=f"data-{user}",
                    result_bucket=f"results-{user}",
                    learners=job.learners,
                    gpus_per_learner=job.gpus_per_learner,
                    gpu_type=gpu_type)
                iter_s = iteration_time_s(
                    spec, gpu_type, manifest.effective_cpus(),
                    job.gpus_per_learner)
                natural.append((job, manifest, iter_s))
            factor = 1.0
            if days is None:
                budget = self.EVENT_BUDGET_PER_SECOND * seconds
                factor = budget / sum(
                    (self.EVENTS_PER_LEARNER_ITERATION * job.learners
                     / iter_s + self.EVENTS_PER_JOB_SECOND)
                    * job.duration_s
                    for job, _manifest, iter_s in natural)
            self.arrivals = []
            for job, manifest, iter_s in natural:
                duration = job.duration_s * factor
                if days is None:
                    duration = min(duration, self.DAY_S - self.SLACK_S
                                   - job.arrival_s)
                manifest.iterations = max(1, int(duration / iter_s))
                self.arrivals.append((job.arrival_s, manifest))
            self.horizon_s = None if days else self.DAY_S
        with spans.span("build"):
            self.env = Environment()
            self.platform = FfDLPlatform(
                self.env, rng, PlatformConfig(scheduler_policy="pack",
                                              gang_scheduling=True))
            self.platform.add_gpu_nodes(45, gpus_per_node=4, gpu_type="K80")
            self.platform.add_gpu_nodes(55, gpus_per_node=4,
                                        gpu_type="V100")
            for index in range(self.TENANTS):
                self.platform.admission.register(f"tenant-{index}",
                                                 gpu_quota=10 ** 6)
        self.job_ids: Dict[str, str] = {}

    def run(self, spans: Spans) -> None:
        env, platform = self.env, self.platform

        def arrive(due_s, manifest):
            yield env.timeout(due_s)
            self.job_ids[manifest.name] = \
                yield platform.submit_job(manifest)

        def drain():
            for job_id in list(self.job_ids.values()):
                yield platform.wait_for_terminal(job_id)

        with spans.span("run"):
            submitted = [env.process(arrive(due_s, manifest), name="arrive")
                         for due_s, manifest in self.arrivals]
            env.run_until_complete(env.all_of(submitted))
        with spans.span("drain"):
            env.run_until_complete(env.process(drain(), name="drain"))
            if self.horizon_s is not None and env.now < self.horizon_s:
                env.run(until=self.horizon_s)

    def collect(self) -> Outcome:
        failures, waits, e2e, states = [], [], [], {}
        completed = 0
        for due_s, manifest in self.arrivals:
            job_id = self.job_ids.get(manifest.name)
            if job_id is None:
                failures.append(f"{manifest.name}: never acknowledged")
                continue
            job = self.platform.job(job_id)
            states[job_id] = job.status.current
            if job.status.current != "COMPLETED":
                failures.append(f"{job_id}: {job.status.current}")
                continue
            completed += 1
            # Open loop: waits count from when the job was due.
            waits.append(training_started_at(job) - due_s)
            e2e.append(job.finished_at - due_s)
        sim = {"sim_makespan_s": max(
            (self.platform.job(j).finished_at or 0.0)
            for j in self.job_ids.values())}
        sim["sim_job_e2e_p50_s"] = percentile(e2e, 0.5)
        if len(waits) >= 100:
            sim["sim_queue_wait_p50_s"] = percentile(waits, 0.5)
            sim["sim_queue_wait_p90_s"] = percentile(waits, 0.9)
        return Outcome(
            units=completed, sim_s=self.env.now,
            attempted=len(self.arrivals), failed=len(failures),
            failures=failures, sim=sim,
            digest=digest_of([states, self.env.now,
                              self.env.events_processed]))


# -- scale-heavy --------------------------------------------------------------


class ScaleHeavy:
    """Table 7 / Figure 5 heavy load: four staggered bursts of
    ResNet-50 jobs, mount cache off, every job streaming its dataset
    through the shared object-store link.

    The cluster, batches and job shape are ``ScaleTestConfig`` and
    ``BATCHES`` (Table 7 verbatim); the arrival loop is the harness's
    own because ``run_scale_test`` fixes the Guardian's retry budget at
    3, and a burst overloads NFS provisioning (30 % failures beyond ten
    in flight) often enough that on about four seeds in ten one
    Guardian exhausts it and its job FAILS.  A benchmark workload must
    not fail by design, so Guardians get 12 retries: the provisioning
    failures and redeploys still happen, no job is lost to them.
    """

    name = "scale-heavy"
    SCALE_PER_SECOND = 0.05
    GUARDIAN_RETRIES = 12

    def __init__(self, seed: int, seconds: float, spans: Spans,
                 load: str = "heavy"):
        with spans.span("import"):
            from repro.core import FfDLPlatform, JobManifest, PlatformConfig
            from repro.sim import Environment, RngRegistry
            from repro.workloads import BATCHES, ScaleTestConfig
        with spans.span("generate"):
            config = ScaleTestConfig(scale=self.SCALE_PER_SECOND * seconds)
            self.batches = []
            for batch in BATCHES:
                count = config.scaled(batch.jobs_heavy if load == "heavy"
                                      else batch.jobs_light)
                self.batches.append((batch, [JobManifest(
                    name=f"{batch.name}-{index}", user="scale-test",
                    framework="tensorflow", model="resnet50",
                    data_bucket="imagenet", result_bucket="scale-results",
                    learners=1, gpus_per_learner=1,
                    gpu_type=batch.gpu_type,
                    iterations=config.iterations,
                    batch_size=config.batch_size,
                    dataset_objects=config.dataset_objects,
                    dataset_object_bytes=config.dataset_object_bytes)
                    for index in range(count)]))
        with spans.span("build"):
            self.env = Environment()
            self.platform = FfDLPlatform(
                self.env, RngRegistry(seed), PlatformConfig(
                    gang_scheduling=True, mount_cache_bytes=0,
                    oss_bandwidth_bps=config.oss_bandwidth_bps
                    * config.scale,
                    guardian_backoff_limit=self.GUARDIAN_RETRIES))
            for nodes, gpu_type, gpus in (
                    (config.k80_nodes, "K80", 4),
                    (config.p100_nodes, "P100", 2),
                    (config.v100_nodes, "V100", 2)):
                self.platform.add_gpu_nodes(config.scaled(nodes),
                                            gpus_per_node=gpus,
                                            gpu_type=gpu_type)
            self.platform.admission.register("scale-test",
                                             gpu_quota=10 ** 6)
        self.job_ids: Dict[str, List[str]] = {}

    def run(self, spans: Spans) -> None:
        env, platform = self.env, self.platform

        def burst(batch, manifests):
            yield env.timeout(batch.start_s)
            ids = self.job_ids.setdefault(batch.name, [])
            for manifest in manifests:
                ids.append((yield platform.submit_job(manifest)))

        def drain():
            for ids in list(self.job_ids.values()):
                for job_id in ids:
                    yield platform.wait_for_terminal(job_id)

        with spans.span("run"):
            env.run_until_complete(env.all_of(
                [env.process(burst(batch, manifests), name="burst")
                 for batch, manifests in self.batches]))
        with spans.span("drain"):
            env.run_until_complete(env.process(drain(), name="drain"))

    def collect(self) -> Outcome:
        failures, runtimes, states = [], [], {}
        mean_runtime_s: Dict[str, float] = {}
        makespan_s = 0.0
        for batch, manifests in self.batches:
            batch_runtimes = []
            for job_id in self.job_ids.get(batch.name, []):
                job = self.platform.job(job_id)
                states[job_id] = job.status.current
                if job.status.current != "COMPLETED":
                    failures.append(f"{job_id} ({batch.name}): "
                                    f"{job.status.current}")
                    continue
                batch_runtimes.append(job.finished_at
                                      - training_started_at(job))
                makespan_s = max(makespan_s, job.finished_at)
            missing = len(manifests) - len(self.job_ids.get(batch.name, []))
            failures.extend([f"{batch.name}: job never acknowledged"]
                            * missing)
            runtimes.extend(batch_runtimes)
            if batch_runtimes:
                mean_runtime_s[batch.name] = \
                    sum(batch_runtimes) / len(batch_runtimes)
        jobs = sum(len(manifests) for _batch, manifests in self.batches)
        return Outcome(
            units=jobs - len(failures), sim_s=self.env.now,
            attempted=jobs, failed=len(failures), failures=failures,
            sim={"sim_makespan_s": makespan_s,
                 # DOWNLOADING -> finish, the Table 7 runtime.
                 "sim_job_run_p50_s": percentile(runtimes, 0.5)},
            digest=digest_of([states, self.env.now,
                              self.env.events_processed]),
            extras={"mean_runtime_s": mean_runtime_s,
                    "gpu_type": {batch.name: batch.gpu_type
                                 for batch, _manifests in self.batches}})


# -- chaos-suite --------------------------------------------------------------


class ChaosSuite:
    """The single-platform chaos scenarios, then the last one again
    under a perturbed tie-break with the race detector attached."""

    name = "chaos-suite"

    def __init__(self, seed: int, seconds: float, spans: Spans):
        with spans.span("import"):
            get_scenario = resolve("repro.chaos:get_scenario")
            self._run_scenario = resolve("repro.chaos:run_scenario",
                                         "repro.chaos.engine:run_scenario")
        with spans.span("generate"):
            self.seed = seed
            count = max(1, min(len(CHAOS_SCENARIOS), round(seconds / 2)))
            self.scenarios = [get_scenario(name)
                              for name in CHAOS_SCENARIOS[:count]]
            #: The perturbed rerun costs ~4 s; sizes below that skip it.
            self.with_races = seconds >= 4
        self.reports: list = []
        self.perturbed = None
        self.plain_last_s = self.perturbed_s = None

    def run(self, spans: Spans) -> None:
        with spans.span("run"):
            for scenario in self.scenarios:
                started = now()
                self.reports.append(
                    self._run_scenario(scenario, seed=self.seed))
                self.plain_last_s = now() - started
            if self.with_races:
                started = now()
                self.perturbed = self._run_scenario(
                    self.scenarios[-1], seed=self.seed, tiebreak_seed=1,
                    detect_races=True)
                self.perturbed_s = now() - started

    def _perturbation(self) -> dict:
        """Plain against perturbed ``everything-at-once``: recorded,
        printed and covered by the digest, but not an operation that
        can fail.  The two audit logs are byte-identical on seed 0 and
        on most seeds, not on all (see the README), and ``src`` is not
        this benchmark's to fix."""
        plain, perturbed = self.reports[-1], self.perturbed
        differing = [f"{ours} != {theirs}" for ours, theirs
                     in zip(plain.audit_lines, perturbed.audit_lines)
                     if ours != theirs]
        return {"audit_identical":
                plain.audit_lines == perturbed.audit_lines,
                "job_states_identical":
                plain.job_states == perturbed.job_states,
                "differing_lines": differing[:5]}

    def collect(self) -> Outcome:
        failures, recoveries = [], []
        attempted = units = 0
        sim_s = 0.0
        state = []
        reports = self.reports + ([self.perturbed] if self.perturbed else [])
        for report in reports:
            label = f"{report.scenario}/tiebreak={report.tiebreak_seed}"
            attempted += len(report.hypotheses) + len(report.recoveries) \
                + len(report.job_states)
            for hyp in report.hypotheses:
                if not hyp.ok:
                    failures.append(f"{label}: hypothesis {hyp.name!r} "
                                    f"({hyp.phase}): {hyp.detail}")
            for record in report.recoveries:
                if record.timed_out or record.duration_s is None:
                    failures.append(f"{label}: {record.kind} on "
                                    f"{record.target} never recovered")
                elif record.kind in CONTROL_PLANE_KINDS:
                    recoveries.append(record.duration_s)
            terminal = sum(state in TERMINAL_STATES
                           for state in report.job_states.values())
            if terminal != len(report.job_states):
                failures.append(f"{label}: {len(report.job_states) - terminal}"
                                f" job(s) not terminal")
            failures.extend(f"{label}: schedule race: {line}"
                            for line in report.race_lines)
            units += terminal
            sim_s += max(h.time for h in report.hypotheses)
            state.append([report.scenario, report.tiebreak_seed,
                          report.audit_lines, report.job_states])
        extras = {"reports": reports}
        if self.perturbed is not None:
            extras["race_overhead_ratio"] = \
                self.perturbed_s / self.plain_last_s
            extras["perturbation"] = self._perturbation()
        return Outcome(
            units=units, sim_s=sim_s, attempted=attempted,
            failed=len(failures), failures=failures,
            sim={"sim_recovery_max_s": max(recoveries, default=None)},
            digest=digest_of(state), extras=extras)


# -- fed-trace ----------------------------------------------------------------


class FedTrace:
    """``federation-trace-3k`` topology under a longer trace.

    Two choices keep every seed free of failed operations (a benchmark
    workload must not fail by design); both were found by running the
    issue's original shape, 1200 jobs over 2400 s with the blackout at
    t=180 s, on seeds other than 0:

    * The whole-cell blackout is moved to ``BLACKOUT_AT_S``.  At t=180 s
      about one seed in three double-executes an intent (seed 102: a
      cell-a job close to its end when the cell goes dark completes on
      recovery before the queued fence reaches it, after its migrated
      copy completed on cell-b).  An early blackout still kills,
      requeues and migrates every job dispatched to the cell, but none
      of them can be near completion.  The brownout is untouched.
    * Arrivals are spread over ``WINDOW_S_PER_JOB`` x jobs seconds.  At
      half that, with both zone-a cells unhealthy, the zone-b cells
      sometimes see more than ten NFS provisions in flight, 30 % of
      those fail, and about one seed in twenty-five loses a job to
      "guardian exhausted retries"; the engine offers no way to raise
      the retry budget.  40 of 40 seeds are clean at this density.
    """

    name = "fed-trace"
    JOBS_PER_SECOND = 140
    WINDOW_S_PER_JOB = 4.0
    BLACKOUT_AT_S = 20.0

    def __init__(self, seed: int, seconds: float, spans: Spans):
        with spans.span("import"):
            get_federation_scenario = resolve(
                "repro.chaos:get_federation_scenario")
            self._run = resolve("repro.chaos:run_federation_scenario")
        with spans.span("generate"):
            self.seed = seed
            jobs = max(10, round(self.JOBS_PER_SECOND * seconds))
            window_s = self.WINDOW_S_PER_JOB * jobs
            base = get_federation_scenario("federation-trace-3k")
            steps = tuple(
                dataclasses.replace(step, at_s=self.BLACKOUT_AT_S)
                if step.kind == "cell-blackout" else step
                for step in base.steps)
            self.scenario = dataclasses.replace(
                base, steps=steps, jobs=jobs, arrival_window_s=window_s,
                horizon_s=window_s + 3000.0, settle_s=2000.0,
                tenant_quota_gpus=4096)
        self.report = None

    def run(self, spans: Spans) -> None:
        with spans.span("run"):
            self.report = self._run(self.scenario, seed=self.seed)

    def collect(self) -> Outcome:
        report = self.report
        counters = report.counters
        failures = [f"hypothesis {hyp.name!r} ({hyp.phase}): {hyp.detail}"
                    for hyp in report.hypotheses if not hyp.ok]
        submitted = int(counters["intents-submitted"])
        completed = int(counters["fed-completed"])
        if completed != submitted:
            failures.append(f"{submitted - completed} of {submitted} "
                            f"intents not completed")
        doubles = int(counters.get("fed-double-executions", 0))
        if doubles:
            failures.append(f"{doubles} double-executed intent(s)")
        for record in report.recoveries:
            if record.timed_out or record.duration_s is None:
                failures.append(f"{record.kind} on {record.target} "
                                f"never recovered")
        recoveries = [r.duration_s for r in report.recoveries
                      if r.duration_s is not None]
        ended_s = max(h.time for h in report.hypotheses)
        return Outcome(
            units=completed, sim_s=ended_s,
            attempted=submitted + len(report.hypotheses)
            + len(report.recoveries),
            failed=len(failures), failures=failures,
            sim={"sim_makespan_s": ended_s,
                 "sim_recovery_max_s": max(recoveries, default=None)},
            digest=digest_of([report.audit_lines, report.job_states,
                              counters]),
            extras={"reports": [report]})


# -- sched-sweep --------------------------------------------------------------


class SchedSweep:
    """Single pods arriving on a bare 1000-node cluster: the workload
    where the scheduler and the kube API dominate and the FfDL core,
    etcd, mongo and raft are absent."""

    name = "sched-sweep"
    NODES = 1000
    PODS_PER_SECOND = 1500

    def __init__(self, seed: int, seconds: float, spans: Spans):
        with spans.span("import"):
            from repro.docker import Image
            from repro.kube import (
                Cluster,
                ContainerSpec,
                NodeCapacity,
                ObjectMeta,
                Pod,
                PodSpec,
                ResourceRequest,
            )
            from repro.sim import Environment, RngRegistry
        with spans.span("generate"):
            rng = RngRegistry(seed).stream("e2e:sched-sweep")
            count = max(1, round(self.PODS_PER_SECOND * seconds))
            self.plan = [(rng.uniform(0.02, 0.18), rng.uniform(20, 60),
                          rng.choice((1, 1, 1, 2, 4)))
                         for _ in range(count)]
        with spans.span("build"):
            self.env = Environment()
            self.cluster = Cluster(self.env, RngRegistry(seed))
            image = Image("bench", framework="none", size_bytes=1e6)
            self.cluster.push_image(image)
            self.cluster.add_nodes(self.NODES, NodeCapacity(
                cpus=32, memory_gb=256, gpus=4, gpu_type="K80"))
            self.cluster.api.subscribe("pods", self._on_pod)

        def make_pod(index, run_s, gpus):
            def workload(container):
                yield self.env.timeout(run_s)
                return 0
            return Pod(meta=ObjectMeta(name=f"sweep-{index}"),
                       spec=PodSpec(
                           containers=[ContainerSpec("c", image.reference,
                                                     workload=workload)],
                           resources=ResourceRequest(cpus=1, memory_gb=2,
                                                     gpus=gpus)))

        self._make_pod = make_pod
        self.waits: Dict[str, float] = {}
        self.succeeded: set = set()
        self.overallocated: List[str] = []

    def _on_pod(self, _verb, pod) -> None:
        if pod.scheduled_at is not None and pod.name not in self.waits:
            self.waits[pod.name] = pod.scheduled_at - pod.meta.creation_time
            if self.cluster.allocations[pod.node_name].free_gpus < 0:
                self.overallocated.append(pod.node_name)
        if pod.phase == "Succeeded":
            self.succeeded.add(pod.name)

    def run(self, spans: Spans) -> None:
        env = self.env

        def submit():
            for index, (gap_s, run_s, gpus) in enumerate(self.plan):
                yield env.timeout(gap_s)
                self.cluster.api.create_pod(
                    self._make_pod(index, run_s, gpus))

        with spans.span("run"):
            env.run_until_complete(env.process(submit(), name="submit"))
        with spans.span("drain"):
            env.run()

    def collect(self) -> Outcome:
        pods = len(self.plan)
        scheduler = self.cluster.scheduler
        failures = []
        if scheduler.pods_scheduled != pods:
            failures.append(f"pods_scheduled {scheduler.pods_scheduled} "
                            f"!= pods {pods}")
        if len(self.succeeded) != pods:
            failures.append(f"{pods - len(self.succeeded)} pod(s) did not "
                            f"run to Succeeded")
        if self.overallocated:
            failures.append(f"GPU over-allocation on "
                            f"{sorted(set(self.overallocated))[:5]}")
        if self.cluster.allocated_gpus() != 0:
            failures.append(f"{self.cluster.allocated_gpus()} GPUs still "
                            f"allocated after drain")
        waits = list(self.waits.values())
        sim = {"sim_makespan_s": self.env.now}
        if len(waits) >= 100:
            sim["sim_queue_wait_p50_s"] = percentile(waits, 0.5)
            sim["sim_queue_wait_p90_s"] = percentile(waits, 0.9)
        return Outcome(
            units=len(self.succeeded), sim_s=self.env.now,
            # One placement and one completion per pod, plus the two
            # allocation checks.
            attempted=2 * pods + 2, failed=len(failures),
            failures=failures, sim=sim,
            digest=digest_of([self.env.now, self.env.events_processed,
                              scheduler.pods_scheduled,
                              sorted(self.waits.items())[:50]]))


WORKLOADS = {cls.name: cls for cls in (ProdTrace, ScaleHeavy, ChaosSuite,
                                       FedTrace, SchedSweep)}
