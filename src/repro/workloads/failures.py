"""Long-horizon failure study (Figures 6, 7, 8 and Table 8).

Runs the full FfDL platform for days-to-months of simulated time under a
steady job churn with injected node failures and user cancellations, then
classifies the resulting Kubernetes scheduler events exactly the way the
paper's Section 5.6 analysis does:

* Figure 6 — distribution of FailedScheduling over pod types (unique pod
  names, as in the paper).
* Table 8 — distribution over failure reasons/log messages.
* Figure 7 — per-day percentage of pod deletions caused by node failures.
* Figure 8 — per-month percentage of learner pods deleted due to node
  failures.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.core import FfDLPlatform, JobManifest, PlatformConfig
from repro.core import statuses as st
from repro.kube.events import FAILED_SCHEDULING
from repro.kube.resources import NodeCapacity
from repro.sim.core import Environment
from repro.sim.failure import FaultEvent, FaultInjector, FaultSpec
from repro.sim.rng import RngRegistry
from repro.workloads.trace import SECONDS_PER_DAY

#: The study's cluster: deliberately CPU-tight nodes, so four 4-CPU
#: learners leave ~3.4 CPUs for helper/guardian pods and lhelper pods
#: also contend (Figure 6's ~15% lhelper share).
GPU_NODES = 20
GPUS_PER_NODE = 4
NODE_CPUS = 19.4
NODE_MEMORY_GB = 256.0
#: Mean outage of a crashed node (seconds).
NODE_OUTAGE_MEAN_S = 900.0
#: A cancelled job is cancelled within this long of its submission.
CANCELLATION_DELAY_S = 120.0


@dataclass
class FailureStudyConfig:
    days: int = 10
    #: Arrival rate sized for ~80-90% average GPU load on the default
    #: cluster — the regime in which the production scheduler actually
    #: emitted its FailedScheduling mix (Table 8).
    jobs_per_day: float = 550.0
    #: Per-node crash MTBF (days).
    node_crash_mtbf_days: float = 45.0
    #: Probability a submitted job is cancelled while queued/deploying.
    cancellation_probability: float = 0.12
    #: Rare scheduler races (Table 8's Timeout / Assume rows).
    timeout_race_probability: float = 0.002
    assume_race_probability: float = 0.002
    #: Job shape.
    mean_iterations: int = 6500
    seed: int = 0


@dataclass
class FailureStudyResult:
    config: FailureStudyConfig
    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_cancelled: int = 0
    node_crashes: int = 0
    #: FailedScheduling events: (time, pod_name, pod_type, reason).
    failed_scheduling: List[Tuple[float, str, str, str]] = \
        field(default_factory=list)
    #: Pod deletions: (time, pod_name, pod_type, cause).
    deletions: List[Tuple[float, str, str, str]] = field(
        default_factory=list)
    learner_pods_created: int = 0
    #: The injector's audit log of every node crash (time, target, outage).
    fault_events: List[FaultEvent] = field(default_factory=list)

    # -- Figure 6 ----------------------------------------------------------

    def failed_pods_by_type(self) -> Dict[str, int]:
        """Unique failed-scheduling pod names, grouped by pod type."""
        seen: Set[str] = set()
        by_type: Dict[str, int] = defaultdict(int)
        for _t, pod_name, pod_type, _reason in self.failed_scheduling:
            if pod_name in seen:
                continue
            seen.add(pod_name)
            by_type[pod_type or "other"] += 1
        return dict(by_type)

    def failed_type_fractions(self) -> Dict[str, float]:
        counts = self.failed_pods_by_type()
        total = sum(counts.values()) or 1
        return {k: v / total for k, v in counts.items()}

    # -- Table 8 ------------------------------------------------------------

    def failed_pods_by_reason(self) -> Dict[str, int]:
        """Unique (pod, reason) pairs grouped by reason."""
        seen: Set[Tuple[str, str]] = set()
        by_reason: Dict[str, int] = defaultdict(int)
        for _t, pod_name, _type, reason in self.failed_scheduling:
            key = (pod_name, reason)
            if key in seen:
                continue
            seen.add(key)
            by_reason[reason] += 1
        return dict(by_reason)

    def reason_fractions(self) -> Dict[str, float]:
        counts = self.failed_pods_by_reason()
        total = sum(counts.values()) or 1
        return {k: v / total for k, v in counts.items()}

    # -- Figures 7 and 8 -------------------------------------------------------

    def deletion_percent_by_day(self) -> Dict[int, float]:
        total: Dict[int, int] = defaultdict(int)
        node_failure: Dict[int, int] = defaultdict(int)
        for time, _name, _type, cause in self.deletions:
            day = int(time // SECONDS_PER_DAY)
            total[day] += 1
            if cause == "node-failure":
                node_failure[day] += 1
        return {day: 100.0 * node_failure.get(day, 0) / total[day]
                for day in range(self.config.days) if total.get(day)}

    def learner_deletion_percent_by_month(
            self, days_per_month: int) -> Dict[int, float]:
        learner_total: Dict[int, int] = defaultdict(int)
        learner_node_failure: Dict[int, int] = defaultdict(int)
        for time, _name, pod_type, cause in self.deletions:
            if pod_type != "learner":
                continue
            month = int(time // (days_per_month * SECONDS_PER_DAY))
            learner_total[month] += 1
            if cause == "node-failure":
                learner_node_failure[month] += 1
        months = self.config.days // days_per_month
        return {m: (100.0 * learner_node_failure.get(m, 0) /
                    learner_total[m]) if learner_total.get(m) else 0.0
                for m in range(months)}


def run_failure_study(config: FailureStudyConfig) -> FailureStudyResult:
    """Run the study; see module docstring."""
    env = Environment()
    rng = RngRegistry(config.seed)
    platform_config = PlatformConfig(
        gang_scheduling=True,
        node_detection_latency_s=40.0,
        pod_eviction_timeout_s=60.0)
    platform = FfDLPlatform(env, rng, platform_config)
    # Production-like deletion/observation timing: Kubernetes' 30s
    # termination grace and a scheduler informer that lags seconds under
    # load — the regime in which Table 8's deletion-race mix arises.
    platform.cluster.deletion_grace_s = 30.0
    platform.cluster.scheduler.config.informer_staleness_s = 3.0
    platform.cluster.scheduler.config.timeout_race_probability = \
        config.timeout_race_probability
    platform.cluster.scheduler.config.assume_race_probability = \
        config.assume_race_probability
    platform.cluster.add_nodes(
        GPU_NODES,
        NodeCapacity(cpus=NODE_CPUS, memory_gb=NODE_MEMORY_GB,
                     gpus=GPUS_PER_NODE, gpu_type="K80"))
    platform.admission.register("study", gpu_quota=10**6)
    result = FailureStudyResult(config=config)
    stream = rng.stream("failure-study")

    # -- node fault injection --------------------------------------------------
    # Crashes run through the shared FaultInjector so every occurrence
    # lands in its audit log (and each node draws from its own stream,
    # decoupling the crash schedule from the job-churn draws below).
    injector = FaultInjector(env, rng)
    crash_spec = FaultSpec(
        kind="node-crash",
        mtbf_s=config.node_crash_mtbf_days * SECONDS_PER_DAY,
        duration_s=NODE_OUTAGE_MEAN_S,
        # A crashed node stays down at least as long as detection+eviction.
        min_duration_s=120.0)

    def fail_node(event: FaultEvent) -> None:
        result.node_crashes += 1
        platform.cluster.fail_node(event.target)

    def recover_node(event: FaultEvent) -> None:
        platform.cluster.recover_node(event.target)

    for node_name in list(platform.cluster.kubelets):
        injector.inject_recurring(crash_spec, node_name,
                                  on_fault=fail_node,
                                  on_recover=recover_node)

    # -- job churn ------------------------------------------------------------------
    size_mix = [((1, 1), 0.62), ((1, 2), 0.18), ((2, 1), 0.12),
                ((2, 2), 0.08)]

    def pick_size():
        roll = stream.random()
        acc = 0.0
        for value, p in size_mix:
            acc += p
            if roll <= acc:
                return value
        return (1, 1)

    def submit_and_maybe_cancel(index: int):
        learners, gpus = pick_size()
        iterations = max(100, int(stream.expovariate(
            1.0 / config.mean_iterations)))
        manifest = JobManifest(
            name=f"churn-{index}", user="study",
            framework="tensorflow", model="resnet50",
            data_bucket="churn-data", result_bucket="churn-results",
            learners=learners, gpus_per_learner=gpus, gpu_type="K80",
            iterations=iterations, dataset_objects=4,
            dataset_object_bytes=32e6)
        job_id = yield platform.submit_job(manifest)
        result.jobs_submitted += 1
        if stream.random() < config.cancellation_probability:
            yield env.timeout(stream.random() * CANCELLATION_DELAY_S)
            job = platform.job(job_id)
            if not job.status.is_terminal:
                platform.preempt_job(job_id, reason="user cancelled")
                result.jobs_cancelled += 1

    def arrivals():
        index = 0
        horizon = config.days * SECONDS_PER_DAY
        rate = config.jobs_per_day / SECONDS_PER_DAY
        while env.now < horizon:
            yield env.timeout(stream.expovariate(rate))
            if env.now >= horizon:
                break
            index += 1
            env.process(submit_and_maybe_cancel(index),
                        name=f"submit:churn-{index}")

    env.process(arrivals(), name="arrivals")
    env.run(until=config.days * SECONDS_PER_DAY + 4 * 3600.0)

    # -- harvest ---------------------------------------------------------------------
    for event in platform.cluster.api.event_log.of_kind(FAILED_SCHEDULING):
        result.failed_scheduling.append(
            (event.time, event.object_name, event.pod_type or "other",
             event.reason))
    result.deletions = list(platform.cluster.deletion_log)
    result.learner_pods_created = sum(
        1 for e in platform.cluster.api.event_log.events
        if e.kind == "Started" and e.pod_type == "learner")
    result.jobs_completed = sum(
        1 for job in platform.jobs.values()
        if job.status.current == st.COMPLETED)
    result.fault_events = injector.events_of_kind("node-crash")
    return result
