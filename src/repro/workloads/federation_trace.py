"""Paper-shaped arrival trace scaled for the multi-cell federation.

The production trace (:mod:`repro.workloads.trace`) models 60 days of
arrivals against one 400-GPU cluster.  Federation scenarios need the
same *shape* — weekday rhythm, heavy-tailed size mix, K80/V100 split —
compressed into a simulated hour and scaled up to thousands of GPUs
across cells, with per-job tenants and zone affinities so quota
accounting and locality-aware selection have something to bite on.

Compression maps the seven weekday intensity factors onto seven equal
slices of the arrival window (a week becomes an hour), and job length
becomes an iteration count instead of a wall-clock duration: the
simulated performance model turns iterations into time per GPU type,
which preserves the paper's K80-vs-V100 throughput gap instead of
fixing runtimes by fiat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.manifest import JobManifest
from repro.sim.rng import RngRegistry
from repro.workloads.trace import SIZE_MIX, WEEKDAY_FACTORS

#: (user, preferred_zone, weight) — tenants with a home zone.
TENANTS = (
    ("vision-team", "zone-a", 0.35),
    ("speech-team", "zone-b", 0.30),
    ("ai-research", "zone-a", 0.25),
    ("hackday", "zone-b", 0.10),
)
MODEL_MIX = (
    (("resnet50", "tensorflow"), 0.5),
    (("vgg16", "tensorflow"), 0.3),
    (("inceptionv3", "tensorflow"), 0.2),
)


def drawn_gpu_type(gpus_per_learner: int, gpu_type: str) -> str:
    """The GPU type a draw runs on: 4-GPU learners only have a K80
    t-shirt size (Table 5), so a >2-GPU V100 draw becomes K80."""
    if gpus_per_learner > 2 and gpu_type == "V100":
        return "K80"
    return gpu_type


def drawn_shapes(gpu_type_mix) -> Dict[str, Tuple[Tuple[int, int], ...]]:
    """Every ``(learners, gpus_per_learner)`` shape a trace over
    ``gpu_type_mix`` can draw, keyed by the GPU type it runs on."""
    shapes: Dict[str, Dict[Tuple[int, int], None]] = {}
    for gpu_type, _weight in gpu_type_mix:
        for (learners, gpus), _probability in SIZE_MIX:
            shapes.setdefault(drawn_gpu_type(gpus, gpu_type), {})[
                (learners, gpus)] = None
    return {gpu_type: tuple(found) for gpu_type, found in shapes.items()}


@dataclass(frozen=True)
class FederationTraceJob:
    """One arrival in the federated trace."""

    trace_id: str
    arrival_s: float
    user: str
    preferred_zone: str
    model: str
    framework: str
    learners: int
    gpus_per_learner: int
    gpu_type: str
    iterations: int

    @property
    def total_gpus(self) -> int:
        return self.learners * self.gpus_per_learner

    def to_manifest(self) -> JobManifest:
        return JobManifest(
            name=self.trace_id, user=self.user, framework=self.framework,
            model=self.model, data_bucket=f"data-{self.user}",
            result_bucket=f"results-{self.user}",
            learners=self.learners,
            gpus_per_learner=self.gpus_per_learner,
            gpu_type=self.gpu_type, iterations=self.iterations,
            dataset_objects=2, dataset_object_bytes=32e6)


@dataclass
class FederationTraceConfig:
    """Knobs of the compressed federated trace."""

    jobs: int = 48
    #: Arrivals land inside [0, arrival_window_s).
    arrival_window_s: float = 420.0
    #: K80/V100 split of the production cluster (a draw's type goes
    #: through drawn_gpu_type()).
    gpu_type_mix: Tuple[Tuple[str, float], ...] = (
        ("K80", 0.45), ("V100", 0.55))
    #: Uniform iteration range (length stands in for duration).
    min_iterations: int = 80
    max_iterations: int = 240


class FederationTrace:
    """Seeded generator; one named stream, schedule-independent."""

    def __init__(self, rng: RngRegistry,
                 config: FederationTraceConfig | None = None):
        self.config = config or FederationTraceConfig()
        self._rng = rng.stream("federation-trace")

    def _arrival(self, rng) -> float:
        """Inverse-CDF sample of the compressed weekday intensity."""
        cfg = self.config
        total = sum(WEEKDAY_FACTORS)
        roll = rng.random() * total
        slice_s = cfg.arrival_window_s / len(WEEKDAY_FACTORS)
        for index, factor in enumerate(WEEKDAY_FACTORS):
            if roll < factor:
                return (index + roll / factor) * slice_s
            roll -= factor
        return cfg.arrival_window_s - 1e-6

    @staticmethod
    def _pick(rng, mix):
        roll = rng.random()
        acc = 0.0
        for value, probability in mix:
            acc += probability
            if roll <= acc:
                return value
        return mix[-1][0]

    def generate(self) -> List[FederationTraceJob]:
        cfg = self.config
        rng = self._rng
        jobs: List[FederationTraceJob] = []
        for index in range(1, cfg.jobs + 1):
            user, zone = self._pick(
                rng, tuple(((u, z), w) for u, z, w in TENANTS))
            learners, gpus = self._pick(rng, SIZE_MIX)
            gpu_type = drawn_gpu_type(gpus,
                                      self._pick(rng, cfg.gpu_type_mix))
            model, framework = self._pick(rng, MODEL_MIX)
            iterations = rng.randint(cfg.min_iterations,
                                     cfg.max_iterations)
            jobs.append(FederationTraceJob(
                trace_id=f"fedtrace-{index:05d}",
                arrival_s=self._arrival(rng),
                user=user, preferred_zone=zone,
                model=model, framework=framework,
                learners=learners, gpus_per_learner=gpus,
                gpu_type=gpu_type, iterations=iterations))
        jobs.sort(key=lambda job: (job.arrival_s, job.trace_id))
        return jobs
