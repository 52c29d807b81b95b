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
from typing import Dict, Iterable, List, Tuple

from repro.core.manifest import JobManifest
from repro.errors import SimulationError
from repro.sim.rng import RngRegistry
from repro.workloads.trace import (
    GPU_TYPE_MIX,
    SIZE_MIX,
    WEEKDAY_FACTORS,
    pick,
)

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


def trace_gpu_type_mix(gpu_types: Iterable[str]
                       ) -> Tuple[Tuple[str, float], ...]:
    """The production K80/V100 split restricted to ``gpu_types`` (a job
    demanding a type no cell offers would queue forever), renormalized
    to keep the relative weights."""
    available = set(gpu_types)
    mix = tuple((gpu_type, weight) for gpu_type, weight in GPU_TYPE_MIX
                if gpu_type in available)
    if not mix:
        raise SimulationError(
            f"no trace weights for cell GPU types {sorted(available)}")
    total = sum(weight for _, weight in mix)
    return tuple((gpu_type, weight / total) for gpu_type, weight in mix)


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


class FederationTrace:
    """Seeded generator; one named stream, schedule-independent.

    ``jobs`` arrivals land inside ``[0, arrival_window_s)``, of a type
    drawn from ``gpu_type_mix`` (through :func:`drawn_gpu_type`), each
    ``min_iterations`` to ``max_iterations`` long (length stands in for
    duration)."""

    def __init__(self, rng: RngRegistry, jobs: int, arrival_window_s: float,
                 gpu_type_mix: Tuple[Tuple[str, float], ...],
                 min_iterations: int, max_iterations: int):
        self.jobs = jobs
        self.arrival_window_s = arrival_window_s
        self.gpu_type_mix = gpu_type_mix
        self.min_iterations = min_iterations
        self.max_iterations = max_iterations
        self._rng = rng.stream("federation-trace")

    def _arrival(self, rng) -> float:
        """Inverse-CDF sample of the compressed weekday intensity."""
        total = sum(WEEKDAY_FACTORS)
        roll = rng.random() * total
        slice_s = self.arrival_window_s / len(WEEKDAY_FACTORS)
        for index, factor in enumerate(WEEKDAY_FACTORS):
            if roll < factor:
                return (index + roll / factor) * slice_s
            roll -= factor
        return self.arrival_window_s - 1e-6

    def generate(self) -> List[FederationTraceJob]:
        rng = self._rng
        jobs: List[FederationTraceJob] = []
        for index in range(1, self.jobs + 1):
            user, zone = pick(rng, tuple(((u, z), w) for u, z, w in TENANTS))
            learners, gpus = pick(rng, SIZE_MIX)
            gpu_type = drawn_gpu_type(gpus, pick(rng, self.gpu_type_mix))
            model, framework = pick(rng, MODEL_MIX)
            iterations = rng.randint(self.min_iterations,
                                     self.max_iterations)
            jobs.append(FederationTraceJob(
                trace_id=f"fedtrace-{index:05d}",
                arrival_s=self._arrival(rng),
                user=user, preferred_zone=zone,
                model=model, framework=framework,
                learners=learners, gpus_per_learner=gpus,
                gpu_type=gpu_type, iterations=iterations))
        jobs.sort(key=lambda job: (job.arrival_s, job.trace_id))
        return jobs
