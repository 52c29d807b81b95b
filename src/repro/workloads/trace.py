"""Synthetic production job-arrival trace (Figure 3a).

The paper collected "job arrival traces on a production cluster with 400
GPUs (180 K80s and 220 V100s) over a 60 day period", with 200-1400
arrivals per day and a visible weekly rhythm.  The traces were announced
for release but are not available, so this generator reproduces the
published arrival-by-day shape from a seeded stochastic model; every
parameter is explicit below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.sim.rng import RngRegistry

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class TraceJob:
    """One job in the trace."""

    job_id: str
    arrival_s: float
    duration_s: float
    learners: int
    gpus_per_learner: int
    gpu_type: str

    @property
    def total_gpus(self) -> int:
        return self.learners * self.gpus_per_learner

    @property
    def arrival_day(self) -> int:
        return int(self.arrival_s // SECONDS_PER_DAY)


#: Weekday multipliers, Monday-first (weekends are quiet).
WEEKDAY_FACTORS = (1.15, 1.2, 1.25, 1.2, 1.1, 0.55, 0.45)
#: Job-size mix: (learners, gpus_per_learner) -> probability.
SIZE_MIX = (
    ((1, 1), 0.48),
    ((1, 2), 0.17),
    ((1, 4), 0.12),
    ((2, 1), 0.08),
    ((2, 2), 0.06),
    ((2, 4), 0.04),
    ((4, 1), 0.03),
    ((4, 2), 0.02),
)
#: GPU-type mix on the production cluster (180 K80 / 220 V100).
GPU_TYPE_MIX = (("K80", 0.45), ("V100", 0.55))
#: Lognormal job duration parameters (median ~3h, heavy tail), sized so
#: the 400-GPU cluster runs at ~80% average offered load with weekday
#: peaks near saturation — the regime in which the paper's Figure 3b
#: queueing percentages (2-20% of jobs delayed >15 min) arise.
DURATION_MU = math.log(7_800.0)
DURATION_SIGMA = 1.15
MAX_DURATION_S = 2 * SECONDS_PER_DAY


@dataclass
class TraceConfig:
    """Knobs of the synthetic production trace."""

    days: int = 60
    #: Mean arrivals per day mid-trace; modulated by trend and weekday.
    base_jobs_per_day: float = 650.0
    #: Linear growth of demand over the trace (the service was ramping).
    trend_per_day: float = 4.0


class ProductionTrace:
    """Seeded generator for the 60-day arrival trace."""

    def __init__(self, rng: RngRegistry,
                 config: TraceConfig | None = None):
        self.config = config or TraceConfig()
        self._rng = rng.stream("production-trace")

    def expected_arrivals(self, day: int) -> float:
        cfg = self.config
        weekday = WEEKDAY_FACTORS[day % 7]
        trend = cfg.base_jobs_per_day + cfg.trend_per_day * (
            day - cfg.days / 2)
        return max(50.0, trend * weekday)

    def generate(self) -> List[TraceJob]:
        cfg = self.config
        rng = self._rng
        jobs: List[TraceJob] = []
        counter = 0
        for day in range(cfg.days):
            count = max(0, int(rng.gauss(self.expected_arrivals(day),
                                         self.expected_arrivals(day)
                                         * 0.08)))
            for _ in range(count):
                counter += 1
                arrival = day * SECONDS_PER_DAY + \
                    rng.random() * SECONDS_PER_DAY
                duration = min(MAX_DURATION_S,
                               rng.lognormvariate(DURATION_MU,
                                                  DURATION_SIGMA))
                size = self._pick(rng, SIZE_MIX)
                gpu_type = self._pick(rng, GPU_TYPE_MIX)
                jobs.append(TraceJob(
                    job_id=f"trace-{counter:06d}",
                    arrival_s=arrival, duration_s=duration,
                    learners=size[0], gpus_per_learner=size[1],
                    gpu_type=gpu_type))
        jobs.sort(key=lambda j: j.arrival_s)
        return jobs

    @staticmethod
    def _pick(rng, mix):
        roll = rng.random()
        acc = 0.0
        for value, probability in mix:
            acc += probability
            if roll <= acc:
                return value
        return mix[-1][0]


def arrivals_by_day(jobs: List[TraceJob], days: int) -> Dict[int, int]:
    counts = {day: 0 for day in range(days)}
    for job in jobs:
        if job.arrival_day < days:
            counts[job.arrival_day] += 1
    return counts
