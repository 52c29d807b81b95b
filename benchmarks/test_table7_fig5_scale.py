"""Table 7 + Figure 5 — the pre-production scale test.

Paper: a 680-GPU cluster under light load (70 concurrent ResNet-50/TF
ImageNet jobs) and heavy load (700 jobs), staggered in four batches.
Figure 5 compares mean end-to-end runtime per GPU-type batch: heavy load
degrades K80 jobs 6-8%, P100 ~24% and V100 ~51% — "by the time V100 jobs
are running, the load is at its peak, and hence the shared resources
(network and cloud object storage bandwidth) start impacting performance".

Reproduction runs at a configurable linear scale (default 0.1: 68 GPUs,
70 heavy jobs) which preserves every contention ratio.
"""

import os

from repro.analysis import print_table
from repro.workloads import (
    BATCHES,
    ScaleTestConfig,
    degradation_percent,
    run_scale_test,
)

from tests.golden import check

SCALE = float(os.environ.get("FFDL_SCALE", "0.1"))
CONFIG = ScaleTestConfig(scale=SCALE)
PAPER_RUNTIMES = {
    "V100-batch4": (2410, 3552), "P100-batch3": (3207, 3981),
    "K80-batch2": (4853, 5084), "K80-batch1": (4778, 5085),
}


def run_scale():
    light = run_scale_test("light", CONFIG, seed=0)
    heavy = run_scale_test("heavy", CONFIG, seed=0)

    mix_rows = [[b.name, CONFIG.scaled(b.jobs_light),
                 CONFIG.scaled(b.jobs_heavy),
                 f"t+{b.start_s / 60:.0f}min"] for b in BATCHES]
    print_table(["GPU-type-batch#", "jobs-LL", "jobs-HL", "start time"],
                mix_rows,
                title=f"Table 7: job mix at scale={SCALE} "
                      f"({int(680 * SCALE)} GPUs)")

    degradation = degradation_percent(light, heavy)
    runtime_rows = []
    for batch in BATCHES:
        name = batch.name
        paper_ll, paper_hl = PAPER_RUNTIMES[name]
        runtime_rows.append([
            name,
            f"{light.batches[name].mean_runtime_s:.0f}s",
            f"{heavy.batches[name].mean_runtime_s:.0f}s",
            f"{degradation[name]:+.1f}%",
            f"{paper_ll}s / {paper_hl}s "
            f"({100 * (paper_hl / paper_ll - 1):+.0f}%)",
        ])
    print_table(["batch", "light-load runtime", "heavy-load runtime",
                 "degradation", "paper LL/HL"],
                runtime_rows, title="Figure 5: E2E runtime by GPU type")
    print(f"\nheavy-load aggregate: "
          f"{heavy.aggregate_images_per_s:.0f} images/s, "
          f"{heavy.aggregate_iterations_per_s:.0f} iterations/s "
          f"(paper at full scale: ~54000 images/s, ~837 iterations/s); "
          f"failed jobs: {heavy.failed_jobs}")
    return light, heavy, degradation


def test_table7_fig5_scale_test():
    light, heavy, degradation = run_scale()
    # Every job completes under both loads (the paper's 12 stuck jobs were
    # later traced to cordoned faulty nodes, not FfDL).
    assert light.failed_jobs == 0
    assert heavy.failed_jobs == 0
    # Light-load runtimes order by GPU generation.
    assert light.batches["V100-batch4"].mean_runtime_s < \
        light.batches["P100-batch3"].mean_runtime_s < \
        light.batches["K80-batch1"].mean_runtime_s
    # Figure 5 headline: degradation grows with GPU generation.
    assert degradation["K80-batch1"] < degradation["P100-batch3"] < \
        degradation["V100-batch4"]
    # Rough magnitudes: K80 mildly affected, V100 hit hard.
    assert degradation["K80-batch1"] < 12.0
    assert 10.0 < degradation["P100-batch3"] < 45.0
    assert 25.0 < degradation["V100-batch4"] < 90.0
    # Aggregate throughput scales with the configured fraction of 54k.
    assert heavy.aggregate_images_per_s > 0.4 * 54_000 * SCALE
    check(f"paper/table7-fig5-scale{SCALE:g}", {
        "jobs": {b.name: {"light": CONFIG.scaled(b.jobs_light),
                          "heavy": CONFIG.scaled(b.jobs_heavy)}
                 for b in BATCHES},
        "mean_runtime_s": {
            load: {name: batch.mean_runtime_s
                   for name, batch in run.batches.items()}
            for load, run in (("light", light), ("heavy", heavy))},
        "degradation_pct": degradation,
        "heavy": {"images_per_s": heavy.aggregate_images_per_s,
                  "iterations_per_s": heavy.aggregate_iterations_per_s},
        "failed_jobs": {"light": light.failed_jobs,
                        "heavy": heavy.failed_jobs}})
