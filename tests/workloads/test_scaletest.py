"""Tests for the scale-test workload (Table 7 / Figure 5), at tiny scale."""

import pytest

from repro.workloads import (
    BATCHES,
    ScaleTestConfig,
    degradation_percent,
    run_scale_test,
)

# Full iteration counts preserve the contention regime; only the cluster
# and job counts shrink.
TINY = ScaleTestConfig(scale=0.06)


def test_invalid_load_rejected():
    with pytest.raises(ValueError):
        run_scale_test("medium", TINY)


def test_batch_specs_match_table7():
    mix = {(b.name, b.jobs_light, b.jobs_heavy) for b in BATCHES}
    assert ("K80-batch1", 30, 300) in mix
    assert ("K80-batch2", 24, 240) in mix
    assert ("P100-batch3", 11, 110) in mix
    assert ("V100-batch4", 5, 50) in mix
    starts = [b.start_s for b in BATCHES]
    assert starts == sorted(starts)


def test_light_load_all_jobs_complete():
    result = run_scale_test("light", TINY, seed=0)
    assert result.failed_jobs == 0
    for batch in result.batches.values():
        assert batch.completed == batch.jobs


def test_runtime_ordering_by_gpu_generation():
    result = run_scale_test("light", TINY, seed=0)
    k80 = result.batches["K80-batch1"].mean_runtime_s
    p100 = result.batches["P100-batch3"].mean_runtime_s
    v100 = result.batches["V100-batch4"].mean_runtime_s
    assert v100 < p100 < k80


def test_heavy_load_degrades_fast_gpus_most():
    light = run_scale_test("light", TINY, seed=0)
    heavy = run_scale_test("heavy", TINY, seed=0)
    degradation = degradation_percent(light, heavy)
    assert degradation["V100-batch4"] > degradation["K80-batch1"]
    assert degradation["K80-batch1"] < 20.0
    assert degradation["V100-batch4"] > 10.0


def test_aggregate_throughput_positive_and_scaled():
    result = run_scale_test("heavy", TINY, seed=0)
    assert result.aggregate_images_per_s > 0
    assert result.total_jobs == sum(
        TINY.scaled(b.jobs_heavy) for b in BATCHES)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP correctness debt (3): at scale 0.5 one of 350 jobs is lost "
    "to 'guardian exhausted retries' on seeds 101 / 103 (NFS overload, "
    "backoff limit 3); the paper reports no lost jobs"))
def test_heavy_load_at_half_scale_loses_no_job():
    result = run_scale_test("heavy", ScaleTestConfig(scale=0.5), seed=101)
    assert result.failed_jobs == 0
