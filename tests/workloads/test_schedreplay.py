"""Tests for the Figure 3b placement replayer."""

import pytest

from repro.analysis import PlacementReplayer, compare_policies
from repro.errors import KubeError
from repro.kube.resources import NodeGroup
from repro.sim import RngRegistry
from repro.workloads import ProductionTrace, TraceConfig, TraceJob

SMALL_NODES = (NodeGroup(2, 4, "K80"),)


def job(job_id, arrival, duration, learners=1, gpus=1, gpu_type="K80"):
    return TraceJob(job_id, arrival, duration, learners, gpus, gpu_type)


def test_unknown_policy_rejected():
    with pytest.raises(KubeError):
        PlacementReplayer("roundrobin")


def test_single_job_placed_immediately():
    replayer = PlacementReplayer("pack", SMALL_NODES)
    result = replayer.replay([job("a", 0.0, 100.0)], days=1)
    assert result.queue_times["a"] == 0.0
    assert result.total_delayed == 0


def test_job_waits_for_release():
    replayer = PlacementReplayer("pack", SMALL_NODES)
    jobs = [job("hog", 0.0, 2000.0, learners=2, gpus=4),
            job("late", 1.0, 100.0, learners=2, gpus=4)]
    result = replayer.replay(jobs, days=1)
    assert result.queue_times["late"] == pytest.approx(1999.0)
    assert result.total_delayed == 1  # >15 min


def test_pack_beats_spread_on_fragmentation():
    """The Section 3.4 example as a replay: small jobs then a 4-GPU job."""
    nodes = (NodeGroup(4, 4, "K80"),)
    jobs = [job(f"small-{i}", 0.0, 10_000.0) for i in range(4)]
    jobs.append(job("big", 10.0, 100.0, learners=1, gpus=4))
    for policy, expect_delay in (("spread", True), ("pack", False)):
        result = PlacementReplayer(policy, nodes).replay(list(jobs),
                                                         days=1)
        delayed = result.queue_times["big"] > 900
        assert delayed == expect_delay, policy


def test_gpu_type_respected():
    nodes = (NodeGroup(1, 4, "K80"), NodeGroup(1, 4, "V100"))
    replayer = PlacementReplayer("pack", nodes)
    result = replayer.replay(
        [job("v", 0.0, 50.0, gpu_type="V100"),
         job("k", 0.0, 50.0, gpu_type="K80")], days=1)
    assert result.total_delayed == 0


def test_learners_of_job_all_placed_or_none():
    nodes = (NodeGroup(1, 4, "K80"),)
    replayer = PlacementReplayer("pack", nodes)
    # 2 learners x 4 GPUs cannot fit on one 4-GPU node: queued forever.
    result = replayer.replay([job("big", 0.0, 10.0, learners=2, gpus=4)],
                             days=1)
    assert "big" not in result.queue_times
    assert result.total_delayed == 1


def test_compare_policies_on_trace_pack_wins():
    trace = ProductionTrace(RngRegistry(42), TraceConfig(days=7))
    jobs = trace.generate()
    results = compare_policies(jobs, 7)
    spread = results["spread"].total_delayed
    pack = results["pack"].total_delayed
    assert pack < spread


def test_percent_delayed_by_day_bounds():
    trace = ProductionTrace(RngRegistry(1), TraceConfig(days=5))
    jobs = trace.generate()
    result = PlacementReplayer("pack").replay(jobs, 5)
    for _day, pct in result.percent_delayed_by_day().items():
        assert 0.0 <= pct <= 100.0
