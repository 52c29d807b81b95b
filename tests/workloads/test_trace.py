"""Tests for the production trace generator (Figure 3a shape)."""


from repro.sim import RngRegistry
from repro.workloads import ProductionTrace, TraceConfig, arrivals_by_day
from repro.workloads.federation_trace import FederationTrace, drawn_shapes
from repro.workloads.trace import MAX_DURATION_S


def make_trace(days=14, seed=0, **kwargs):
    return ProductionTrace(RngRegistry(seed),
                           TraceConfig(days=days, **kwargs))


def test_deterministic_given_seed():
    a = make_trace(seed=5).generate()
    b = make_trace(seed=5).generate()
    assert [(j.arrival_s, j.duration_s) for j in a] == \
        [(j.arrival_s, j.duration_s) for j in b]


def test_different_seeds_differ():
    a = make_trace(seed=1).generate()
    b = make_trace(seed=2).generate()
    assert [(j.arrival_s) for j in a] != [(j.arrival_s) for j in b]


def test_arrivals_sorted():
    jobs = make_trace().generate()
    times = [j.arrival_s for j in jobs]
    assert times == sorted(times)


def test_daily_counts_within_paper_range():
    """Figure 3a: 200-1400 jobs arriving per day."""
    jobs = make_trace(days=28).generate()
    counts = arrivals_by_day(jobs, 28)
    assert all(200 <= c <= 1400 for c in counts.values()), counts


def test_weekend_dip():
    jobs = make_trace(days=28).generate()
    counts = arrivals_by_day(jobs, 28)
    weekday = [counts[d] for d in range(28) if d % 7 < 5]
    weekend = [counts[d] for d in range(28) if d % 7 >= 5]
    assert sum(weekend) / len(weekend) < 0.7 * sum(weekday) / len(weekday)


def test_demand_trend_grows():
    trace = make_trace(days=60)
    # Compare identical weekdays so the weekly factor cancels out.
    assert trace.expected_arrivals(56) > trace.expected_arrivals(0)
    assert trace.expected_arrivals(58) > trace.expected_arrivals(2)


def test_job_fields_sane():
    for job in make_trace(days=3).generate():
        assert job.duration_s > 0
        assert job.learners in (1, 2, 4)
        assert job.gpus_per_learner in (1, 2, 4)
        assert job.gpu_type in ("K80", "V100")
        assert job.total_gpus == job.learners * job.gpus_per_learner


def test_durations_capped():
    jobs = make_trace(days=5).generate()
    assert all(j.duration_s <= MAX_DURATION_S for j in jobs)


def test_size_mix_roughly_respected():
    jobs = make_trace(days=28).generate()
    single = sum(1 for j in jobs
                 if (j.learners, j.gpus_per_learner) == (1, 1))
    assert 0.40 < single / len(jobs) < 0.56


def test_federation_trace_draws_only_the_shapes_drawn_shapes_lists():
    """MAN003 checks a federation against ``drawn_shapes``, so it must
    list exactly the (GPU type, shape) pairs the generator draws."""
    for mix in ((("K80", 0.45), ("V100", 0.55)), (("V100", 1.0),)):
        trace = FederationTrace(RngRegistry(0), jobs=400,
                                arrival_window_s=420.0, gpu_type_mix=mix,
                                min_iterations=80, max_iterations=240)
        shapes = drawn_shapes(mix)
        drawn = {(job.gpu_type, (job.learners, job.gpus_per_learner))
                 for job in trace.generate()}
        assert drawn == {(gpu_type, shape)
                         for gpu_type, listed in shapes.items()
                         for shape in listed}
