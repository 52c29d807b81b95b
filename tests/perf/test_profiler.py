"""Unit tests for the deterministic kernel profiler."""

from repro.perf import KernelProfiler, profile
from repro.sim import Environment, RngRegistry


def churn(env, rng, processes=5, steps=20):
    def worker(index):
        for _ in range(steps):
            yield env.timeout(rng.uniform(0.1, 1.0))

    for index in range(processes):
        env.process(worker(index), name=f"churn:{index}")


def test_no_profiler_attached_by_default():
    env = Environment()
    assert env._profiler is None


def test_profiler_counts_events_and_sites():
    env = Environment()
    profiler = profile(env)
    churn(env, RngRegistry(0).stream("x"))
    env.run()
    report = profiler.report()
    assert report["events_processed"] == report["events_scheduled"]
    assert report["events_processed"] >= 100
    assert report["event_types"].get("Timeout", 0) >= 100
    assert report["peak_heap"] >= 5
    # Processes group under their name family.
    assert "process:churn" in report["callback_sites"]
    assert report["callback_sites"]["process:churn"]["calls"] >= 100


def test_report_is_deterministic_across_runs():
    def one_run():
        env = Environment()
        profiler = profile(env)
        churn(env, RngRegistry(3).stream("x"))
        env.run()
        return profiler.report()

    assert one_run() == one_run()


def test_profiling_does_not_change_the_schedule():
    def end_time(with_profiler):
        env = Environment()
        if with_profiler:
            profile(env)
        churn(env, RngRegistry(5).stream("x"))
        env.run()
        return env.now, env.events_processed

    assert end_time(True) == end_time(False)


def test_profile_returns_existing_profiler():
    env = Environment()
    first = profile(env)
    assert profile(env) is first


def test_detach_stops_attribution():
    env = Environment()
    profiler = KernelProfiler(env)
    profiler.detach()
    assert env._profiler is None
    churn(env, RngRegistry(0).stream("x"), processes=1, steps=3)
    env.run()
    assert profiler.report()["event_types"] == {}
