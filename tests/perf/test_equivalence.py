"""The fast paths must be observably invisible.

Every optimization behind :func:`repro.perf.flags.optimizations_enabled`
is run here twice — enabled, then with ``REPRO_PERF_DISABLE=1`` — over
the perf bench scenarios and two chaos scenarios.  Audit logs, end
states and post-run RNG stream positions must be byte-identical; only
the ops counters (watcher visits, predicate evaluations) may differ.

The flag is read at component construction time, so flipping the
environment variable between constructions inside one test process is
the supported way to build both variants.
"""

import pytest

from benchmarks.perf.scenarios import SCENARIOS
from repro.chaos import ChaosEngine, InjectionStep, Scenario
from repro.perf import DISABLE_ENV_VAR

ETCD_MONGO = Scenario(
    name="equiv-etcd-mongo",
    description="etcd leader kill + mongo failover under job churn",
    steps=(
        InjectionStep(at_s=30.0, kind="mongo-primary-kill",
                      duration_s=20.0),
        InjectionStep(at_s=60.0, kind="etcd-leader-kill",
                      duration_s=15.0),
    ),
    horizon_s=240.0,
    settle_s=120.0,
    jobs=2,
    job_interarrival_s=10.0,
    job_iterations=20,
)

NODE_FAILURE = Scenario(
    name="equiv-node-failure",
    description="node failure + network partition under job churn",
    steps=(
        InjectionStep(at_s=40.0, kind="node-crash", target="node-K80-0",
                      duration_s=30.0),
        InjectionStep(at_s=90.0, kind="etcd-partition",
                      duration_s=20.0),
    ),
    horizon_s=260.0,
    settle_s=120.0,
    jobs=2,
    job_interarrival_s=15.0,
    job_iterations=15,
)


def run_both(monkeypatch, build_and_run):
    """``build_and_run()`` once per mode; returns (optimized, baseline)."""
    monkeypatch.delenv(DISABLE_ENV_VAR, raising=False)
    optimized = build_and_run()
    monkeypatch.setenv(DISABLE_ENV_VAR, "1")
    baseline = build_and_run()
    return optimized, baseline


# -- bench scenarios --------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_bench_scenario_state_is_mode_independent(monkeypatch, name):
    func, smoke_kwargs, _full = SCENARIOS[name]
    optimized, baseline = run_both(
        monkeypatch, lambda: func(**smoke_kwargs))
    assert optimized["state"] == baseline["state"]
    assert optimized["params"] == baseline["params"]


@pytest.mark.parametrize("name,metric", [("etcd", "watcher_visits"),
                                         ("sched", "filter_evals")])
def test_fast_paths_cut_ops_at_least_3x(monkeypatch, name, metric):
    func, smoke_kwargs, _full = SCENARIOS[name]
    optimized, baseline = run_both(
        monkeypatch, lambda: func(**smoke_kwargs))
    assert baseline["ops"][metric] >= 3 * optimized["ops"][metric]


# -- chaos scenarios --------------------------------------------------------


@pytest.mark.parametrize("scenario", [ETCD_MONGO, NODE_FAILURE],
                         ids=lambda s: s.name)
def test_chaos_run_is_mode_independent(monkeypatch, scenario):
    def build_and_run():
        engine = ChaosEngine(scenario, seed=7)
        report = engine.run()
        # Post-run RNG positions: if any fast path consumed or skipped
        # a draw, the streams' next outputs diverge here.
        rng_probe = [engine.platform.rng.stream(name).random()
                     for name in ("scheduler", "chaos:arrivals",
                                  "learner-setup")]
        return report, rng_probe

    (report_opt, rng_opt), (report_base, rng_base) = run_both(
        monkeypatch, build_and_run)
    assert report_opt.audit_lines == report_base.audit_lines
    assert report_opt.end_state() == report_base.end_state()
    assert report_opt.counters == report_base.counters
    assert rng_opt == rng_base


@pytest.mark.parametrize("scenario", [ETCD_MONGO, NODE_FAILURE],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("tiebreak_seed", [977, 1301])
def test_chaos_equivalence_holds_under_perturbation(monkeypatch, scenario,
                                                    tiebreak_seed):
    """The exhaustive-default scheduler (plus owner index, score cache,
    node-indexed fanout) stays byte-identical to the
    reference implementations under perturbed same-instant tie-breaks —
    the --perturb property, applied across the mode boundary.  Any fast
    path that silently depended on heap pop order, listener scan order,
    or store scan order fails here."""
    def build_and_run():
        engine = ChaosEngine(scenario, seed=7,
                             tiebreak_seed=tiebreak_seed)
        report = engine.run()
        rng_probe = [engine.platform.rng.stream(name).random()
                     for name in ("scheduler", "chaos:arrivals",
                                  "learner-setup")]
        return report, rng_probe

    (report_opt, rng_opt), (report_base, rng_base) = run_both(
        monkeypatch, build_and_run)
    assert report_opt.audit_lines == report_base.audit_lines
    assert report_opt.end_state() == report_base.end_state()
    assert report_opt.counters == report_base.counters
    assert rng_opt == rng_base
