"""The chaos engine's fault loop: one-shot and recurring steps.

Each test runs a platform with no churn under a few object-store
outages, the cheapest fault kind, and reads what fired from the engine's
fault log and the report's audit log.
"""

import pytest

from repro.chaos import ChaosEngine, InjectionStep, Scenario
from repro.chaos.engine import FaultEvent


def run_steps(*steps, horizon_s=1000.0, settle_s=0.0, seed=0):
    engine = ChaosEngine(Scenario(
        name="fault-loop", description="fault loop", steps=steps,
        horizon_s=horizon_s, settle_s=settle_s, jobs=0), seed=seed)
    report = engine.run()
    return engine, report


def outages(report):
    """(down, up) times of every object-store outage, in firing order."""
    downs, ups = [], []
    for line in report.audit_lines:
        time, text = line[2:].lstrip().split(" ", 1)
        if text.startswith("inject oss-outage"):
            downs.append(float(time))
        elif text.startswith("recover oss-outage"):
            ups.append(float(time))
    return list(zip(downs, ups))


def test_inject_once_fires_at_delay():
    engine, _report = run_steps(InjectionStep(at_s=12.0, kind="oss-outage"))
    assert engine.faults == [FaultEvent(12.0, "oss-outage", "oss-outage",
                                        0.0)]


def test_inject_once_recovery_after_duration():
    _engine, report = run_steps(InjectionStep(
        at_s=5.0, kind="oss-outage", duration_s=3.0))
    assert outages(report) == [(5.0, 8.0)]


def test_recurring_faults_accumulate_in_log():
    engine, _report = run_steps(InjectionStep(
        at_s=0.0, kind="oss-outage", mtbf_s=10.0))
    # Expect roughly 100 events over 1000s with MTBF 10s.
    assert 60 <= len(engine.faults) <= 150


def test_recurring_faults_deterministic_given_seed():
    def fired(seed):
        engine, _report = run_steps(InjectionStep(
            at_s=0.0, kind="oss-outage", mtbf_s=7.0),
            horizon_s=200.0, seed=seed)
        return [fault.time for fault in engine.faults]

    assert fired(4) == fired(4)
    assert fired(4) != fired(5)


def test_stop_halts_new_faults():
    # A recurring step stops at the horizon; the settle window after it
    # sees no new fault.
    engine, _report = run_steps(InjectionStep(
        at_s=0.0, kind="oss-outage", mtbf_s=5.0),
        horizon_s=100.0, settle_s=900.0)
    assert engine.faults
    assert all(fault.time < 100.0 for fault in engine.faults)


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        InjectionStep(at_s=0.0, kind="oss-outage", mtbf_s=0.0)
    with pytest.raises(ValueError):
        InjectionStep(at_s=0.0, kind="oss-outage", mtbf_s=1.0,
                      duration_s=-1.0)


def test_record_appends_detail():
    engine, report = run_steps(InjectionStep(
        at_s=7.0, kind="oss-brownout", duration_s=30.0, param=0.5))
    assert engine.faults == [FaultEvent(7.0, "oss-brownout",
                                        "oss-brownout", 30.0)]
    assert "t=     7.000 fault oss-brownout target=oss-brownout " \
        "duration=30.000" in report.audit_lines


def test_stop_cancels_pending_one_shot():
    # A one-shot step due after the run ends never fires.
    engine, _report = run_steps(InjectionStep(at_s=2000.0,
                                              kind="oss-outage"))
    assert engine.faults == []


def test_stop_cancels_pending_recurring_fault():
    # The first gap lands past the horizon: nothing fires, even in the
    # settle window.
    engine, _report = run_steps(InjectionStep(
        at_s=99.0, kind="oss-outage", mtbf_s=50_000.0),
        horizon_s=100.0, settle_s=900.0)
    assert engine.faults == []


def test_stop_lets_inflight_outage_recover():
    # An outage that began before the horizon still recovers after it:
    # a fault is never left half-applied.
    _engine, report = run_steps(InjectionStep(
        at_s=0.0, kind="oss-outage", duration_s=50.0, mtbf_s=10.0),
        horizon_s=100.0, settle_s=100.0)
    down, up = outages(report)[-1]
    assert down < 100.0 < up
    assert up - down == pytest.approx(50.0)
    assert report.passed


def test_deterministic_duration_yields_fixed_outages():
    _engine, report = run_steps(InjectionStep(
        at_s=0.0, kind="oss-outage", duration_s=3.0, mtbf_s=30.0),
        horizon_s=2000.0)
    fired = outages(report)
    assert len(fired) >= 3
    for down, up in fired:
        assert up - down == pytest.approx(3.0)
