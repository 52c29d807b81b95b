"""The failure-study scenario over a short horizon, and the analyses the
paper files run on it."""

from dataclasses import replace

import pytest

from repro.analysis import (
    deletion_percent_by_day,
    failed_pods_by_reason,
    failed_pods_by_type,
    learner_deletion_percent_by_month,
    shares,
)
from repro.chaos import ChaosEngine, InjectionStep, get_scenario
from repro.workloads import SECONDS_PER_DAY

STUDY = get_scenario("fig6-table8-failures")


def study_run(jobs_per_day, seed, crash_mtbf_days=45.0):
    """One simulated day of the study: (engine, report)."""
    crashes = InjectionStep(at_s=0.0, kind="node-crash", duration_s=900.0,
                            mtbf_s=crash_mtbf_days * SECONDS_PER_DAY)
    scenario = replace(STUDY, horizon_s=SECONDS_PER_DAY,
                       interarrival_s=SECONDS_PER_DAY / jobs_per_day,
                       steps=(crashes,) + STUDY.steps[1:])
    engine = ChaosEngine(scenario, seed=seed)
    return engine, engine.run()


# One short, shared run (module-scoped for speed).
@pytest.fixture(scope="module")
def study():
    return study_run(400, seed=3, crash_mtbf_days=4.0)


def test_jobs_flow_through(study):
    engine, report = study
    assert report.passed, report.render(audit=False)
    assert report.counters["jobs-submitted"] > 200
    assert report.counters["jobs-completed"] > 0
    assert any(" cancelled " in line for line in report.audit_lines)


def test_node_crashes_recorded(study):
    engine, _report = study
    assert any(fault.kind == "node-crash" for fault in engine.faults)


def test_node_crashes_come_from_fault_injector_audit(study):
    # Every crash is a fault record, on a node, and recovers after its
    # outage.
    engine, report = study
    crashes = [fault for fault in engine.faults if fault.kind == "node-crash"]
    assert all(fault.target.startswith("node-K80-") for fault in crashes)
    times = [fault.time for fault in crashes]
    assert times == sorted(times)
    recovered = [record for record in report.recoveries
                 if record.kind == "node-crash"]
    assert len(recovered) == len(crashes)
    assert all(record.duration_s >= 900.0 for record in recovered)


def test_learners_dominate_scheduling_failures(study):
    engine, _report = study
    fractions = shares(failed_pods_by_type(
        engine.target.platform.cluster.api.event_log))
    assert fractions.get("learner", 0) > 0.5


def test_no_nodes_is_leading_reason(study):
    engine, _report = study
    fractions = shares(failed_pods_by_reason(
        engine.target.platform.cluster.api.event_log))
    leading = max(fractions, key=fractions.get)
    assert leading == "No nodes available"


def test_deletion_percentages_bounded(study):
    engine, _report = study
    by_day = deletion_percent_by_day(
        engine.target.platform.cluster.deletion_log, days=1)
    assert set(by_day) == {0}
    for pct in by_day.values():
        assert 0.0 <= pct <= 100.0


def test_learner_monthly_percentages(study):
    engine, _report = study
    monthly = learner_deletion_percent_by_month(
        engine.target.platform.cluster.deletion_log, days=1,
        days_per_month=1)
    assert set(monthly) == {0}
    assert 0.0 <= monthly[0] <= 100.0


def test_study_is_deterministic():
    (a, report_a), (b, report_b) = (study_run(100, seed=9)
                                    for _ in range(2))
    assert report_a.audit_lines == report_b.audit_lines
    assert failed_pods_by_reason(a.target.platform.cluster.api.event_log) \
        == failed_pods_by_reason(b.target.platform.cluster.api.event_log)
