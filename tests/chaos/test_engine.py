"""Tests for the deterministic chaos engine and its scenarios."""

import dataclasses
import itertools
import math
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chaos import (
    ChaosEngine,
    InjectionStep,
    JobShape,
    SCENARIOS,
    Scenario,
    get_scenario,
)
from repro.chaos.cli import main
from repro.chaos.engine import PlatformTarget
from repro.errors import SimulationError

#: A fast scenario for unit tests: two jobs, one Mongo failover and one
#: etcd leader kill inside a short horizon.
TINY = Scenario(
    name="tiny",
    description="unit-test scenario",
    steps=(
        InjectionStep(at_s=30.0, kind="mongo-primary-kill",
                      duration_s=20.0),
        InjectionStep(at_s=60.0, kind="etcd-leader-kill",
                      duration_s=15.0),
    ),
    horizon_s=240.0,
    settle_s=120.0,
    jobs=2,
    interarrival_s=10.0,
    iterations=20,
)


def run_tiny(seed=0):
    return ChaosEngine(TINY, seed=seed).run()


# -- scenario data ---------------------------------------------------------


def test_injection_step_rejects_unknown_kind():
    with pytest.raises(ValueError):
        InjectionStep(at_s=1.0, kind="meteor-strike")


def test_injection_step_rejects_negative_times():
    with pytest.raises(ValueError):
        InjectionStep(at_s=-1.0, kind="oss-outage")
    with pytest.raises(ValueError):
        InjectionStep(at_s=1.0, kind="oss-outage", duration_s=-1.0)


@pytest.mark.parametrize("values", [
    {"at_s": math.nan}, {"at_s": math.inf}, {"duration_s": math.nan},
    {"duration_s": math.inf}, {"param": -0.5},
    {"kind": "oss-brownout", "param": 2.0}, {"mtbf_s": 0.0},
    {"mtbf_s": -60.0}, {"mtbf_s": math.inf}])
def test_injection_step_rejects_values_no_run_can_mean(values):
    with pytest.raises(ValueError):
        InjectionStep(**{"at_s": 1.0, "kind": "oss-outage", **values})


def test_get_scenario_resolves_and_rejects():
    assert get_scenario("everything-at-once").name == "everything-at-once"
    with pytest.raises(KeyError):
        get_scenario("no-such-scenario")


def test_named_scenarios_are_consistent():
    expected = {"etcd-leader-kill", "mongo-failover-under-churn",
                "objectstore-brownout", "rolling-node-crashes",
                "everything-at-once", "fig6-table8-failures",
                "fig7-fig8-node-failures", "federation-cell-outage",
                "federation-brownout-migration", "federation-trace-3k"}
    assert set(SCENARIOS) == expected
    for name, scenario in SCENARIOS.items():
        assert scenario.name == name
        assert scenario.steps
    # The combined scenario exercises every fault kind of a platform
    # but Table 8's scheduler races, which the failure study injects.
    combined = {step.kind for step in
                SCENARIOS["everything-at-once"].steps}
    races = {step.kind for step in
             SCENARIOS["fig6-table8-failures"].steps} - {"node-crash"}
    assert combined | races == set(PlatformTarget.FAULT_KINDS)
    assert not combined & races


# -- engine runs -----------------------------------------------------------


def test_tiny_scenario_passes_all_hypotheses():
    report = run_tiny()
    assert report.passed
    phases = {h.phase for h in report.hypotheses}
    assert phases == {"steady-state:before", "steady-state:after"}
    assert report.counters["jobs-submitted"] == 2
    assert report.counters["writes-flushed"] == \
        report.counters["writes-enqueued"]
    assert report.counters["write-errors"] == 0
    assert report.counters["faults-injected"] == 2


def test_tiny_scenario_records_recoveries():
    report = run_tiny()
    kinds = [rec.kind for rec in report.recoveries]
    assert sorted(kinds) == ["etcd-leader-kill", "mongo-primary-kill"]
    assert all(not rec.timed_out for rec in report.recoveries)
    assert all(rec.duration_s > 0 for rec in report.recoveries)


def test_audit_log_merges_injector_and_engine_events():
    report = run_tiny()
    assert any("fault mongo-primary-kill" in line
               for line in report.audit_lines)
    assert any("inject etcd-leader-kill" in line
               for line in report.audit_lines)
    assert any("hypothesis" in line for line in report.audit_lines)
    assert any("submitted job-" in line for line in report.audit_lines)
    times = [float(line.split("=", 1)[1].split()[0])
             for line in report.audit_lines]
    assert times == sorted(times)


def test_same_seed_is_deterministic_different_seed_diverges():
    first = run_tiny(seed=3)
    second = run_tiny(seed=3)
    assert first.audit_lines == second.audit_lines
    other = run_tiny(seed=4)
    assert first.audit_lines != other.audit_lines


def test_fault_still_open_when_the_run_ends_is_reported_and_fails():
    # The brownout outlives horizon + settle (360 s): nobody ever sees
    # object storage recover, and the report has to say so.
    scenario = dataclasses.replace(TINY, steps=(
        InjectionStep(at_s=30.0, kind="mongo-primary-kill",
                      duration_s=20.0),
        InjectionStep(at_s=200.0, kind="oss-brownout", duration_s=500.0,
                      param=0.05)))
    report = ChaosEngine(scenario, seed=0).run()
    assert report.counters["faults-injected"] == 2
    assert [(rec.kind, rec.started_at, rec.duration_s, rec.timed_out)
            for rec in report.recoveries] == [
        ("mongo-primary-kill", 30.0, 4.0, False),
        ("oss-brownout", 200.0, None, True)]
    assert all(h.ok for h in report.hypotheses)
    assert not report.passed
    assert report.audit_lines[-1].endswith(
        "recovery-timeout oss-brownout target=-")
    assert "oss-brownout target=-: TIMED OUT" in report.render()


def test_cell_fault_still_open_when_the_run_ends_is_reported():
    base = get_scenario("federation-brownout-migration")
    scenario = dataclasses.replace(
        base, jobs=3, horizon_s=400.0, settle_s=200.0, steps=(
            InjectionStep(at_s=100.0, kind="cell-brownout",
                          target="cell-a", duration_s=2500.0),))
    report = ChaosEngine(scenario, seed=0).run()
    assert [(rec.kind, rec.target, rec.timed_out)
            for rec in report.recoveries] == [
        ("cell-brownout", "cell-a", True)]
    assert not report.passed
    assert any(line.endswith("recovery-timeout cell-brownout cell=cell-a")
               for line in report.audit_lines)


def test_target_binds_only_its_own_fault_kinds():
    scenario = dataclasses.replace(TINY, steps=(
        InjectionStep(at_s=30.0, kind="cell-blackout", target="cell-a"),))
    with pytest.raises(SimulationError, match="cannot inject"):
        ChaosEngine(scenario, seed=0).run()


def test_recovery_deadline_counts_from_the_outage_end():
    # A node down for 1000 s recovers at its scheduled end; the 900 s
    # watch deadline must not expire while the fault is still applied.
    scenario = dataclasses.replace(TINY, settle_s=1200.0, steps=(
        InjectionStep(at_s=30.0, kind="node-crash", target="node-K80-0",
                      duration_s=1000.0),))
    report = ChaosEngine(scenario, seed=0).run()
    assert [(rec.kind, rec.timed_out) for rec in report.recoveries] == [
        ("node-crash", False)]
    assert report.recoveries[0].duration_s == pytest.approx(1000.0,
                                                            abs=0.25)
    assert report.passed, report.render(audit=False)


def test_a_fault_that_raises_fails_the_run():
    # The topology has no node-K80-9: applying the crash raises, and the
    # run must not report PASS over a fault that never happened.
    scenario = dataclasses.replace(TINY, steps=(
        InjectionStep(at_s=30.0, kind="node-crash", target="node-K80-9",
                      duration_s=10.0),))
    with pytest.raises(SimulationError, match="fault-once:node-crash:"
                                              "node-K80-9 raised KeyError"):
        ChaosEngine(scenario, seed=0).run()


def test_stores_are_replicated_only_where_a_step_breaks_them():
    def stores(*kinds):
        scenario = dataclasses.replace(TINY, steps=tuple(
            InjectionStep(at_s=30.0, kind=kind) for kind in kinds))
        platform = ChaosEngine(scenario, seed=0).target.platform
        return (type(platform.etcd).__name__,
                type(platform.mongo).__name__)

    assert stores("oss-outage") == ("EtcdStore", "MongoDatabase")
    assert stores("etcd-partition") == ("ReplicatedEtcd", "MongoDatabase")
    assert stores("etcd-leader-kill", "mongo-primary-kill") == \
        ("ReplicatedEtcd", "MongoReplicaSet")


def test_an_untargeted_node_crash_recurs_on_every_node():
    scenario = dataclasses.replace(TINY, horizon_s=2000.0, settle_s=300.0,
                                   steps=(InjectionStep(
                                       at_s=0.0, kind="node-crash",
                                       duration_s=60.0, mtbf_s=400.0),))
    engine = ChaosEngine(scenario, seed=0)
    report = engine.run()
    nodes = {f"node-K80-{i}" for i in range(4)}
    assert {fault.target for fault in engine.faults} == nodes
    assert {name for name in engine.rng._streams
            if name.startswith("fault:")} == \
        {f"fault:node-crash:{node}" for node in nodes}
    assert all(fault.time < 2000.0 for fault in engine.faults)
    assert len(report.recoveries) == len(engine.faults)
    assert report.passed, report.render(audit=False)


def test_scheduler_race_kinds_fail_placement_attempts():
    scenario = dataclasses.replace(TINY, jobs=4, steps=(
        InjectionStep(at_s=0.0, kind="scheduler-timeout", mtbf_s=30.0),
        InjectionStep(at_s=0.0, kind="scheduler-assume", mtbf_s=30.0)))
    engine = ChaosEngine(scenario, seed=0)
    report = engine.run()
    reasons = {event.reason for event in engine.target.platform.cluster
               .api.event_log.failed_scheduling()}
    assert {"Timeout", "Assume Pod failed"} <= reasons
    # An injected race leaves nothing to recover or watch.
    assert report.recoveries == []
    assert report.passed, report.render(audit=False)


def test_the_churn_draws_shapes_and_cancellations_until_the_horizon():
    scenario = dataclasses.replace(
        TINY, steps=(), jobs=1000, interarrival_s=4.0, iterations=40,
        draw_iterations=True, cancel_probability=0.5,
        size_mix=(JobShape(1, 1, 0.5), JobShape(2, 2, 0.5)))
    engine = ChaosEngine(scenario, seed=0)
    report = engine.run()
    jobs = engine.target.platform.jobs.values()
    submitted = [float(line[2:].split()[0]) for line in report.audit_lines
                 if " submitted " in line]
    assert 30 < len(submitted) < 1000
    assert max(submitted) < scenario.horizon_s
    assert {(job.manifest.learners, job.manifest.gpus_per_learner)
            for job in jobs} == {(1, 1), (2, 2)}
    assert len({job.manifest.iterations for job in jobs}) > 1
    assert min(job.manifest.iterations for job in jobs) >= 100
    assert any(" cancelled " in line for line in report.audit_lines)
    assert report.passed, report.render(audit=False)


def test_engine_is_single_use():
    engine = ChaosEngine(TINY, seed=0)
    engine.run()
    with pytest.raises(SimulationError):
        engine.run()


def test_report_renders_text_and_markdown():
    report = run_tiny()
    text = report.render("text")
    assert "hypotheses:" in text and "recovery times:" in text
    markdown = report.render("md", audit=False)
    assert markdown.startswith("## Chaos scenario")
    assert "audit log" not in markdown


# -- CLI -------------------------------------------------------------------


def test_cli_list_prints_scenarios(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out


def test_cli_rejects_unknown_scenario(capsys):
    assert main(["--scenario", "no-such"]) == 2
    assert "unknown scenario" in capsys.readouterr().out


def test_cli_runs_scenario_with_determinism_check(monkeypatch, capsys):
    monkeypatch.setitem(SCENARIOS, "tiny", TINY)
    code = main(["--scenario", "tiny", "--seed", "0", "--no-audit",
                 "--check-determinism"])
    out = capsys.readouterr().out
    assert code == 0
    assert "determinism check passed" in out
    assert "chaos scenario 'tiny' seed=0 tiebreak=0: PASS" in out


def test_cli_determinism_check_compares_end_state(monkeypatch, capsys):
    monkeypatch.setitem(SCENARIOS, "tiny", TINY)
    # Sabotage the witness the way --perturb's test salts the audit log:
    # a counter drifts from run to run and writes no audit line.
    runs = itertools.count()
    real_counters = PlatformTarget.counters

    def drifting_counters(self):
        return {**real_counters(self), "mongo-retries": next(runs)}

    monkeypatch.setattr(PlatformTarget, "counters", drifting_counters)
    code = main(["--scenario", "tiny", "--no-audit", "--check-determinism"])
    out = capsys.readouterr().out
    assert code == 2
    assert "determinism check FAILED: 0 diverging audit entries" in out


# -- import budget ---------------------------------------------------------


def test_importing_chaos_does_not_import_the_manifest_stack():
    """``benchmarks/e2e`` times ``import repro.chaos`` inside ``setup_s``:
    YAML, the manifest compiler and the analyzer stay out of it."""
    probe = ("import sys, repro.chaos; print([m for m in "
             "('yaml', 'repro.manifest', 'repro.staticcheck') "
             "if m in sys.modules])")
    src = Path(__file__).resolve().parents[2] / "src"
    result = subprocess.run([sys.executable, "-c", probe], check=True,
                            env={"PYTHONPATH": str(src)},
                            stdout=subprocess.PIPE, text=True)
    assert result.stdout.strip() == "[]"
