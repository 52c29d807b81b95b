"""Tests for the deterministic chaos engine and its scenarios."""

import dataclasses
import itertools
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chaos import (
    ChaosEngine,
    InjectionStep,
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


def test_get_scenario_resolves_and_rejects():
    assert get_scenario("everything-at-once").name == "everything-at-once"
    with pytest.raises(KeyError):
        get_scenario("no-such-scenario")


def test_named_scenarios_are_consistent():
    expected = {"etcd-leader-kill", "mongo-failover-under-churn",
                "objectstore-brownout", "rolling-node-crashes",
                "everything-at-once", "federation-cell-outage",
                "federation-brownout-migration", "federation-trace-3k"}
    assert set(SCENARIOS) == expected
    for name, scenario in SCENARIOS.items():
        assert scenario.name == name
        assert scenario.steps
    # The combined scenario exercises every fault kind of a platform.
    combined = {step.kind for step in
                SCENARIOS["everything-at-once"].steps}
    assert combined == set(PlatformTarget.FAULT_KINDS)


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
