"""Schedule-independence property tests.

Every named chaos scenario must produce a bit-identical audit log and
end state under permuted heap tie-breaking (``tiebreak_seed``), and the
runtime race detector must report zero schedule-sensitive conflicts
throughout.  A divergence here means some component depends on the
order the kernel happens to pick between same-``(time, priority)``
events — a modelling bug, not chaos.
"""

import json

import pytest

from repro.chaos import SCENARIOS, get_scenario
from repro.chaos.cli import main
from repro.chaos.engine import ChaosEngine
from repro.manifest import manifest_source, schema
from repro.staticcheck.manifest import analyze_manifest

from tests.golden import STORE, check, next_draw

#: Tie-break permutations checked against the FIFO baseline (seed 0).
PERTURBED_SEEDS = (1, 2, 3)

#: (scenario, tiebreak_seed) -> (report, RNG stream positions), computed
#: once for the whole module.
_RUNS = {}


def positions(engine):
    return {name: next_draw(stream)
            for name, stream in sorted(engine.rng._streams.items())}


def run(name, tiebreak_seed):
    key = (name, tiebreak_seed)
    if key not in _RUNS:
        engine = ChaosEngine(get_scenario(name), seed=0,
                             tiebreak_seed=tiebreak_seed, detect_races=True)
        _RUNS[key] = engine.run(), positions(engine)
    return _RUNS[key]


def baseline(name):
    return run(name, 0)[0]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_baseline_run_is_race_free_and_passes(name):
    report = baseline(name)
    assert report.passed, report.render()
    assert report.race_lines == []
    assert report.counters["schedule-conflicts"] == 0


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("tiebreak_seed", PERTURBED_SEEDS)
def test_perturbed_schedule_reproduces_run(name, tiebreak_seed):
    base = baseline(name)
    perturbed = run(name, tiebreak_seed)[0]
    assert perturbed.race_lines == []
    assert perturbed.audit_lines == base.audit_lines
    assert perturbed.end_state() == base.end_state()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fifo_run_draws_what_the_recorded_run_drew(name):
    # Raft's streams included: under FIFO their positions are as
    # deterministic as everyone else's.
    check(f"chaos/{name}/draws", run(name, 0)[1])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_perturbed_run_draws_what_the_fifo_run_draws(name):
    # Raft's own streams are left out: which replica's timer wins a
    # same-instant tie decides how many messages an election takes, so
    # their positions already vary with the tie-break seed (and the
    # audit log, which does not, is the contract).  Every other
    # component must draw exactly the same numbers.
    def outside_raft(positions):
        return {stream: state for stream, state in positions.items()
                if not stream.startswith("raft")}

    assert outside_raft(run(name, 1)[1]) == outside_raft(run(name, 0)[1])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fifo_run_reports_what_the_recorded_run_reported(name):
    # These runs carry the race detector, so ``counters`` ends with
    # ``schedule-conflicts: 0``; a plain run's counters lack that key.
    report = baseline(name)
    check(f"chaos/{name}/report", {
        "counters": report.counters,
        "jobs": report.job_states,
        "render": report.render("text", audit=False).splitlines(),
        "audit": report.audit_lines})


@pytest.mark.parametrize("name", sorted(
    name for name, scenario in SCENARIOS.items() if scenario.kind == "chaos"))
def test_plain_fifo_run_reproduces_the_recorded_run(name):
    # The goldens were recorded with the race detector attached; a run
    # without it takes the paths a benchmark or CLI run takes (an idle
    # Raft group's rounds, say) and must draw and report the same, less
    # the detector's own counter.
    engine = ChaosEngine(get_scenario(name), seed=0)
    report = engine.run()
    check(f"chaos/{name}/draws", positions(engine))
    recorded = json.loads((STORE / "chaos" / name / "report.json")
                          .read_text(encoding="utf-8"))
    del recorded["counters"]["schedule-conflicts"]
    recorded["render"] = [line.replace(" schedule-conflicts=0", "")
                          for line in recorded["render"]]
    assert json.loads(json.dumps({
        "counters": report.counters,
        "jobs": report.job_states,
        "render": report.render("text", audit=False).splitlines(),
        "audit": report.audit_lines})) == recorded


def test_which_replica_leads_is_reported_but_not_audited():
    # Which replica wins an election rides on a same-instant tie, so a
    # commit that schedules fewer events may move it under a perturbed
    # seed; the audit log is the schedule-independence witness and must
    # not carry it.
    report = baseline("everything-at-once")
    elected = {h.name: h for h in report.hypotheses
               if h.phase == "steady-state:after"}
    leader = elected["etcd-leader-elected"]
    primary = elected["mongo-primary-available"]
    assert (leader.detail, primary.detail) == \
        ("leader elected", "primary elected")
    assert leader.who.startswith("etcd-") and primary.who.startswith("index")
    assert f"({leader.described})" in report.render("text")
    assert not [line for line in report.audit_lines if "hypothesis" in line
                and (leader.who in line or primary.who in line)]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_manifests_may_assert_every_counter_and_hypothesis_reported(name):
    """MAN002 rejects a counter or check the report "will never carry":
    its catalogs must know everything a report does carry."""
    scenario, report = get_scenario(name), baseline(name)
    checks = [h.name for h in report.hypotheses
              if h.phase == "steady-state:after"]
    # The printed manifest is JSON, so the probe adds its hypotheses
    # section as JSON too.
    document = json.loads(manifest_source(scenario))
    document["hypotheses"] = {
        "checks": checks,
        "counters": [{"name": counter, "min": 0}
                     for counter in report.counters]}
    findings, _suppressed, _model = analyze_manifest(json.dumps(document))
    assert [finding.render() for finding in findings] == []
    assert tuple(checks) == schema.known_hypotheses(scenario.kind)


@pytest.mark.parametrize("kind, catalog", [
    ("chaos", schema.CHAOS_COUNTERS),
    ("federation", schema.FEDERATION_COUNTERS)])
def test_every_cataloged_counter_is_one_some_report_carries(kind, catalog):
    carried = {counter for name, scenario in SCENARIOS.items()
               if scenario.kind == kind
               for counter in baseline(name).counters}
    assert set(catalog) <= carried


def test_cli_perturb_flag(monkeypatch, capsys):
    from tests.chaos.test_engine import TINY

    monkeypatch.setitem(SCENARIOS, "tiny", TINY)
    code = main(["--scenario", "tiny", "--no-audit", "--detect-races",
                 "--perturb", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "perturbation check passed: 2 permuted schedules" in out


def test_cli_perturb_detects_divergence(monkeypatch, capsys):
    from tests.chaos.test_engine import TINY

    monkeypatch.setitem(SCENARIOS, "tiny", TINY)
    # Sabotage the witness: make audit logs depend on the tie-break
    # seed so the perturbation check must fail.
    real_audit = ChaosEngine.audit_lines

    def salted_audit(self):
        return real_audit(self) + [f"tiebreak={self.tiebreak_seed}"]

    monkeypatch.setattr(ChaosEngine, "audit_lines", salted_audit)
    code = main(["--scenario", "tiny", "--no-audit", "--perturb", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert "perturbation check FAILED" in out
