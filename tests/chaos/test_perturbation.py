"""Schedule-independence property tests.

Every named chaos scenario must produce a bit-identical audit log and
end state under permuted heap tie-breaking (``tiebreak_seed``), and the
runtime race detector must report zero schedule-sensitive conflicts
throughout.  A divergence here means some component depends on the
order the kernel happens to pick between same-``(time, priority)``
events — a modelling bug, not chaos.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from repro.chaos import SCENARIOS, get_scenario
from repro.chaos.cli import main
from repro.chaos.engine import ChaosEngine
from repro.manifest import schema
from repro.staticcheck.manifest import analyze_manifest

#: Tie-break permutations checked against the FIFO baseline (seed 0).
PERTURBED_SEEDS = (1, 2, 3)

#: (scenario, tiebreak_seed) -> (report, RNG stream positions), computed
#: once for the whole module.
_RUNS = {}


def _next_draw(stream):
    """What ``stream`` would draw next: its position, readably."""
    peek = random.Random(0)
    peek.setstate(stream.getstate())
    return peek.random()


def run(name, tiebreak_seed):
    key = (name, tiebreak_seed)
    if key not in _RUNS:
        engine = ChaosEngine(get_scenario(name), seed=0,
                             tiebreak_seed=tiebreak_seed, detect_races=True)
        report = engine.run()
        _RUNS[key] = report, {
            name: _next_draw(stream)
            for name, stream in sorted(engine.rng._streams.items())}
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


#: scenario -> the next draw of every RNG stream after the FIFO run,
#: recorded before Raft deliveries and mount-cache hits became single
#: kernel events.  A kernel-level optimisation may change how many
#: events carry a run, never what the run draws.  (What the run *does*
#: is pinned by the e2e digests and the perturbed comparison above.)
RECORDED = {
    "etcd-leader-kill": {
        "microservice:training-metrics": 0.6454578501797045,
        "nfs-provisioner": 0.9440127373272001,
        "resilience:etcd-client": 0.5358707877397936,
        "resilience:mongo-client": 0.5987935948749468,
        "resilience:status-writer": 0.755351233109016,
        "chaos:arrivals": 0.054257171431339124,
        "learner-setup": 0.8101215981033916,
        "microservice:api": 0.9806080025336503,
        "microservice:lcm": 0.6390269461233564,
        "raft-network": 0.2046305031125788,
        "raft:etcd-0": 0.8261069482243134,
        "raft:etcd-1": 0.9297486121760212,
        "raft:etcd-2": 0.03779974720253321,
        "resilience:bucket-mount": 0.511412055420249,
        "scheduler": 0.38987657302092416,
    },
    "everything-at-once": {
        "microservice:training-metrics": 0.6454578501797045,
        "nfs-provisioner": 0.9440127373272001,
        "resilience:etcd-client": 0.5358707877397936,
        "resilience:mongo-client": 0.5987935948749468,
        "resilience:status-writer": 0.755351233109016,
        "chaos:arrivals": 0.8341119197080595,
        "learner-setup": 0.6866969143926028,
        "microservice:api": 0.9479840677285228,
        "microservice:lcm": 0.2632006631312426,
        "raft-network": 0.4089093676349137,
        "raft:etcd-0": 0.2357610727180306,
        "raft:etcd-1": 0.8399332357034183,
        "raft:etcd-2": 0.9987044773620182,
        "resilience:bucket-mount": 0.897440256706755,
        "scheduler": 0.9007636652520938,
    },
    # The six below were recorded when the two chaos engines became
    # one, at the commit before it, and leave the Raft streams out.
    "mongo-failover-under-churn": {
        "chaos:arrivals": 0.054257171431339124,
        "learner-setup": 0.8101215981033916,
        "microservice:api": 0.9806080025336503,
        "microservice:lcm": 0.6390269461233564,
        "microservice:training-metrics": 0.6454578501797045,
        "nfs-provisioner": 0.9440127373272001,
        "resilience:bucket-mount": 0.511412055420249,
        "resilience:etcd-client": 0.5358707877397936,
        "resilience:mongo-client": 0.6024121366891864,
        "resilience:status-writer": 0.24689405075198756,
        "scheduler": 0.38987657302092416,
    },
    "objectstore-brownout": {
        "chaos:arrivals": 0.054257171431339124,
        "learner-setup": 0.8101215981033916,
        "microservice:api": 0.9806080025336503,
        "microservice:lcm": 0.6390269461233564,
        "microservice:training-metrics": 0.6454578501797045,
        "nfs-provisioner": 0.9440127373272001,
        "resilience:bucket-mount": 0.511412055420249,
        "resilience:etcd-client": 0.5358707877397936,
        "resilience:mongo-client": 0.5987935948749468,
        "resilience:status-writer": 0.755351233109016,
        "scheduler": 0.38987657302092416,
    },
    "rolling-node-crashes": {
        "chaos:arrivals": 0.054257171431339124,
        "learner-setup": 0.8101215981033916,
        "microservice:api": 0.9806080025336503,
        "microservice:lcm": 0.6390269461233564,
        "microservice:training-metrics": 0.6454578501797045,
        "nfs-provisioner": 0.9440127373272001,
        "resilience:bucket-mount": 0.511412055420249,
        "resilience:etcd-client": 0.5358707877397936,
        "resilience:mongo-client": 0.5987935948749468,
        "resilience:status-writer": 0.755351233109016,
        "scheduler": 0.7251474980247419,
    },
    "federation-cell-outage": {
        "federation-trace": 0.9587698990226595,
        "federation:bus:cell-a->dispatcher": 0.39708745248956534,
        "federation:bus:cell-a->monitor:cell-a": 0.7779907509053363,
        "federation:bus:cell-b->dispatcher": 0.6085689122569723,
        "federation:bus:cell-b->monitor:cell-b": 0.03378711664163758,
        "federation:bus:dispatcher->cell-a": 0.9156617247532721,
        "federation:bus:dispatcher->cell-b": 0.19089765717765206,
        "federation:bus:monitor:cell-a->cell-a": 0.8501659476103567,
        "federation:bus:monitor:cell-b->cell-b": 0.5585910845041673,
        "federation:intent-log": 0.9865170331632667,
        "resilience:mongo-client": 0.5987935948749468,
    },
    "federation-brownout-migration": {
        "federation-trace": 0.37315378287088286,
        "federation:bus:cell-a->dispatcher": 0.39708745248956534,
        "federation:bus:cell-a->monitor:cell-a": 0.7779907509053363,
        "federation:bus:cell-b->dispatcher": 0.6085689122569723,
        "federation:bus:cell-b->monitor:cell-b": 0.03378711664163758,
        "federation:bus:cell-c->dispatcher": 0.05512513933136165,
        "federation:bus:cell-c->monitor:cell-c": 0.8337552710202965,
        "federation:bus:dispatcher->cell-a": 0.9156617247532721,
        "federation:bus:dispatcher->cell-b": 0.19089765717765206,
        "federation:bus:dispatcher->cell-c": 0.2965849658046469,
        "federation:bus:monitor:cell-a->cell-a": 0.8501659476103567,
        "federation:bus:monitor:cell-b->cell-b": 0.5585910845041673,
        "federation:bus:monitor:cell-c->cell-c": 0.2274739878366211,
        "federation:intent-log": 0.9865170331632667,
        "resilience:mongo-client": 0.5987935948749468,
    },
    "federation-trace-3k": {
        "federation-trace": 0.8224570269419089,
        "federation:bus:cell-a->dispatcher": 0.39708745248956534,
        "federation:bus:cell-a->monitor:cell-a": 0.7779907509053363,
        "federation:bus:cell-b->dispatcher": 0.6085689122569723,
        "federation:bus:cell-b->monitor:cell-b": 0.03378711664163758,
        "federation:bus:cell-c->dispatcher": 0.05512513933136165,
        "federation:bus:cell-c->monitor:cell-c": 0.8337552710202965,
        "federation:bus:cell-d->dispatcher": 0.5578745483651304,
        "federation:bus:cell-d->monitor:cell-d": 0.5601176349205447,
        "federation:bus:dispatcher->cell-a": 0.9156617247532721,
        "federation:bus:dispatcher->cell-b": 0.19089765717765206,
        "federation:bus:dispatcher->cell-c": 0.2965849658046469,
        "federation:bus:dispatcher->cell-d": 0.29411623356858974,
        "federation:bus:monitor:cell-a->cell-a": 0.8501659476103567,
        "federation:bus:monitor:cell-b->cell-b": 0.5585910845041673,
        "federation:bus:monitor:cell-c->cell-c": 0.2274739878366211,
        "federation:bus:monitor:cell-d->cell-d": 0.8158552943963535,
        "federation:intent-log": 0.9865170331632667,
        "resilience:mongo-client": 0.5987935948749468,
    },
}


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_fifo_run_draws_what_the_recorded_run_drew(name):
    # Every stream outside Raft must be recorded; a Raft stream is
    # compared where the recording has it.
    recorded = RECORDED[name]
    assert {stream: draw for stream, draw in run(name, 0)[1].items()
            if stream in recorded or not stream.startswith("raft")} \
        == recorded


@pytest.mark.parametrize("name", sorted(RECORDED))
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


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: scenario -> digests of what the FIFO run above reports, recorded at
#: the commit before the two chaos engines became one: of
#: ``[audit_lines, job_states, counters]`` and of ``render("text")``.
#: These runs carry the race detector, so ``counters`` ends with
#: ``schedule-conflicts: 0``; a plain run's digests differ by that key.
#: The five platform scenarios were recorded again, at the same kernel,
#: when ``etcd-leader-elected`` / ``mongo-primary-available`` stopped
#: naming the replica in their audit line (``leader etcd-0`` became
#: ``leader elected``): which replica wins rides on a tie.
GOLDEN = {
    "etcd-leader-kill": ("e4ff19bb5adf32ca", "38a4d360802cf10c"),
    "mongo-failover-under-churn": ("2bfce3b42a6b2f3b", "1e357b944618288d"),
    "objectstore-brownout": ("e9d66402e8189e28", "fd413ccf441cd4c7"),
    "rolling-node-crashes": ("274c32a553c1c175", "9be92bdb2ecf21e6"),
    "everything-at-once": ("77fc495cc05cd41e", "6516fc0d2a900fb1"),
    "federation-cell-outage": ("90e42a2ef37d61dd", "2a705a4a0f0cc87d"),
    "federation-brownout-migration": ("d2a2592a76042aeb", "eed9b56d6c2fbd8a"),
    "federation-trace-3k": ("9894a4e494e75ee8", "a120824af6a644c1"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fifo_run_reports_what_the_recorded_run_reported(name):
    report = baseline(name)
    state = json.dumps([report.audit_lines, report.job_states,
                        report.counters], sort_keys=True)
    assert (_digest(state), _digest(report.render("text"))) == GOLDEN[name]


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
    topology = {"cells": [dataclasses.asdict(cell)
                          for cell in scenario.cells]} \
        if scenario.kind == "federation" \
        else {"nodes": [dataclasses.asdict(group)
                        for group in scenario.nodes]}
    checks = [h.name for h in report.hypotheses
              if h.phase == "steady-state:after"]
    # JSON is YAML: the analyzer reads this as it reads scenarios/*.yaml.
    source = json.dumps({
        "kind": scenario.kind, "name": name,
        "description": "catalog probe",
        "topology": topology,
        "hypotheses": {"checks": checks,
                       "counters": [{"name": counter, "min": 0}
                                    for counter in report.counters]}})
    findings, _suppressed, _model = analyze_manifest(source)
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
