"""Byte-identical regression tests: manifests vs their built-in twins.

The ported manifests under ``scenarios/`` must lower to scenario
dataclasses *equal* to the hand-written ones, and — the stronger claim —
drive the engine to the same audit log, the same end-state witness,
and the same RNG stream positions, including under a permuted tie-break
schedule.  Any drift between the YAML and the Python twin shows up here
as a hard diff, not a subtle behavior change.
"""

from pathlib import Path

import pytest

from repro.chaos.engine import ChaosEngine
from repro.chaos.scenarios import SCENARIOS
from repro.manifest import compile_manifest_file

SCENARIO_DIR = Path(__file__).resolve().parents[2] / "scenarios"

PORTED = sorted(path.name for path in SCENARIO_DIR.glob("*.yaml"))


def builtin_for(name):
    scenario = SCENARIOS.get(name)
    assert scenario is not None, f"no builtin twin for {name}"
    return scenario


def rng_positions(engine):
    """Every RNG stream's exact position after the run."""
    return {name: stream.getstate()
            for name, stream in engine.rng._streams.items()}


def test_all_six_scenarios_are_ported():
    assert len(PORTED) == 6
    names = {compile_manifest_file(SCENARIO_DIR / name).name
             for name in PORTED}
    assert names == set(SCENARIOS) - {"federation-cell-outage",
                                      "federation-trace-3k"}


@pytest.mark.parametrize("filename", PORTED)
def test_manifest_compiles_dataclass_equal(filename):
    compiled = compile_manifest_file(SCENARIO_DIR / filename)
    assert compiled.scenario == builtin_for(compiled.name)


def test_chaos_run_byte_identical():
    compiled = compile_manifest_file(SCENARIO_DIR / "etcd-leader-kill.yaml")
    manifest_engine = compiled.build_engine(seed=7)
    manifest_report = manifest_engine.run()
    builtin_engine = ChaosEngine(builtin_for(compiled.name), seed=7)
    builtin_report = builtin_engine.run()
    assert manifest_report.audit_lines == builtin_report.audit_lines
    assert manifest_report.end_state() == builtin_report.end_state()
    assert manifest_report.counters == builtin_report.counters
    assert rng_positions(manifest_engine) == rng_positions(builtin_engine)


def test_federation_run_byte_identical():
    compiled = compile_manifest_file(
        SCENARIO_DIR / "federation-brownout-migration.yaml")
    manifest_engine = compiled.build_engine(seed=3)
    manifest_report = manifest_engine.run()
    builtin_engine = ChaosEngine(builtin_for(compiled.name), seed=3)
    builtin_report = builtin_engine.run()
    assert manifest_report.audit_lines == builtin_report.audit_lines
    assert manifest_report.end_state() == builtin_report.end_state()
    assert manifest_report.counters == builtin_report.counters
    assert rng_positions(manifest_engine) == rng_positions(builtin_engine)


def test_perturbed_schedule_stays_byte_identical():
    """Parity must survive a --perturb-style tie-break permutation."""
    compiled = compile_manifest_file(
        SCENARIO_DIR / "federation-brownout-migration.yaml")
    manifest_engine = compiled.build_engine(seed=3, tiebreak_seed=5)
    manifest_report = manifest_engine.run()
    builtin_engine = ChaosEngine(builtin_for(compiled.name),
                                 seed=3, tiebreak_seed=5)
    builtin_report = builtin_engine.run()
    assert manifest_report.audit_lines == builtin_report.audit_lines
    assert manifest_report.end_state() == builtin_report.end_state()
    assert rng_positions(manifest_engine) == rng_positions(builtin_engine)


def test_declared_hypotheses_pass_on_federation_manifest():
    compiled = compile_manifest_file(
        SCENARIO_DIR / "federation-brownout-migration.yaml")
    report = compiled.run(seed=3)
    results = compiled.verify(report)
    assert results, "manifest declares no checks"
    assert all(result.ok for result in results), \
        [f"{r.name}: {r.detail}" for r in results if not r.ok]
