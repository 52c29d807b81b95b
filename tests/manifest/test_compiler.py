"""Unit tests for the manifest compiler: gating, lowering, verify."""

import textwrap

import pytest

from repro.chaos.engine import Scenario
from repro.manifest import (
    ManifestError,
    compile_manifest,
    compile_manifest_file,
    discover_manifests,
)

MINIMAL_CHAOS = textwrap.dedent("""\
    kind: chaos
    name: minimal
    description: "defaults everywhere"
    topology:
      nodes:
        - {count: 4, gpus_per_node: 4, gpu_type: K80}
    """)


def test_compile_rejects_manifests_with_findings():
    source = MINIMAL_CHAOS + "faults:\n  - {at_s: 10.0, kind: nope}\n"
    with pytest.raises(ManifestError) as excinfo:
        compile_manifest(source, "bad.yaml")
    err = excinfo.value
    assert err.findings and err.findings[0].code == "MAN002"
    assert "bad.yaml" in err.render()
    assert "MAN002" in err.render()


def test_compile_rejects_empty_document():
    with pytest.raises(ManifestError):
        compile_manifest("# nothing here\n", "empty.yaml")


def test_compile_file_missing_path_raises():
    with pytest.raises(ManifestError):
        compile_manifest_file("/no/such/manifest.yaml")


def test_unspecified_workload_fields_lower_to_scenario_defaults():
    compiled = compile_manifest(MINIMAL_CHAOS, "minimal.yaml")
    defaults = Scenario(name="minimal", description="defaults everywhere",
                        steps=())
    assert compiled.scenario == defaults
    assert compiled.kind == "chaos"
    assert compiled.seed_override is None
    assert [g.node_names() for g in compiled.scenario.nodes] == \
        [tuple(f"node-K80-{i}" for i in range(4))]


def test_integer_workload_seed_becomes_seed_override():
    source = MINIMAL_CHAOS + "workload:\n  jobs: 3\n  seed: 42\n"
    compiled = compile_manifest(source, "seeded.yaml")
    assert compiled.seed_override == 42
    assert compiled.scenario.jobs == 3


def test_verify_reports_missing_hypothesis_and_counter():
    source = MINIMAL_CHAOS + textwrap.dedent("""\
        hypotheses:
          checks: [no-lost-job-records]
          counters:
            - {name: write-errors, equals: 0}
        """)
    compiled = compile_manifest(source, "checked.yaml")

    class FakeReport:
        hypotheses = ()
        counters = {}

    results = compiled.verify(FakeReport())
    assert [(r.name, r.ok) for r in results] == [
        ("no-lost-job-records", False), ("write-errors", False)]
    assert results[0].detail == "hypothesis never evaluated"
    assert results[1].detail == "counter absent from the report"


def test_verify_checks_counter_bounds():
    source = MINIMAL_CHAOS + textwrap.dedent("""\
        hypotheses:
          counters:
            - {name: write-errors, max: 2}
        """)
    compiled = compile_manifest(source, "bounds.yaml")

    class FakeReport:
        hypotheses = ()
        counters = {"write-errors": 5}

    results = compiled.verify(FakeReport())
    assert [(r.name, r.ok) for r in results] == [("write-errors", False)]
    assert "write-errors=5" in results[0].detail


def test_discover_manifests_skips_fixtures_and_reads_names(tmp_path):
    (tmp_path / "real.yaml").write_text(
        "kind: chaos\nname: my-scenario\ndescription: \"x\"\n"
        "topology: {nodes: []}\n")
    (tmp_path / "fix.yaml").write_text(
        "# staticcheck: fixture\nkind: chaos\nname: fixture-scenario\n")
    (tmp_path / "broken.yaml").write_text("kind: [unclosed\n")
    found = discover_manifests(tmp_path)
    assert set(found) == {"my-scenario", "broken"}
    assert found["my-scenario"] == tmp_path / "real.yaml"
