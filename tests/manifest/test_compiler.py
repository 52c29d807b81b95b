"""Unit tests for the manifest compiler: gating, lowering, printing,
verify."""

import textwrap

import pytest

from repro.chaos import SCENARIOS
from repro.chaos.engine import InjectionStep, Scenario
from repro.manifest import (
    ManifestError,
    compile_manifest,
    compile_manifest_file,
    manifest_source,
)
from repro.staticcheck.manifest import analyze_manifest

MINIMAL_CHAOS = textwrap.dedent("""\
    kind: chaos
    name: minimal
    description: "defaults everywhere"
    topology:
      nodes:
        - {count: 4, gpus_per_node: 4, gpu_type: K80}
    """)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_manifest_source_round_trips(name):
    """Each scenario is defined once, in Python; its printed manifest
    lints clean and compiles back to the same dataclass."""
    scenario = SCENARIOS[name]
    source = manifest_source(scenario)
    findings, _suppressed, _model = analyze_manifest(source, name)
    assert [finding.render() for finding in findings] == []
    assert compile_manifest(source, name).scenario == scenario


def test_manifest_source_round_trips_exponent_floats():
    # Python and JSON print 1e-05 without a dot, which PyYAML's own
    # resolver would read as a string.
    scenario = Scenario(
        name="tiny-times", description="exponent floats",
        steps=(InjectionStep(at_s=1e-05, kind="etcd-leader-kill",
                             duration_s=2e+16),),
        horizon_s=1e+20)
    source = manifest_source(scenario)
    assert '"at_s": 1e-05' in source
    assert compile_manifest(source).scenario == scenario


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


def test_compile_rejects_a_federation_without_cells():
    # MAN002 cannot flag the fault's cell while no cell is declared, so
    # the empty list itself must be the finding; lowering it crashed.
    source = textwrap.dedent("""\
        kind: federation
        name: no-cells
        description: "every cell removed"
        topology:
          cells: []
        faults:
          - {at_s: 100.0, kind: cell-brownout, cell: cell-a,
             duration_s: 200.0, param: 200.0}
        """)
    with pytest.raises(ManifestError) as excinfo:
        compile_manifest(source, "no-cells.yaml")
    assert [finding.render() for finding in excinfo.value.findings] == [
        "no-cells.yaml:5:3: MAN001 a federation topology needs at least "
        "one cell"]


def test_compile_file_missing_path_raises():
    with pytest.raises(ManifestError):
        compile_manifest_file("/no/such/manifest.yaml")


def test_unspecified_workload_fields_lower_to_scenario_defaults():
    compiled = compile_manifest(MINIMAL_CHAOS, "minimal.yaml")
    defaults = Scenario(name="minimal", description="defaults everywhere",
                        steps=())
    assert compiled.scenario == defaults
    assert compiled.scenario.kind == "chaos"
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


@pytest.mark.parametrize("field, value", [
    ("gpu_types", "[K80]"),
    ("tenants", "[{name: team-a, quota_gpus: 8}]"),
    ("global_quota_gpus", "16"),
])
def test_fields_nothing_lowers_are_unknown(field, value):
    """A federation workload accepts only what its scenario reads."""
    source = textwrap.dedent(f"""\
        kind: federation
        name: fed
        description: "one cell"
        topology:
          cells:
            - {{name: cell-a, zone: z, gpu_nodes: 4, gpus_per_node: 4,
               gpu_type: K80}}
        workload:
          {field}: {value}
        """)
    with pytest.raises(ManifestError) as excinfo:
        compile_manifest(source, "fed.yaml")
    assert [finding.render() for finding in excinfo.value.findings] == [
        f"fed.yaml:9:3: MAN001 unknown field {field!r} in workload"]


def test_faults_mapping_form_is_gone():
    source = MINIMAL_CHAOS + textwrap.dedent("""\
        faults:
          seed: inherit
          steps:
            - {at_s: 10.0, kind: etcd-leader-kill}
        """)
    with pytest.raises(ManifestError) as excinfo:
        compile_manifest(source, "mapping.yaml")
    assert [finding.render() for finding in excinfo.value.findings] == [
        "mapping.yaml:8:3: MAN001 field 'faults' in manifest root "
        "expects list, got mapping"]


def test_a_cell_brownout_that_speeds_the_cell_up_is_rejected():
    source = textwrap.dedent("""\
        kind: federation
        name: fed
        description: "one cell"
        topology:
          cells:
            - {name: cell-a, zone: z, gpu_nodes: 4, gpus_per_node: 4,
               gpu_type: K80}
        faults:
          - {at_s: 100.0, kind: cell-brownout, cell: cell-a,
             duration_s: 200.0, param: 0.5}
        """)
    with pytest.raises(ManifestError) as excinfo:
        compile_manifest(source, "fast.yaml")
    assert [finding.render() for finding in excinfo.value.findings] == [
        "fast.yaml:10:32: MAN001 cell-brownout param 0.5 is out of "
        "range: it is a latency inflation factor > 1"]


def _federation(*cells: str) -> str:
    return textwrap.dedent("""\
        kind: federation
        name: fed
        description: "trace shapes against the declared cells"
        topology:
          cells:
        """) + "".join(f"    - {{{cell}}}\n" for cell in cells) + \
        "workload:\n  jobs: 20\n  seed: inherit\n"


def test_man003_passes_a_k80_cell_that_places_every_drawn_shape():
    """The trace never draws 4 learners x 4 GPUs, so one 3 x 4 K80
    cell places every job it can draw; the run completes them all."""
    compiled = compile_manifest(_federation(
        "name: cell-a, zone: z, gpu_nodes: 3, gpus_per_node: 4, "
        "gpu_type: K80"), "k80.yaml")
    report = compiled.run()
    assert report.passed
    assert report.counters["fed-completed"] == 20


def test_man003_flags_v100_cells_when_the_trace_draws_k80_jobs():
    """A >2-GPU V100 draw runs on K80, which no cell here offers: the
    run would leave those intents unresolved."""
    cell = ("zone: z, gpu_nodes: 8, gpus_per_node: 4, gpu_type: V100")
    findings, _suppressed, _model = analyze_manifest(_federation(
        f"name: cell-a, {cell}", f"name: cell-b, {cell}"), "v100.yaml")
    assert [finding.render() for finding in findings] == [
        "v100.yaml:9:3: MAN003 trace job shapes 1x4, 2x4 (learners x "
        "K80 GPUs each) run on K80, which no declared cell offers; they "
        "would queue forever"]


def test_a_step_the_dataclass_rejects_is_a_finding_not_a_crash():
    source = MINIMAL_CHAOS + textwrap.dedent("""\
        faults:
          - {at_s: -5.0, kind: etcd-leader-kill}
          - {use: etcd-leader-kill, shift_s: -1000.0}
        """)
    findings, _suppressed, _model = analyze_manifest(source, "neg.yaml")
    assert [finding.render() for finding in findings] == [
        f"neg.yaml:{line}:5: MAN001 at_s and duration_s must be "
        f"non-negative" for line in (8, 9)]
