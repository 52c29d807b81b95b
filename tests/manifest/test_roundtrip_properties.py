"""Generated scenarios print as manifests the schema accepts and read
back as themselves.

Random :class:`Scenario` / :class:`FederationScenario` values - node
groups or cells, one-shot and recurring steps drawn from their target's
``FAULT_KINDS``, size mixes, workload and run values - go through
``manifest_source``.  The printed
manifest never draws a schema finding (unknown field, wrong type,
missing required field): the printer and the checker read the same
dataclasses.  The static pass builds the scenario it was printed from,
and when the pass is clean, ``compile_manifest`` hands out that same
scenario.  Other findings (capacity, dead or shadowed faults, brownout
ranges) are allowed; the generator does not avoid them.
"""

import string

from hypothesis import given, settings, strategies as st

from repro.chaos import (
    CellSpec,
    FederationScenario,
    InjectionStep,
    JobShape,
    NodeGroup,
    Scenario,
)
from repro.chaos.engine import PlatformTarget
from repro.chaos.federation import FederationTarget
from repro.scenario import compile_manifest, manifest_source
from repro.staticcheck.manifest import analyze_manifest

from tests.conftest import examples

SCHEMA_FINDINGS = ("unknown field", "expects ", "missing required field")

_TEXT = st.text(string.ascii_letters + string.digits + " -_.", max_size=12)
_NAME = st.text(string.ascii_lowercase + string.digits + "-", min_size=1,
                max_size=8)
_SECONDS = st.floats(min_value=0.0, max_value=600.0)
_GPU_TYPES = ("K80", "V100", "P100")


@st.composite
def _steps(draw, kinds, targets, need_target):
    """Sorted steps, as a compiled manifest orders them."""
    steps = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(kinds))
        target = draw(st.sampled_from(targets)) if need_target(kind) \
            else draw(st.sampled_from(("",) + targets))
        fraction = st.floats(min_value=0.0, max_value=1.0)
        steps.append(InjectionStep(
            at_s=draw(_SECONDS), kind=kind, target=target,
            duration_s=draw(_SECONDS),
            param=draw(fraction if kind == "oss-brownout" else fraction
                       | st.floats(min_value=1.0, max_value=300.0)),
            mtbf_s=draw(st.none() | st.floats(min_value=1.0,
                                               max_value=1e7))))
    return tuple(sorted(steps, key=lambda s: (s.at_s, s.kind, s.target)))


@st.composite
def chaos_scenarios(draw):
    types = draw(st.lists(st.sampled_from(_GPU_TYPES), min_size=1,
                          max_size=2, unique=True))
    nodes = tuple(NodeGroup(
        count=draw(st.integers(1, 4)),
        gpus_per_node=draw(st.sampled_from((2, 4, 8))), gpu_type=gpu_type,
        cpus=draw(st.floats(min_value=1.0, max_value=128.0)),
        memory_gb=draw(st.floats(min_value=64.0, max_value=1024.0)))
        for gpu_type in types)
    names = tuple(name for group in nodes for name in group.node_names())
    return Scenario(
        name=draw(_TEXT), description=draw(_TEXT),
        steps=draw(_steps(PlatformTarget.FAULT_KINDS, names,
                          lambda kind: False)),
        horizon_s=draw(st.floats(min_value=60.0, max_value=2000.0)),
        settle_s=draw(_SECONDS), jobs=draw(st.integers(0, 8)),
        interarrival_s=draw(st.floats(min_value=0.5, max_value=60.0)),
        iterations=draw(st.integers(1, 300)),
        draw_iterations=draw(st.booleans()),
        size_mix=tuple(draw(st.lists(st.builds(
            JobShape, learners=st.integers(1, 4),
            gpus_per_learner=st.sampled_from((1, 2, 4)),
            weight=st.floats(min_value=0.01, max_value=1.0)),
            min_size=1, max_size=3))),
        cancel_probability=draw(st.floats(min_value=0.0, max_value=1.0)),
        gpu_type=draw(st.sampled_from(types)),
        memory_gb_per_learner=draw(st.none() | st.floats(
            min_value=1.0, max_value=64.0)),
        nodes=nodes)


@st.composite
def federation_scenarios(draw):
    names = draw(st.lists(_NAME, min_size=1, max_size=4, unique=True))
    cells = tuple(CellSpec(
        name=name, zone=draw(_NAME), gpu_nodes=draw(st.integers(2, 8)),
        gpus_per_node=draw(st.sampled_from((2, 4, 8))),
        gpu_type=draw(st.sampled_from(_GPU_TYPES))) for name in names)
    return FederationScenario(
        name=draw(_TEXT), description=draw(_TEXT), cells=cells,
        steps=draw(_steps(FederationTarget.FAULT_KINDS, tuple(names),
                          lambda kind: True)),
        horizon_s=draw(st.floats(min_value=60.0, max_value=3000.0)),
        settle_s=draw(_SECONDS), jobs=draw(st.integers(0, 40)),
        arrival_window_s=draw(st.floats(min_value=1.0, max_value=600.0)),
        min_iterations=draw(st.integers(1, 100)),
        max_iterations=draw(st.integers(100, 300)),
        tenant_quota_gpus=draw(st.integers(1, 1024)))


@settings(max_examples=examples(100), deadline=None)
@given(scenario=chaos_scenarios() | federation_scenarios())
def test_generated_scenarios_round_trip(scenario):
    source = manifest_source(scenario)
    findings, _suppressed, compiled = analyze_manifest(source)
    assert [finding.render() for finding in findings
            if any(marker in finding.message
                   for marker in SCHEMA_FINDINGS)] == []
    assert compiled.scenario == scenario
    if not findings:
        assert compile_manifest(source).scenario == scenario
