"""The merged scenario registry: builtins + discovered manifests."""

import pytest

from repro.chaos.engine import NodeGroup
from repro.chaos.registry import (
    get_registered_scenario,
    scenario_registry,
)
from repro.chaos.scenarios import SCENARIOS
from repro.manifest import ManifestError


def test_every_ported_scenario_is_listed_with_both_origins():
    registry = scenario_registry()
    python_only = {"federation-cell-outage", "federation-trace-3k"}
    for name in set(SCENARIOS) - python_only:
        entry = registry[name]
        assert entry.builtin is not None
        assert entry.manifest_path is not None, \
            f"{name} has no ported manifest"
        assert entry.origins.startswith("builtin+manifest:")
    for name in python_only:
        assert registry[name].origins == "builtin"


def test_builtin_wins_resolution():
    entry = get_registered_scenario("etcd-leader-kill")
    assert entry.kind == "chaos"
    assert entry.resolve() is SCENARIOS["etcd-leader-kill"]


def test_manifest_only_scenario_lists_and_resolves(tmp_path):
    (tmp_path / "extra.yaml").write_text(
        'kind: chaos\nname: manifest-only\ndescription: "yaml twin"\n'
        "topology:\n  nodes:\n"
        "    - {count: 2, gpus_per_node: 4, gpu_type: K80}\n")
    registry = scenario_registry(tmp_path)
    entry = registry["manifest-only"]
    assert entry.builtin is None
    assert entry.origins == f"manifest:{(tmp_path / 'extra.yaml').as_posix()}"
    assert entry.description == "yaml twin"
    assert entry.kind == "chaos"
    scenario = entry.resolve()
    assert scenario.name == "manifest-only"
    assert scenario.nodes == (NodeGroup(2, 4, "K80"),)


def test_broken_manifest_lists_but_fails_resolution(tmp_path):
    (tmp_path / "broken.yaml").write_text(
        'kind: chaos\nname: broken-one\ndescription: "broken"\n'
        "topology:\n  nodes:\n"
        "    - {count: 2, gpus_per_node: 4, gpu_type: K80}\n"
        "faults:\n  - {at_s: 5.0, kind: not-a-fault}\n")
    entry = scenario_registry(tmp_path)["broken-one"]
    with pytest.raises(ManifestError):
        entry.resolve()


def test_unknown_scenario_raises_with_known_names():
    with pytest.raises(KeyError) as excinfo:
        get_registered_scenario("no-such-scenario")
    assert "etcd-leader-kill" in excinfo.value.args[0]
