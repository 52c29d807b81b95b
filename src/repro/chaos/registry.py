"""One registry for every runnable scenario, however it is defined.

Scenarios come from two places: the hand-written dataclasses
(:mod:`repro.chaos.scenarios`) and the declarative manifests under the repo's ``scenarios/`` directory
(:mod:`repro.manifest`).  The chaos CLI's ``--list`` and scenario
resolution both go through this module, so there is a single source of
truth: a ported scenario shows up once, tagged with *both* origins, and
a manifest-only scenario is runnable by name with no Python module.

Resolution compiles a manifest lazily (a broken manifest lists fine and
only fails, with file:line findings, when someone tries to run it).
Builtins win resolution when both origins define a name — the ported
manifests are asserted equal to their builtins by the parity tests, so
the choice is observable only through compile overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from repro.chaos.scenarios import SCENARIOS


@dataclass
class RegisteredScenario:
    """One listable/runnable scenario and where it came from."""

    name: str
    kind: str                    # "chaos" | "federation"
    description: str
    builtin: object = None       # Scenario | FederationScenario | None
    manifest_path: Optional[Path] = None

    @property
    def origins(self) -> str:
        tags = []
        if self.builtin is not None:
            tags.append("builtin")
        if self.manifest_path is not None:
            tags.append(f"manifest:{self.manifest_path.as_posix()}")
        return "+".join(tags)

    def resolve(self):
        """The runnable scenario: the builtin, else the manifest
        compiled now."""
        if self.builtin is not None:
            return self.builtin
        from repro.manifest import compile_manifest_file

        return compile_manifest_file(self.manifest_path).scenario


def scenario_registry(scenario_dir: Optional[Path] = None,
                      ) -> Dict[str, RegisteredScenario]:
    """Every known scenario, builtins merged with discovered manifests.

    Listed in documentation order: builtins, then manifest-only
    scenarios (sorted by name).
    """
    registry: Dict[str, RegisteredScenario] = {
        scenario.name: RegisteredScenario(
            name=scenario.name, kind=scenario.kind,
            description=scenario.description, builtin=scenario)
        for scenario in SCENARIOS.values()}

    from repro.manifest import discover_manifests

    import yaml

    for name, path in sorted(discover_manifests(scenario_dir).items()):
        entry = registry.get(name)
        if entry is not None:
            entry.manifest_path = path
            continue
        kind, description = "chaos", f"(manifest {path.as_posix()})"
        try:
            document = yaml.safe_load(path.read_text(encoding="utf-8"))
        except (OSError, yaml.YAMLError):
            document = None
        if isinstance(document, dict):
            if isinstance(document.get("kind"), str):
                kind = document["kind"]
            if isinstance(document.get("description"), str):
                description = document["description"]
        registry[name] = RegisteredScenario(
            name=name, kind=kind, description=description,
            manifest_path=path)
    return registry


def get_registered_scenario(name: str,
                            scenario_dir: Optional[Path] = None,
                            ) -> RegisteredScenario:
    registry = scenario_registry(scenario_dir)
    try:
        return registry[name]
    except KeyError:
        known = ", ".join(registry)
        raise KeyError(f"unknown scenario {name!r}; known: {known}") \
            from None
