"""A validated manifest as a runnable scenario, and a scenario back as
a manifest.

The MAN static pass (:func:`repro.staticcheck.manifest.analyze_manifest`)
builds the scenario dataclass as it checks the manifest, topology
included:

* ``kind: chaos`` → :class:`repro.chaos.engine.Scenario`;
* ``kind: federation`` → :class:`repro.chaos.federation.FederationScenario`.

Only the fields a manifest declares are passed, so the dataclass
defaults are the manifest defaults.  ``compile_manifest`` hands that
scenario out only when the pass reports nothing, so a manifest that
would build into nonsense is rejected with file:line:column findings,
never a mid-run crash.  ``manifest_source`` is the inverse: it prints
the manifest a scenario compiles from, through the same
:mod:`~repro.manifest.schema` tables, so
``compile_manifest(manifest_source(s)).scenario == s`` for every
scenario.  A scenario is defined once, as Python data; a manifest is an
input format onto it.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.chaos import ChaosEngine, FederationScenario, Scenario
from repro.manifest.schema import (
    CounterAssertion,
    RUN_FIELDS,
    STEP_TARGET,
    TOPOLOGY,
    WORKLOAD_FIELDS,
)


class ManifestError(Exception):
    """Manifest failed the static pass (or cannot be read)."""

    def __init__(self, message: str, findings: Optional[list] = None):
        super().__init__(message)
        self.findings = list(findings or [])

    def render(self) -> str:
        lines = [str(self)]
        lines.extend(f"  {finding.render()}" for finding in self.findings)
        return "\n".join(lines)


@dataclass(frozen=True)
class CheckResult:
    """One declared-hypothesis or counter-assertion verdict."""

    name: str
    ok: bool
    detail: str


@dataclass
class CompiledScenario:
    """One manifest's scenario plus what ``--run`` checks after it."""

    scenario: Union[Scenario, FederationScenario]
    checks: Tuple[str, ...] = ()
    counter_assertions: Tuple[CounterAssertion, ...] = ()
    #: ``workload.seed`` when it was a literal integer.
    seed_override: Optional[int] = None

    def run(self, seed: int = 0, tiebreak_seed: int = 0,
            detect_races: bool = False):
        """One run on a fresh engine: its ChaosReport."""
        return ChaosEngine(self.scenario, seed=seed,
                           tiebreak_seed=tiebreak_seed,
                           detect_races=detect_races).run()

    def verify(self, report) -> List[CheckResult]:
        """Evaluate the declared hypotheses and counter assertions
        against a finished run's report."""
        results: List[CheckResult] = []
        final = {h.name: h for h in report.hypotheses
                 if h.phase == "steady-state:after"}
        for name in self.checks:
            hypothesis = final.get(name)
            if hypothesis is None:
                results.append(CheckResult(
                    name, False, "hypothesis never evaluated"))
            else:
                results.append(CheckResult(
                    name, hypothesis.ok, hypothesis.detail))
        for assertion in self.counter_assertions:
            value = report.counters.get(assertion.name)
            if value is None:
                results.append(CheckResult(
                    assertion.name, False,
                    "counter absent from the report"))
            else:
                ok, detail = assertion.check(value)
                results.append(CheckResult(assertion.name, ok, detail))
        return results


def _declared(data) -> dict:
    """A dataclass's fields that differ from their defaults: what a
    manifest must write to rebuild it."""
    return {f.name: getattr(data, f.name) for f in fields(data)
            if f.default is MISSING or getattr(data, f.name) != f.default}


def manifest_source(scenario: Union[Scenario, FederationScenario]) -> str:
    """The manifest ``scenario`` compiles from.

    Fields left at their dataclass default are not written.  The text is
    JSON, which is YAML, so it reads as any manifest does.
    """
    topology, _entry = TOPOLOGY[scenario.kind]
    declared = _declared(scenario)
    where = STEP_TARGET[scenario.kind]
    document = {
        "kind": scenario.kind,
        "name": scenario.name,
        "description": scenario.description,
        "topology": {topology: [_declared(entry) for entry
                                in getattr(scenario, topology)]},
        "workload": {key: declared[key]
                     for key in WORKLOAD_FIELDS[scenario.kind]
                     if key in declared},
        "faults": [{where if key == "target" else key: value
                    for key, value in _declared(step).items()}
                   for step in scenario.steps],
        "run": {key: declared[key] for key in RUN_FIELDS
                if key in declared},
    }
    return json.dumps({key: value for key, value in document.items()
                       if value not in ({}, [])}, indent=2) + "\n"


def compile_manifest(source: str,
                     display_path: str = "<manifest>",
                     ) -> CompiledScenario:
    """Static-check ``source`` and return the scenario it builds.

    Raises :class:`ManifestError` (carrying the findings) when the
    static pass reports anything — a manifest must lint clean before it
    is allowed anywhere near an engine.
    """
    from repro.staticcheck.manifest import analyze_manifest

    findings, _suppressed, compiled = analyze_manifest(source,
                                                       display_path)
    if findings:
        raise ManifestError(
            f"{display_path}: {len(findings)} static finding(s); "
            f"fix (or suppress with a reason) before running",
            findings)
    if compiled is None:  # empty document and similar degenerate shapes
        raise ManifestError(f"{display_path}: not a scenario manifest")
    return compiled


def compile_manifest_file(path: Path) -> CompiledScenario:
    path = Path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ManifestError(f"cannot read {path}: {err}") from None
    return compile_manifest(source, path.as_posix())
