"""Lowering a validated manifest into a chaos scenario, and back.

``compile_manifest`` runs the MAN static pass first (so a manifest that
would lower into nonsense is rejected with file:line:column findings,
never a mid-run crash), then lowers the typed model into the exact
dataclasses the named scenarios are, topology included:

* ``kind: chaos`` → :class:`repro.chaos.engine.Scenario`;
* ``kind: federation`` → :class:`repro.chaos.federation.FederationScenario`.

Only the fields a manifest declares are passed, so the dataclass
defaults are the manifest defaults.  ``manifest_source`` is the inverse:
it prints the manifest a scenario compiles from, through the same
``_LOWERING`` table, so ``compile_manifest(manifest_source(s)).scenario
== s`` for every scenario.  A scenario is defined once, as Python data;
a manifest is an input format onto it.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.chaos import (
    ChaosEngine,
    FederationScenario,
    InjectionStep,
    Scenario,
)
from repro.manifest.schema import CounterAssertion, ManifestModel


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
    """One manifest lowered onto a scenario dataclass."""

    kind: str                     # "chaos" | "federation"
    name: str
    scenario: object              # Scenario | FederationScenario
    checks: Tuple[str, ...] = ()
    counter_assertions: Tuple[CounterAssertion, ...] = ()
    #: ``workload.seed`` when it was a literal integer.
    seed_override: Optional[int] = None
    source_path: str = "<manifest>"

    def build_engine(self, seed: int = 0, tiebreak_seed: int = 0,
                     detect_races: bool = False) -> ChaosEngine:
        """A fresh single-use engine for one run of this scenario."""
        return ChaosEngine(self.scenario, seed=seed,
                           tiebreak_seed=tiebreak_seed,
                           detect_races=detect_races)

    def run(self, seed: int = 0, tiebreak_seed: int = 0,
            detect_races: bool = False):
        """Compile-and-go: one ChaosReport."""
        return self.build_engine(seed=seed, tiebreak_seed=tiebreak_seed,
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


#: Manifest ``kind`` -> the scenario dataclass it lowers to, the field
#: its topology fills, and the field each ``workload:`` key sets.
_LOWERING = {
    "chaos": (Scenario, "nodes", {
        "jobs": "jobs",
        "interarrival_s": "job_interarrival_s",
        "iterations": "job_iterations",
        "learners": "job_learners",
        "gpus_per_learner": "job_gpus_per_learner",
        "gpu_type": "job_gpu_type",
        "memory_gb_per_learner": "job_memory_gb",
    }),
    "federation": (FederationScenario, "cells", {
        "jobs": "jobs",
        "arrival_window_s": "arrival_window_s",
        "min_iterations": "min_iterations",
        "max_iterations": "max_iterations",
        "tenant_quota_gpus": "tenant_quota_gpus",
    }),
}


def _lower(model: ManifestModel, path: str) -> CompiledScenario:
    scenario_type, topology, workload_fields = _LOWERING[model.kind]
    declared = {topology: model.node_groups or model.cells,
                "horizon_s": model.horizon_s, "settle_s": model.settle_s}
    declared.update((name, model.workload.get(key))
                    for key, name in workload_fields.items())
    # What the manifest leaves out is not passed: the dataclass default
    # applies.  YAML may spell a duration as an integer; the scenario
    # fields that hold seconds are floats.
    declared = {name: float(value) if name.endswith("_s") else value
                for name, value in declared.items()
                if value not in (None, ())}
    scenario = scenario_type(
        name=model.name, description=model.description,
        steps=tuple(InjectionStep(
            at_s=entry.at_s, kind=entry.kind,
            target=entry.target or entry.cell,
            duration_s=entry.duration_s, param=entry.param)
            for entry in model.faults),
        **declared)
    return CompiledScenario(
        kind=model.kind, name=model.name, scenario=scenario,
        checks=model.checks,
        counter_assertions=model.counter_assertions,
        seed_override=model.seed_override, source_path=path)


def _declared(data) -> dict:
    """A dataclass's fields that differ from their defaults: what a
    manifest must write for :func:`_lower` to rebuild it."""
    return {f.name: getattr(data, f.name) for f in fields(data)
            if f.default is MISSING or getattr(data, f.name) != f.default}


def manifest_source(scenario: Union[Scenario, FederationScenario]) -> str:
    """The manifest ``scenario`` compiles from: :func:`_lower` inverted.

    Fields left at their dataclass default are not written.  The text is
    JSON, which is YAML, so it reads as any manifest does.
    """
    _type, topology, workload_fields = _LOWERING[scenario.kind]
    declared = _declared(scenario)
    # A chaos step names a node under ``target``; a federation step
    # names its cell under ``cell``.
    where = "target" if scenario.kind == "chaos" else "cell"
    document = {
        "kind": scenario.kind,
        "name": scenario.name,
        "description": scenario.description,
        "topology": {topology: [_declared(entry) for entry
                                in getattr(scenario, topology)]},
        "workload": {key: declared[name]
                     for key, name in workload_fields.items()
                     if name in declared},
        "faults": [{where if key == "target" else key: value
                    for key, value in _declared(step).items()}
                   for step in scenario.steps],
        "run": {name: declared[name] for name in ("horizon_s", "settle_s")
                if name in declared},
    }
    return json.dumps({key: value for key, value in document.items()
                       if value not in ({}, [])}, indent=2) + "\n"


def compile_manifest(source: str,
                     display_path: str = "<manifest>",
                     ) -> CompiledScenario:
    """Static-check ``source`` and lower it.

    Raises :class:`ManifestError` (carrying the findings) when the
    static pass reports anything — a manifest must lint clean before it
    is allowed anywhere near an engine.
    """
    from repro.staticcheck.manifest import analyze_manifest

    findings, _suppressed, model = analyze_manifest(source, display_path)
    if findings:
        raise ManifestError(
            f"{display_path}: {len(findings)} static finding(s); "
            f"fix (or suppress with a reason) before running",
            findings)
    if model is None:  # empty document and similar degenerate shapes
        raise ManifestError(f"{display_path}: not a scenario manifest")
    return _lower(model, display_path)


def compile_manifest_file(path: Path) -> CompiledScenario:
    path = Path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ManifestError(f"cannot read {path}: {err}") from None
    return compile_manifest(source, path.as_posix())
