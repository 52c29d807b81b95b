"""Declarative scenario manifests.

A manifest is a ~20-line YAML document (topology, workload, fault plan,
run window, steady-state hypotheses) that spells a scenario dataclass:
apart from ``workload.seed``, every field it accepts is a field of one.  The named scenarios are
Python data (:mod:`repro.chaos.scenarios`), and ``manifest_source``
prints any of them as a manifest.  The package splits into:

* :mod:`repro.manifest.yamlpos` — position-aware YAML loading (every
  value knows its line/column, so findings anchor precisely);
* :mod:`repro.manifest.schema` — the field tables, derived from the
  :class:`~repro.chaos.engine.Scenario` /
  :class:`~repro.chaos.federation.FederationScenario` dataclasses and
  their topology and step records, plus the hypothesis/counter
  catalogs;
* :mod:`repro.manifest.compiler` — the MAN-gated scenario, which the
  one :class:`~repro.chaos.engine.ChaosEngine` runs, and the printer
  back.

The static analyzer itself lives with its rule family in
:mod:`repro.staticcheck.manifest`; ``repro validate <manifest>`` is the
CLI front-end (:mod:`repro.cli`).
"""

from __future__ import annotations

from repro.manifest.compiler import (
    CheckResult,
    CompiledScenario,
    ManifestError,
    compile_manifest,
    compile_manifest_file,
    manifest_source,
)
from repro.manifest.schema import CounterAssertion
from repro.manifest.yamlpos import (
    YamlNode,
    YamlPosError,
    parse_manifest_source,
)

__all__ = [
    "CheckResult",
    "CompiledScenario",
    "CounterAssertion",
    "ManifestError",
    "YamlNode",
    "YamlPosError",
    "compile_manifest",
    "compile_manifest_file",
    "manifest_source",
    "parse_manifest_source",
]
