"""The declarative scenario-manifest schema.

A scenario manifest is a small YAML document with five sections:

``topology``
    what exists — GPU node groups (``kind: chaos``) or whole cells
    (``kind: federation``);
``workload``
    the seeded job churn / trace parameters driven against it;
``faults``
    the fault plan — a list of inline injection steps and/or ``use:``
    references that splice a named scenario's schedule;
``run``
    the observation window (horizon + settle);
``hypotheses``
    the steady-state checks and counter assertions ``repro validate
    --run`` verifies after the run.

The chaos dataclasses are the schema.  A topology entry is a
:class:`NodeGroup` or :class:`CellDef`, a fault is an
:class:`InjectionStep` (a federation spells its ``target`` as ``cell``),
``run`` holds the scenario's ``horizon_s`` / ``settle_s`` and
``workload`` every other scalar scenario field, plus ``seed`` and (for
``kind: chaos``) the ``size_mix`` list of :class:`JobShape` entries.  The
field tables the static analyzer (MAN001 unknown field / wrong type /
missing required, :mod:`repro.staticcheck.manifest`) and the printer
read are derived from those dataclasses with :func:`dataclass_fields`,
so a new field is one edit to its dataclass.  Only the sections with no
dataclass behind them (root, ``use:`` steps, hypotheses) are written
out here.  Fault kinds and hypothesis names are read from the chaos
targets themselves; the counter catalogs mirror what their reports
carry, and ``tests/chaos/test_perturbation.py`` pins them against real
reports.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, replace
from typing import Dict, Optional, Tuple, get_type_hints

from repro.chaos.engine import (
    InjectionStep,
    JobShape,
    NodeGroup,
    PlatformTarget,
    Scenario,
)
from repro.chaos.federation import (
    CellDef,
    FederationScenario,
    FederationTarget,
)

MANIFEST_KINDS = ("chaos", "federation")

#: The ``workload.seed`` value that means "derive from the run's master
#: seed" — the deterministic default.
SEED_INHERIT = "inherit"


@dataclass(frozen=True)
class Field:
    """One mapping field: its name in messages, the YAML values it
    accepts, and whether it is required."""

    typename: str
    types: Tuple[type, ...]
    required: bool = False


@dataclass(frozen=True)
class CounterAssertion:
    name: str
    max: Optional[float] = None
    min: Optional[float] = None
    equals: Optional[float] = None

    def check(self, value: float) -> Tuple[bool, str]:
        clauses = []
        ok = True
        if self.equals is not None:
            ok = ok and value == self.equals
            clauses.append(f"== {self.equals:g}")
        if self.max is not None:
            ok = ok and value <= self.max
            clauses.append(f"<= {self.max:g}")
        if self.min is not None:
            ok = ok and value >= self.min
            clauses.append(f">= {self.min:g}")
        return ok, f"{self.name}={value:g} {' and '.join(clauses)}"


#: How a scalar dataclass annotation reads in a manifest.
_SCALARS = {
    bool: Field("boolean", (bool,)),
    int: Field("integer", (int,)),
    float: Field("number", (int, float)),
    Optional[float]: Field("number", (int, float)),
    str: Field("string", (str,)),
}


def dataclass_fields(cls, rename: Optional[Dict[str, str]] = None,
                     required: Tuple[str, ...] = ()) -> Dict[str, Field]:
    """The manifest fields of dataclass ``cls``: each scalar field, in
    declaration order, required when it has no default (or is named in
    ``required``).  ``rename`` maps a field to the key a manifest
    spells it as."""
    hints = get_type_hints(cls)
    return {(rename or {}).get(f.name, f.name): replace(
                _SCALARS[hints[f.name]],
                required=f.default is MISSING or f.name in required)
            for f in fields(cls) if hints[f.name] in _SCALARS}


# -- section field tables ---------------------------------------------------

_LIST = Field("list", (list,))
_MAPPING = Field("mapping", (dict,))
_STRING = _SCALARS[str]

ROOT_FIELDS: Dict[str, Field] = {
    "kind": replace(_STRING, required=True),
    "name": replace(_STRING, required=True),
    "description": replace(_STRING, required=True),
    "topology": replace(_MAPPING, required=True),
    "workload": _MAPPING,
    "faults": _LIST,
    "run": _MAPPING,
    "hypotheses": _MAPPING,
}

#: A fault-plan reference splicing a named scenario's schedule.
USE_STEP_FIELDS: Dict[str, Field] = {
    "use": replace(_STRING, required=True),
    "shift_s": _SCALARS[float],
}

HYPOTHESES_FIELDS: Dict[str, Field] = {
    "checks": _LIST,
    "counters": _LIST,
}

COUNTER_ASSERTION_FIELDS = dataclass_fields(CounterAssertion)

#: Manifest ``kind`` -> the scenario dataclass it builds.
SCENARIO_TYPES = {"chaos": Scenario, "federation": FederationScenario}

#: Manifest ``kind`` -> the ``topology:`` key and the dataclass of each
#: of its entries.
TOPOLOGY = {"chaos": ("nodes", NodeGroup), "federation": ("cells", CellDef)}

#: Manifest ``kind`` -> the key a fault names its target under.  Every
#: federation fault kind breaks a cell, so a federation step must name
#: one; a chaos step needs a target only for a node crash.
STEP_TARGET = {"chaos": "target", "federation": "cell"}

#: The scenario fields ``run:`` sets; ``name`` and ``description`` sit
#: at the root, and ``workload:`` holds every other scalar field.
RUN_FIELDS = {key: spec for key, spec in dataclass_fields(Scenario).items()
              if key in ("horizon_s", "settle_s")}

TOPOLOGY_FIELDS = {kind: {key: replace(_LIST, required=True)}
                   for kind, (key, _entry) in TOPOLOGY.items()}
TOPOLOGY_ENTRY_FIELDS = {kind: dataclass_fields(entry)
                         for kind, (_key, entry) in TOPOLOGY.items()}

#: ``seed`` accepts an integer or the string "inherit"; anything else
#: is reported by MAN004, not MAN001, so the schema stays permissive.
WORKLOAD_FIELDS = {
    kind: {**{key: spec for key, spec
              in dataclass_fields(scenario_type).items()
              if key not in ROOT_FIELDS and key not in RUN_FIELDS},
           "seed": Field("integer or 'inherit'", (int, str))}
    for kind, scenario_type in SCENARIO_TYPES.items()}
WORKLOAD_FIELDS["chaos"]["size_mix"] = _LIST
SIZE_MIX_FIELDS = dataclass_fields(JobShape)

STEP_FIELDS = {
    "chaos": dataclass_fields(InjectionStep),
    "federation": dataclass_fields(
        InjectionStep, {"target": STEP_TARGET["federation"]},
        required=("target",)),
}

# -- catalogs (what the engine's targets actually expose) -------------------

#: Manifest ``kind`` -> the chaos target that runs it.
_TARGETS = {"chaos": PlatformTarget, "federation": FederationTarget}

#: Counters a ChaosReport from the single-platform engine carries.
CHAOS_COUNTERS = (
    "jobs-submitted",
    "submit-failures",
    "jobs-completed",
    "jobs-terminal",
    "writes-enqueued",
    "writes-flushed",
    "write-errors",
    "peak-buffered-writes",
    "degraded-windows",
    "mongo-retries",
    "etcd-retries",
    "faults-injected",
    "mongo-failovers",
    "schedule-conflicts",
)

#: Fixed federation-report counters; per-cell counters are derived from
#: the declared cells (``<cell>-jobs`` / ``<cell>-completed``) and
#: dispatcher counters carry the ``fed-`` prefix.
FEDERATION_COUNTERS = (
    "cells",
    "total-gpus",
    "intents-submitted",
    "submit-rejections",
    "bus-messages",
    "faults-injected",
    "schedule-conflicts",
    "fed-submitted",
    "fed-rejected-quota",
    "fed-dispatched",
    "fed-spillovers",
    "fed-migrations",
    "fed-fenced",
    "fed-stale-notifications",
    "fed-double-executions",
    "fed-completed",
    "fed-failed",
)

#: Suffixes of the per-cell counters the federation report derives.
FEDERATION_CELL_COUNTER_SUFFIXES = ("-jobs", "-completed")


def known_hypotheses(kind: str) -> Tuple[str, ...]:
    return tuple(name for name, _check in _TARGETS[kind].HYPOTHESES)


def known_fault_kinds(kind: str) -> Tuple[str, ...]:
    return tuple(_TARGETS[kind].FAULT_KINDS)
