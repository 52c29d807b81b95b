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

This module is the *single source of truth* for that schema: the field
tables below drive both the static analyzer (MAN001 unknown field /
wrong type / missing required, see :mod:`repro.staticcheck.manifest`)
and the compiler (:mod:`repro.manifest.compiler`).  Every field they
accept lowers onto a scenario dataclass field (``workload.seed`` onto
the run's seed); there is no field that is checked and then ignored.  Fault kinds and
hypothesis names are read from the chaos targets themselves; the counter
catalogs mirror what their reports carry, and
``tests/chaos/test_perturbation.py`` pins them against real reports.
The topology dataclasses (:class:`NodeGroup`, :class:`CellDef`) are the
chaos package's own, so a manifest lowers to a scenario without
conversion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.chaos.engine import NodeGroup, PlatformTarget
from repro.chaos.federation import CellDef, FederationTarget
from repro.workloads.federation_trace import FederationTraceConfig

MANIFEST_KINDS = ("chaos", "federation")

#: The ``workload.seed`` value that means "derive from the run's master
#: seed" — the deterministic default.
SEED_INHERIT = "inherit"

#: Seed spellings that couple a run to the host machine; each one is a
#: MAN004 determinism hazard.
UNSEEDED_SEED_VALUES = ("wall-clock", "random", "auto", "time", "now")


@dataclass(frozen=True)
class Field:
    """One mapping field: accepted scalar types + requiredness."""

    types: Tuple[type, ...]
    required: bool = False
    #: Human name for messages ("number", "string", ...).
    typename: str = ""

    def describe(self) -> str:
        if self.typename:
            return self.typename
        return self.types[0].__name__


def _num(required: bool = False) -> Field:
    return Field((int, float), required, "number")


def _int(required: bool = False) -> Field:
    return Field((int,), required, "integer")


def _str(required: bool = False) -> Field:
    return Field((str,), required, "string")


#: ``seed`` accepts an integer or the string "inherit"; anything else
#: is reported by MAN004, not MAN001, so the schema stays permissive.
_SEED = Field((int, str), False, "integer or 'inherit'")

# -- section field tables ---------------------------------------------------

ROOT_FIELDS: Dict[str, Field] = {
    "kind": _str(required=True),
    "name": _str(required=True),
    "description": _str(required=True),
    "topology": Field((dict,), True, "mapping"),
    "workload": Field((dict,), False, "mapping"),
    "faults": Field((list,), False, "list"),
    "run": Field((dict,), False, "mapping"),
    "hypotheses": Field((dict,), False, "mapping"),
}

NODE_GROUP_FIELDS: Dict[str, Field] = {
    "count": _int(required=True),
    "gpus_per_node": _int(required=True),
    "gpu_type": _str(required=True),
    "cpus": _num(),
    "memory_gb": _num(),
}

CELL_FIELDS: Dict[str, Field] = {
    "name": _str(required=True),
    "zone": _str(required=True),
    "gpu_nodes": _int(required=True),
    "gpus_per_node": _int(required=True),
    "gpu_type": _str(required=True),
}

CHAOS_TOPOLOGY_FIELDS: Dict[str, Field] = {
    "nodes": Field((list,), True, "list"),
}

FEDERATION_TOPOLOGY_FIELDS: Dict[str, Field] = {
    "cells": Field((list,), True, "list"),
}

CHAOS_WORKLOAD_FIELDS: Dict[str, Field] = {
    "jobs": _int(),
    "interarrival_s": _num(),
    "iterations": _int(),
    "learners": _int(),
    "gpus_per_learner": _int(),
    "gpu_type": _str(),
    "memory_gb_per_learner": _num(),
    "seed": _SEED,
}

FEDERATION_WORKLOAD_FIELDS: Dict[str, Field] = {
    "jobs": _int(),
    "arrival_window_s": _num(),
    "min_iterations": _int(),
    "max_iterations": _int(),
    "tenant_quota_gpus": _int(),
    "seed": _SEED,
}

#: An inline chaos injection step (federation adds ``cell``, drops
#: ``target``).
CHAOS_STEP_FIELDS: Dict[str, Field] = {
    "at_s": _num(required=True),
    "kind": _str(required=True),
    "target": _str(),
    "duration_s": _num(),
    "param": _num(),
}

FEDERATION_STEP_FIELDS: Dict[str, Field] = {
    "at_s": _num(required=True),
    "kind": _str(required=True),
    "cell": _str(required=True),
    "duration_s": _num(),
    "param": _num(),
}

#: A fault-plan reference splicing a named scenario's schedule.
USE_STEP_FIELDS: Dict[str, Field] = {
    "use": _str(required=True),
    "shift_s": _num(),
}

RUN_FIELDS: Dict[str, Field] = {
    "horizon_s": _num(),
    "settle_s": _num(),
}

HYPOTHESES_FIELDS: Dict[str, Field] = {
    "checks": Field((list,), False, "list"),
    "counters": Field((list,), False, "list"),
}

COUNTER_ASSERTION_FIELDS: Dict[str, Field] = {
    "name": _str(required=True),
    "max": _num(),
    "min": _num(),
    "equals": _num(),
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

#: GPU types the federated trace generator has production weights for;
#: a run draws from those some cell has
#: (:meth:`~repro.chaos.federation.FederationTarget._gpu_type_mix`).
FEDERATION_TRACE_GPU_TYPES = tuple(
    gpu_type for gpu_type, _weight in FederationTraceConfig().gpu_type_mix)

#: Largest learner shape the federated trace can draw per GPU type:
#: the size mix tops out at 4 GPUs/learner x 4 learners, and >2-GPU
#: learners are forced onto K80 (no 4xV100 t-shirt size).
FEDERATION_MAX_SHAPE = {
    "K80": (4, 4),   # (max learners, max gpus_per_learner)
    "V100": (4, 2),
}


def known_hypotheses(kind: str) -> Tuple[str, ...]:
    return tuple(name for name, _check in _TARGETS[kind].HYPOTHESES)


def known_fault_kinds(kind: str) -> Tuple[str, ...]:
    return tuple(_TARGETS[kind].FAULT_KINDS)


# -- typed model (what the compiler consumes) -------------------------------

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


@dataclass(frozen=True)
class FaultEntry:
    """One fault-plan entry, inline or spliced (after resolution)."""

    at_s: float
    kind: str
    target: str = ""      # chaos node target
    cell: str = ""        # federation cell target
    duration_s: float = 0.0
    param: float = 0.0


@dataclass
class ManifestModel:
    """The typed view of one valid manifest."""

    kind: str
    name: str
    description: str
    node_groups: Tuple[NodeGroup, ...] = ()
    cells: Tuple[CellDef, ...] = ()
    workload: Dict[str, Any] = field(default_factory=dict)
    faults: Tuple[FaultEntry, ...] = ()
    horizon_s: Optional[float] = None
    settle_s: Optional[float] = None
    checks: Tuple[str, ...] = ()
    counter_assertions: Tuple[CounterAssertion, ...] = ()
    seed_override: Optional[int] = None
