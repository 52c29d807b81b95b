"""Static analysis of scenario manifests — the MAN rule family.

Python rules walk ASTs; these rules walk the positioned YAML tree of a
scenario manifest (:mod:`repro.manifest.yamlpos`) against the declared
schema (:mod:`repro.manifest.schema`) *before a single sim event runs*:

* **MAN001** — schema violations: unknown field, wrong type, missing
  required field, invalid ``kind``, a brownout ``param`` outside the
  range its target reads;
* **MAN002** — dangling cross-references: fault plans targeting
  nodes/cells the topology never declares, ``use:`` references to
  unknown scenarios, hypotheses naming unknown checks or counters;
* **MAN003** — static infeasibility: workload demand provably exceeding
  declared GPU/memory capacity (bin-packing lower bound);
* **MAN004** — determinism hazards: an unseeded workload, absolute
  wall-clock timestamps in a relative-time schedule;
* **MAN005** — dead or shadowed declarations: faults scheduled after
  the observation window, faults inside a whole-cell blackout (or
  node-crash) window of their own target, duplicate mapping keys,
  unreferenced topology blocks.

Every finding anchors at the YAML line *and column* of the offending
token, and flows through the ordinary findings/suppression machinery —
``# staticcheck: ignore[MAN003] reason`` works in YAML comments exactly
as it does in Python source.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos import (
    CellDef,
    FederationScenario,
    NodeGroup,
    SCENARIOS,
    Scenario,
)
from repro.manifest.schema import (
    CHAOS_COUNTERS,
    CHAOS_STEP_FIELDS,
    CHAOS_TOPOLOGY_FIELDS,
    CHAOS_WORKLOAD_FIELDS,
    CELL_FIELDS,
    COUNTER_ASSERTION_FIELDS,
    CounterAssertion,
    FEDERATION_CELL_COUNTER_SUFFIXES,
    FEDERATION_COUNTERS,
    FEDERATION_MAX_SHAPE,
    FEDERATION_STEP_FIELDS,
    FEDERATION_TOPOLOGY_FIELDS,
    FEDERATION_TRACE_GPU_TYPES,
    FEDERATION_WORKLOAD_FIELDS,
    Field,
    FaultEntry,
    HYPOTHESES_FIELDS,
    MANIFEST_KINDS,
    ManifestModel,
    NODE_GROUP_FIELDS,
    ROOT_FIELDS,
    RUN_FIELDS,
    SEED_INHERIT,
    USE_STEP_FIELDS,
    known_fault_kinds,
    known_hypotheses,
)
from repro.manifest.yamlpos import YamlNode, YamlPosError, \
    parse_manifest_source
from repro.staticcheck.findings import Finding, RULE_CATALOG
from repro.staticcheck.suppress import apply_suppressions

#: Default observation windows: the scenario dataclass defaults.
_DEFAULT_WINDOW = {scenario_type.kind: (scenario_type.horizon_s,
                                        scenario_type.settle_s)
                   for scenario_type in (Scenario, FederationScenario)}

#: Fault kinds whose target reads ``param``, the values that mean what
#: they say, and what they mean.  The targets read ``param or default``,
#: so an explicit 0 silently means the default, and a cell-brownout
#: factor below 1 speeds the cell up.
_PARAM_RANGES = {
    "cell-brownout": (lambda param: param > 1,
                      "a latency inflation factor > 1"),
    "oss-brownout": (lambda param: 0 < param <= 1,
                     "a bandwidth fraction in (0, 1]"),
}

#: An absolute date(-time) literal — a wall-clock anchor in a schedule
#: that is otherwise entirely relative seconds.
_WALLCLOCK_RE = re.compile(
    r"^\d{4}-\d{2}-\d{2}([T ]\d{2}:\d{2}(:\d{2})?)?$")


def _typename(value: Any) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, dict):
        return "mapping"
    if isinstance(value, list):
        return "list"
    if value is None:
        return "null"
    return type(value).__name__


def _matches(value: Any, spec: Field) -> bool:
    if isinstance(value, bool):
        return bool in spec.types
    if isinstance(value, YamlNode):  # mappings/sequences arrive wrapped
        value = value.value
    for accepted in spec.types:
        if accepted is dict and isinstance(value, dict):
            return True
        if accepted is list and isinstance(value, list):
            return True
        if accepted in (int, float, str) and isinstance(value, accepted):
            return True
        if accepted is float and isinstance(value, int):
            return True
    return False


@dataclass
class _FaultStep:
    """One resolved fault entry plus its source anchor."""

    entry: FaultEntry
    line: int
    column: int
    spliced: bool = False  # came from a use: reference


class _Analysis:
    """Single walk over one manifest; collects findings for every MAN
    code and builds the best-effort typed model the compiler uses."""

    def __init__(self, root: Optional[YamlNode], path: str):
        self.root = root
        self.path = path
        self.findings: List[Finding] = []
        self.kind: Optional[str] = None
        self.model: Optional[ManifestModel] = None
        #: (typed block, its source node) — the node is the finding
        #: anchor for capacity/unreferenced diagnostics.
        self._node_groups: List[Tuple[NodeGroup, YamlNode]] = []
        self._cells: List[Tuple[CellDef, YamlNode]] = []
        self._topology_node: Optional[YamlNode] = None
        self._workload_node: Optional[YamlNode] = None
        self._workload: Dict[str, Any] = {}
        self._steps: List[_FaultStep] = []
        self._checks: List[str] = []
        self._assertions: List[CounterAssertion] = []
        self._horizon: Optional[float] = None
        self._settle: Optional[float] = None
        self._seed_override: Optional[int] = None

    # -- helpers ------------------------------------------------------------

    def _emit(self, code: str, node_or_line, column: int = 0,
              message: str = "") -> None:
        if isinstance(node_or_line, YamlNode):
            line, column = node_or_line.line, node_or_line.column
        else:
            line = node_or_line
        self.findings.append(Finding(code, self.path, line, message,
                                     column=column))

    def _check_mapping(self, node: YamlNode, fields: Dict[str, Field],
                       section: str) -> None:
        """MAN001 over one mapping: unknown keys, types, required."""
        for key, child in node.items():
            spec = fields.get(key)
            line, column = node.key_mark(key)
            if spec is None:
                self._emit("MAN001", line, column,
                           f"unknown field {key!r} in {section}")
                continue
            if not _matches(child.value, spec):
                self._emit(
                    "MAN001", child.line, child.column,
                    f"field {key!r} in {section} expects "
                    f"{spec.describe()}, got {_typename(child.value)}")
        for key, spec in fields.items():
            if spec.required and node.get(key) is None:
                self._emit("MAN001", node.line, node.column,
                           f"missing required field {key!r} in {section}")

    def _typed(self, node: YamlNode, key: str, fields: Dict[str, Field],
               default: Any = None) -> Any:
        """The value for ``key`` when present *and* well-typed."""
        child = node.get(key)
        if child is None or not _matches(child.value, fields[key]):
            return default
        return child.value

    def _duplicates(self, node: YamlNode) -> None:
        """MAN005: a re-declared key silently shadows the earlier one."""
        if node.is_mapping:
            for key, line, column in node.duplicate_keys:
                self._emit(
                    "MAN005", line, column,
                    f"duplicate key {key!r} shadows the earlier "
                    f"declaration (the later value silently wins)")
            for _key, child in node.items():
                self._duplicates(child)
        elif node.is_sequence:
            for child in node:
                self._duplicates(child)

    # -- drive --------------------------------------------------------------

    def run(self) -> None:
        root = self.root
        if root is None:
            self._emit("MAN001", 1, 1, "manifest is empty")
            return
        if not root.is_mapping:
            self._emit("MAN001", root.line, root.column,
                       "manifest root must be a mapping")
            return
        self._duplicates(root)
        self._check_mapping(root, ROOT_FIELDS, "manifest root")

        kind = root.scalar("kind")
        if isinstance(kind, str) and kind not in MANIFEST_KINDS:
            node = root.get("kind")
            self._emit("MAN001", node, 0,
                       f"unknown manifest kind {kind!r}; known: "
                       f"{', '.join(MANIFEST_KINDS)}")
            kind = None
        if kind not in MANIFEST_KINDS:
            return  # kind-specific analysis needs a valid kind
        self.kind = kind

        self._walk_topology(root.get("topology"))
        self._walk_workload(root.get("workload"))
        self._walk_run(root.get("run"))
        self._walk_faults(root.get("faults"))
        self._walk_hypotheses(root.get("hypotheses"))

        self._check_infeasibility()
        self._check_dead_and_shadowed()
        self._build_model(root)

    # -- sections -----------------------------------------------------------

    def _walk_topology(self, node: Optional[YamlNode]) -> None:
        if node is None or not node.is_mapping:
            return
        self._topology_node = node
        if self.kind == "chaos":
            self._check_mapping(node, CHAOS_TOPOLOGY_FIELDS, "topology")
            groups = node.get("nodes")
            if groups is None or not groups.is_sequence:
                return
            for group in groups:
                if not group.is_mapping:
                    self._emit("MAN001", group, 0,
                               "topology.nodes entry must be a mapping")
                    continue
                self._check_mapping(group, NODE_GROUP_FIELDS,
                                    "topology.nodes entry")
                count = self._typed(group, "count", NODE_GROUP_FIELDS)
                gpus = self._typed(group, "gpus_per_node",
                                   NODE_GROUP_FIELDS)
                gpu_type = self._typed(group, "gpu_type",
                                       NODE_GROUP_FIELDS)
                if count is None or gpus is None or gpu_type is None:
                    continue
                if any(g.gpu_type == gpu_type
                       for g, _node in self._node_groups):
                    self._emit(
                        "MAN001", group, 0,
                        f"duplicate topology.nodes group for gpu_type "
                        f"{gpu_type!r}: node names are derived as "
                        f"node-{gpu_type}-<i> and would collide")
                    continue
                self._node_groups.append((NodeGroup(
                    count=count, gpus_per_node=gpus, gpu_type=gpu_type,
                    cpus=float(self._typed(group, "cpus",
                                           NODE_GROUP_FIELDS, 64.0)),
                    memory_gb=float(self._typed(
                        group, "memory_gb", NODE_GROUP_FIELDS, 512.0))),
                    group))
        else:
            self._check_mapping(node, FEDERATION_TOPOLOGY_FIELDS,
                                "topology")
            cells = node.get("cells")
            if cells is None or not cells.is_sequence:
                return
            if not cells.value:
                line, column = node.key_mark("cells")
                self._emit("MAN001", line, column,
                           "a federation topology needs at least one cell")
                return
            for cell in cells:
                if not cell.is_mapping:
                    self._emit("MAN001", cell, 0,
                               "topology.cells entry must be a mapping")
                    continue
                self._check_mapping(cell, CELL_FIELDS,
                                    "topology.cells entry")
                name = self._typed(cell, "name", CELL_FIELDS)
                zone = self._typed(cell, "zone", CELL_FIELDS)
                nodes = self._typed(cell, "gpu_nodes", CELL_FIELDS)
                gpus = self._typed(cell, "gpus_per_node", CELL_FIELDS)
                gpu_type = self._typed(cell, "gpu_type", CELL_FIELDS)
                if None in (name, zone, nodes, gpus, gpu_type):
                    continue
                self._cells.append((CellDef(
                    name=name, zone=zone, gpu_nodes=nodes,
                    gpus_per_node=gpus, gpu_type=gpu_type), cell))

    def _walk_workload(self, node: Optional[YamlNode]) -> None:
        if node is None or not node.is_mapping:
            return
        self._workload_node = node
        fields = CHAOS_WORKLOAD_FIELDS if self.kind == "chaos" \
            else FEDERATION_WORKLOAD_FIELDS
        self._check_mapping(node, fields, "workload")
        for key, child in node.items():
            if key in fields and _matches(child.value, fields[key]):
                self._workload[key] = child.value
        self._check_seed(node)
        self._check_wallclock(node, "workload")

    def _walk_run(self, node: Optional[YamlNode]) -> None:
        if node is None or not node.is_mapping:
            return
        self._check_mapping(node, RUN_FIELDS, "run")
        self._horizon = self._typed(node, "horizon_s", RUN_FIELDS)
        self._settle = self._typed(node, "settle_s", RUN_FIELDS)

    def _walk_faults(self, node: Optional[YamlNode]) -> None:
        if node is None or not node.is_sequence:
            return  # a wrong type is MAN001 from the root walk
        self._check_wallclock(node, "faults")
        for step in node:
            if not step.is_mapping:
                self._emit("MAN001", step, 0,
                           "faults entry must be a mapping")
                continue
            if step.get("use") is not None:
                self._walk_use_step(step)
            else:
                self._walk_inline_step(step)

    def _walk_inline_step(self, step: YamlNode) -> None:
        fields = CHAOS_STEP_FIELDS if self.kind == "chaos" \
            else FEDERATION_STEP_FIELDS
        self._check_mapping(step, fields, "faults entry")
        at_s = self._typed(step, "at_s", fields)
        kind = self._typed(step, "kind", fields)
        if kind is not None and kind not in known_fault_kinds(self.kind):
            node = step.get("kind")
            self._emit(
                "MAN002", node, 0,
                f"fault kind {kind!r} is not a registered {self.kind} "
                f"fault kind; known: "
                f"{', '.join(known_fault_kinds(self.kind))}")
            kind = None
        target = self._typed(step, "target", CHAOS_STEP_FIELDS, "") \
            if self.kind == "chaos" else ""
        cell = self._typed(step, "cell", FEDERATION_STEP_FIELDS, "") \
            if self.kind == "federation" else ""
        if self.kind == "chaos" and kind == "node-crash" and not target:
            self._emit("MAN001", step, 0,
                       "missing required field 'target' for a "
                       "node-crash fault")
        if target:
            declared = {name for group, _node in self._node_groups
                        for name in group.node_names()}
            if declared and target not in declared:
                node = step.get("target")
                self._emit(
                    "MAN002", node, 0,
                    f"fault targets undeclared node {target!r}; the "
                    f"topology provisions: "
                    f"{', '.join(sorted(declared))}")
        if cell:
            declared_cells = {c.name for c, _node in self._cells}
            if declared_cells and cell not in declared_cells:
                node = step.get("cell")
                self._emit(
                    "MAN002", node, 0,
                    f"fault targets undeclared cell {cell!r}; "
                    f"declared: {', '.join(sorted(declared_cells))}")
        param = self._typed(step, "param", fields)
        if param is not None and kind in _PARAM_RANGES:
            in_range, meaning = _PARAM_RANGES[kind]
            if not in_range(param):
                self._emit("MAN001", step.get("param"), 0,
                           f"{kind} param {param!r} is out of range: it "
                           f"is {meaning}")
        if at_s is None or kind is None:
            return
        self._steps.append(_FaultStep(
            FaultEntry(
                at_s=float(at_s), kind=kind, target=target or "",
                cell=cell or "",
                duration_s=float(self._typed(step, "duration_s",
                                             fields, 0.0)),
                param=float(param or 0.0)),
            step.line, step.column))

    def _walk_use_step(self, step: YamlNode) -> None:
        self._check_mapping(step, USE_STEP_FIELDS, "faults entry")
        name = self._typed(step, "use", USE_STEP_FIELDS)
        shift = float(self._typed(step, "shift_s", USE_STEP_FIELDS, 0.0))
        if name is None:
            return
        resolved = _resolve_use(name, self.kind)
        if resolved is None:
            node = step.get("use")
            wrong_kind = _resolve_use(
                name, "federation" if self.kind == "chaos" else "chaos")
            if wrong_kind is not None:
                self._emit(
                    "MAN002", node, 0,
                    f"use: scenario {name!r} is a "
                    f"{'federation' if self.kind == 'chaos' else 'chaos'}"
                    f" scenario; this manifest is kind: {self.kind}")
            else:
                self._emit("MAN002", node, 0,
                           f"use: references unknown scenario {name!r}")
            return
        for entry in resolved:
            shifted = FaultEntry(
                at_s=entry.at_s + shift, kind=entry.kind,
                target=entry.target, cell=entry.cell,
                duration_s=entry.duration_s, param=entry.param)
            self._steps.append(_FaultStep(shifted, step.line,
                                          step.column, spliced=True))

    def _walk_hypotheses(self, node: Optional[YamlNode]) -> None:
        if node is None or not node.is_mapping:
            return
        self._check_mapping(node, HYPOTHESES_FIELDS, "hypotheses")
        checks = node.get("checks")
        if checks is not None and checks.is_sequence:
            for item in checks:
                if not item.is_scalar or not isinstance(item.value, str):
                    self._emit("MAN001", item, 0,
                               "hypotheses.checks entries must be "
                               "strings")
                    continue
                if item.value not in known_hypotheses(self.kind):
                    self._emit(
                        "MAN002", item, 0,
                        f"unknown hypothesis check {item.value!r} for "
                        f"kind {self.kind}; known: "
                        f"{', '.join(known_hypotheses(self.kind))}")
                else:
                    self._checks.append(item.value)
        counters = node.get("counters")
        if counters is not None and counters.is_sequence:
            for item in counters:
                self._walk_counter_assertion(item)

    def _known_counter(self, name: str) -> bool:
        if self.kind == "chaos":
            return name in CHAOS_COUNTERS
        if name in FEDERATION_COUNTERS:
            return True
        for suffix in FEDERATION_CELL_COUNTER_SUFFIXES:
            if name.endswith(suffix):
                cell = name[:-len(suffix)]
                return cell in {c.name for c, _node in self._cells}
        return False

    def _walk_counter_assertion(self, item: YamlNode) -> None:
        if not item.is_mapping:
            self._emit("MAN001", item, 0,
                       "hypotheses.counters entry must be a mapping")
            return
        self._check_mapping(item, COUNTER_ASSERTION_FIELDS,
                            "hypotheses.counters entry")
        name = self._typed(item, "name", COUNTER_ASSERTION_FIELDS)
        bounds = {key: self._typed(item, key, COUNTER_ASSERTION_FIELDS)
                  for key in ("max", "min", "equals")}
        if all(value is None for value in bounds.values()):
            self._emit("MAN001", item, 0,
                       "counter assertion needs at least one of "
                       "'max', 'min', 'equals'")
        if name is None:
            return
        if not self._known_counter(name):
            node = item.get("name")
            self._emit(
                "MAN002", node, 0,
                f"unknown counter {name!r} for kind {self.kind}; the "
                f"report will never carry it")
            return
        self._assertions.append(CounterAssertion(
            name=name, max=bounds["max"], min=bounds["min"],
            equals=bounds["equals"]))

    # -- MAN004 -------------------------------------------------------------

    def _check_seed(self, workload: YamlNode) -> None:
        seed = workload.get("seed")
        if seed is None:
            return
        value = seed.value
        if isinstance(value, bool) or \
                (not isinstance(value, int)
                 and value != SEED_INHERIT):
            self._emit(
                "MAN004", seed, 0,
                f"workload.seed {value!r} is not deterministic; use "
                f"an integer or 'inherit' (derive from the run seed)")
        elif isinstance(value, int):
            self._seed_override = value

    def _check_wallclock(self, node: YamlNode, section: str) -> None:
        """Absolute timestamps anywhere under a relative-time section."""
        if node.is_scalar:
            if isinstance(node.value, str) and \
                    _WALLCLOCK_RE.match(node.value.strip()):
                self._emit(
                    "MAN004", node, 0,
                    f"absolute wall-clock timestamp {node.value!r} in "
                    f"{section}; schedules are relative seconds "
                    f"(at_s) from t=0")
            return
        children = (child for _key, child in node.items()) \
            if node.is_mapping else iter(node)
        for child in children:
            self._check_wallclock(child, section)

    # -- MAN003 -------------------------------------------------------------

    def _check_infeasibility(self) -> None:
        if self.kind == "chaos":
            self._check_chaos_capacity()
        else:
            self._check_federation_capacity()

    def _anchor(self) -> YamlNode:
        """Workload section if declared, else topology, else root."""
        return self._workload_node or self._topology_node or self.root

    def _check_chaos_capacity(self) -> None:
        if not self._node_groups:
            return
        gpu_type = self._workload.get("gpu_type", "K80")
        learners = self._workload.get("learners", 1)
        per_learner = self._workload.get("gpus_per_learner", 1)
        memory = self._workload.get("memory_gb_per_learner")
        groups = [g for g, _node in self._node_groups
                  if g.gpu_type == gpu_type]
        if not groups:
            declared = sorted({g.gpu_type
                               for g, _node in self._node_groups})
            self._emit(
                "MAN003", self._anchor(), 0,
                f"workload demands gpu_type {gpu_type!r} but the "
                f"topology declares no {gpu_type} capacity "
                f"(declared: {', '.join(declared)})")
            return
        largest = max(g.gpus_per_node for g in groups)
        if per_learner > largest:
            self._emit(
                "MAN003", self._anchor(), 0,
                f"a learner needs {per_learner} {gpu_type} GPUs but "
                f"the largest declared node has {largest} (no bin fits "
                f"the item)")
            return
        placeable = sum(g.count * (g.gpus_per_node // per_learner)
                        for g in groups)
        if learners > placeable:
            self._emit(
                "MAN003", self._anchor(), 0,
                f"a {learners}-learner gang at {per_learner} GPUs each "
                f"can never place: the topology fits at most "
                f"{placeable} such learners simultaneously "
                f"(bin-packing lower bound)")
        if memory is not None:
            max_memory = max(g.memory_gb for g in groups)
            if memory > max_memory:
                self._emit(
                    "MAN003", self._anchor(), 0,
                    f"a learner needs {memory:g} GB but the largest "
                    f"declared node has {max_memory:g} GB")

    def _effective_gpu_types(self) -> List[str]:
        """The GPU types the run's trace draws: those it has weights
        for that some cell has."""
        available = {c.gpu_type for c, _node in self._cells}
        return [t for t in FEDERATION_TRACE_GPU_TYPES if t in available]

    def _check_federation_capacity(self) -> None:
        if not self._cells:
            return
        effective = self._effective_gpu_types()
        if not effective:
            declared = sorted({c.gpu_type for c, _node in self._cells})
            self._emit(
                "MAN003", self._anchor(), 0,
                f"the trace has no production weights for any declared "
                f"cell GPU type (declared: {', '.join(declared)}; "
                f"trace knows: "
                f"{', '.join(FEDERATION_TRACE_GPU_TYPES)})")
            return
        for gpu_type in effective:
            learners, per_learner = FEDERATION_MAX_SHAPE[gpu_type]
            cells = [(c, node) for c, node in self._cells
                     if c.gpu_type == gpu_type]
            if any(self._cell_fits(c, learners, per_learner)
                   for c, _node in cells):
                continue
            self._emit(
                "MAN003", cells[0][1], 0,
                f"the largest trace job shape ({learners} learners x "
                f"{per_learner} {gpu_type} GPUs) cannot be placed in "
                f"any declared {gpu_type} cell (bin-packing lower "
                f"bound); it would queue forever")

    @staticmethod
    def _cell_fits(cell: CellDef, learners: int,
                   per_learner: int) -> bool:
        if per_learner > cell.gpus_per_node:
            return False
        per_node = cell.gpus_per_node // per_learner
        return math.ceil(learners / per_node) <= cell.gpu_nodes

    # -- MAN005 -------------------------------------------------------------

    def _check_dead_and_shadowed(self) -> None:
        horizon, settle = _DEFAULT_WINDOW[self.kind]
        if self._horizon is not None:
            horizon = float(self._horizon)
        if self._settle is not None:
            settle = float(self._settle)
        end = horizon + settle
        inline = [s for s in self._steps if not s.spliced]
        for step in inline:
            if step.entry.at_s >= end:
                self._emit(
                    "MAN005", step.line, step.column,
                    f"dead fault: t={step.entry.at_s:g}s is past the "
                    f"end of the run (horizon+settle = {end:g}s); it "
                    f"never fires")
        # A fault inside an earlier whole-cell blackout (or node-crash)
        # window of its own target hits a component that is already
        # dark — it is shadowed, not composed.
        blackout_kind = "node-crash" if self.kind == "chaos" \
            else "cell-blackout"
        windows: List[Tuple[str, float, float]] = [
            (s.entry.target or s.entry.cell, s.entry.at_s,
             s.entry.at_s + s.entry.duration_s)
            for s in inline if s.entry.kind == blackout_kind
            and s.entry.duration_s > 0]
        for step in inline:
            target = step.entry.target or step.entry.cell
            if not target:
                continue
            for w_target, w_start, w_end in windows:
                if w_target == target and \
                        w_start < step.entry.at_s < w_end:
                    self._emit(
                        "MAN005", step.line, step.column,
                        f"fault at t={step.entry.at_s:g}s on "
                        f"{target!r} is shadowed by the "
                        f"{blackout_kind} window "
                        f"[{w_start:g}s, {w_end:g}s] on the same "
                        f"target (already dark)")
                    break
        self._check_unreferenced_topology()

    def _check_unreferenced_topology(self) -> None:
        targets = {s.entry.target for s in self._steps if s.entry.target}
        cells_hit = {s.entry.cell for s in self._steps if s.entry.cell}
        if self.kind == "chaos":
            demanded = {self._workload.get("gpu_type", "K80")}
            for group, node in self._node_groups:
                if group.gpu_type in demanded:
                    continue
                if targets & set(group.node_names()):
                    continue
                self._emit(
                    "MAN005", node, 0,
                    f"unreferenced topology block: {group.count} "
                    f"{group.gpu_type} node(s) serve no workload "
                    f"demand and no fault targets them")
        else:
            effective = set(self._effective_gpu_types())
            for cell, node in self._cells:
                if cell.gpu_type in effective:
                    continue
                if cell.name in cells_hit:
                    continue
                self._emit(
                    "MAN005", node, 0,
                    f"unreferenced topology block: cell "
                    f"{cell.name!r} ({cell.gpu_type}) serves no trace "
                    f"demand and no fault targets it")

    # -- model --------------------------------------------------------------

    def _build_model(self, root: YamlNode) -> None:
        self.model = ManifestModel(
            kind=self.kind,
            name=str(root.scalar("name", "")),
            description=str(root.scalar("description", "")),
            node_groups=tuple(g for g, _node in self._node_groups),
            cells=tuple(c for c, _node in self._cells),
            workload=dict(self._workload),
            faults=tuple(sorted(
                (s.entry for s in self._steps),
                key=lambda e: (e.at_s, e.kind, e.target, e.cell))),
            horizon_s=self._horizon,
            settle_s=self._settle,
            checks=tuple(self._checks),
            counter_assertions=tuple(self._assertions),
            seed_override=self._seed_override,
        )


def _resolve_use(name: str, kind: str):
    """Steps of the named scenario of this ``kind``, as
    FaultEntry records; ``None`` when there is no such scenario."""
    scenario = SCENARIOS.get(name)
    if scenario is None or scenario.kind != kind:
        return None
    # The FaultEntry field is the YAML key a step's target goes under.
    where = "target" if kind == "chaos" else "cell"
    return [FaultEntry(at_s=s.at_s, kind=s.kind, duration_s=s.duration_s,
                       param=s.param, **{where: s.target})
            for s in scenario.steps]


def analyze_manifest(source: str, display_path: str = "<manifest>",
                     ) -> Tuple[List[Finding], List[Finding],
                                Optional[ManifestModel]]:
    """Run the MAN rules over one manifest's YAML source.

    Returns ``(findings, suppressed, model)``.  ``model`` is the typed
    view the compiler consumes; it is only trustworthy when no MAN001
    or SYNTAX finding was reported.
    """
    try:
        root = parse_manifest_source(source)
    except YamlPosError as err:
        return ([Finding("SYNTAX", display_path, err.line,
                         err.message, column=err.column)], [], None)
    analysis = _Analysis(root, display_path)
    analysis.run()
    findings, suppressed = apply_suppressions(
        analysis.findings, source, display_path)
    return findings, suppressed, analysis.model


def analyze_manifest_source(source: str,
                            display_path: str = "<manifest>",
                            ) -> Tuple[List[Finding], List[Finding]]:
    """Findings/suppressed for one manifest (mirrors
    :func:`repro.staticcheck.engine.analyze_source`)."""
    findings, suppressed, _model = analyze_manifest(source, display_path)
    return findings, suppressed


class _ManifestRule:
    """Catalog registration for one MAN code.

    The MAN family runs as a single walk over the YAML tree
    (:func:`analyze_manifest`), not as independent AST visitors, so
    these objects only carry the code/description contract the rule
    registry and ``--list-rules`` rely on; ``check`` is a no-op on
    Python modules.
    """

    def __init__(self, code: str):
        self.code = code
        self.description = RULE_CATALOG[code]

    def check(self, _ctx) -> List[Finding]:
        return []


MANIFEST_RULES = tuple(_ManifestRule(code) for code in (
    "MAN001", "MAN002", "MAN003", "MAN004", "MAN005"))
