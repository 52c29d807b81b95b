"""Static analysis of scenario manifests — the MAN rule family.

Python rules walk ASTs; these rules walk the positioned YAML tree of a
scenario manifest (:mod:`repro.scenario.yamlpos`) against the schema the
scenario dataclasses declare (:mod:`repro.scenario.schema`) *before a
single sim event runs*, and build the scenario as they go:

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
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos import InjectionStep, JobShape, SCENARIOS
from repro.errors import SimulationError
from repro.scenario.compiler import CompiledScenario
from repro.scenario.schema import (
    COUNTER_ASSERTION_FIELDS,
    CounterAssertion,
    Field,
    HYPOTHESES_FIELDS,
    MANIFEST_KINDS,
    ROOT_FIELDS,
    RUN_FIELDS,
    SCENARIO_TYPES,
    SEED_INHERIT,
    SIZE_MIX_FIELDS,
    STEP_FIELDS,
    STEP_TARGET,
    TOPOLOGY,
    TOPOLOGY_ENTRY_FIELDS,
    TOPOLOGY_FIELDS,
    USE_STEP_FIELDS,
    WORKLOAD_FIELDS,
    known_counters,
    known_fault_kinds,
    known_hypotheses,
)
from repro.scenario.yamlpos import YamlNode, YamlPosError, \
    parse_manifest_source
from repro.staticcheck.findings import Finding, RULE_CATALOG
from repro.staticcheck.suppress import apply_suppressions
from repro.workloads.federation_trace import drawn_shapes, trace_gpu_type_mix
from repro.workloads.trace import GPU_TYPE_MIX

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
    return isinstance(value, spec.types)


class _Analysis:
    """Single walk over one manifest; collects findings for every MAN
    code and builds the scenario from what is well-typed."""

    def __init__(self, root: Optional[YamlNode], path: str):
        self.root = root
        self.path = path
        self.findings: List[Finding] = []
        self.kind: Optional[str] = None
        self.scenario = None
        self.compiled: Optional[CompiledScenario] = None
        #: (NodeGroup or CellSpec, its source node) — the node is the
        #: finding anchor for capacity/unreferenced diagnostics.
        self._blocks: List[Tuple[Any, YamlNode]] = []
        self._topology_node: Optional[YamlNode] = None
        self._workload_node: Optional[YamlNode] = None
        #: Scenario fields the workload and run sections declare.
        self._values: Dict[str, Any] = {}
        #: Every step, inline and spliced from ``use:`` references.
        self._steps: List[InjectionStep] = []
        #: The inline steps, with the entry each is written as.
        self._inline: List[Tuple[InjectionStep, YamlNode]] = []
        self._checks: List[str] = []
        self._assertions: List[CounterAssertion] = []
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
                       section: str) -> Dict[str, Any]:
        """MAN001 over one mapping: unknown keys, types, required.
        Returns the well-typed values, numbers as floats."""
        values = {}
        for key, child in node.items():
            spec = fields.get(key)
            line, column = node.key_mark(key)
            if spec is None:
                self._emit("MAN001", line, column,
                           f"unknown field {key!r} in {section}")
            elif not _matches(child.value, spec):
                self._emit(
                    "MAN001", child.line, child.column,
                    f"field {key!r} in {section} expects "
                    f"{spec.typename}, got {_typename(child.value)}")
            else:
                values[key] = float(child.value) \
                    if float in spec.types else child.value
        for key, spec in fields.items():
            if spec.required and node.get(key) is None:
                self._emit("MAN001", node.line, node.column,
                           f"missing required field {key!r} in {section}")
        return values

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
        self.scenario = self._build_scenario(root)

        self._check_infeasibility()
        self._check_dead_and_shadowed()
        self.compiled = CompiledScenario(
            self.scenario, tuple(self._checks), tuple(self._assertions),
            self._seed_override)

    def _build_scenario(self, root: YamlNode):
        """What the manifest declares, over the dataclass defaults."""
        topology, _entry = TOPOLOGY[self.kind]
        blocks = tuple(block for block, _node in self._blocks)
        values = dict(self._values)
        # A federation has no default cells (an empty list is MAN001).
        if blocks or self.kind == "federation":
            values[topology] = blocks
        return SCENARIO_TYPES[self.kind](
            name=str(root.scalar("name", "")),
            description=str(root.scalar("description", "")),
            steps=tuple(sorted(self._steps, key=lambda step: (
                step.at_s, step.kind, step.target))),
            **values)

    # -- sections -----------------------------------------------------------

    def _walk_topology(self, node: Optional[YamlNode]) -> None:
        if node is None or not node.is_mapping:
            return
        self._topology_node = node
        self._check_mapping(node, TOPOLOGY_FIELDS[self.kind], "topology")
        key, entry_type = TOPOLOGY[self.kind]
        entries = node.get(key)
        if entries is None or not entries.is_sequence:
            return
        if self.kind == "federation" and not entries.value:
            line, column = node.key_mark(key)
            self._emit("MAN001", line, column,
                       "a federation topology needs at least one cell")
            return
        fields = TOPOLOGY_ENTRY_FIELDS[self.kind]
        section = f"topology.{key} entry"
        for entry in entries:
            if not entry.is_mapping:
                self._emit("MAN001", entry, 0, f"{section} must be a mapping")
                continue
            values = self._check_mapping(entry, fields, section)
            if any(spec.required and name not in values
                   for name, spec in fields.items()):
                continue
            block = entry_type(**values)
            if self.kind == "chaos" and any(
                    group.gpu_type == block.gpu_type
                    for group, _node in self._blocks):
                self._emit(
                    "MAN001", entry, 0,
                    f"duplicate topology.nodes group for gpu_type "
                    f"{block.gpu_type!r}: node names are derived as "
                    f"node-{block.gpu_type}-<i> and would collide")
                continue
            self._blocks.append((block, entry))

    def _walk_workload(self, node: Optional[YamlNode]) -> None:
        if node is None or not node.is_mapping:
            return
        self._workload_node = node
        values = self._check_mapping(node, WORKLOAD_FIELDS[self.kind],
                                     "workload")
        values.pop("seed", None)
        if "size_mix" in values:
            values["size_mix"] = self._size_mix(node.get("size_mix"))
        self._values.update(values)
        self._check_seed(node)
        self._check_wallclock(node, "workload")

    def _size_mix(self, node: YamlNode) -> Tuple[JobShape, ...]:
        """The well-typed shapes of ``workload.size_mix``."""
        section = "workload.size_mix entry"
        shapes = []
        for entry in node:
            if entry.is_mapping:
                shapes.append(JobShape(**self._check_mapping(
                    entry, SIZE_MIX_FIELDS, section)))
            else:
                self._emit("MAN001", entry, 0, f"{section} must be a mapping")
        if not node.value:
            self._emit("MAN001", node, 0,
                       "workload.size_mix needs at least one shape")
        return tuple(shapes) or (JobShape(),)

    def _walk_run(self, node: Optional[YamlNode]) -> None:
        if node is None or not node.is_mapping:
            return
        self._values.update(self._check_mapping(node, RUN_FIELDS, "run"))

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
        where = STEP_TARGET[self.kind]
        values = self._check_mapping(step, STEP_FIELDS[self.kind],
                                     "faults entry")
        if where in values:
            values["target"] = values.pop(where)
        kind = values.get("kind")
        if kind is not None and kind not in known_fault_kinds(self.kind):
            self._emit(
                "MAN002", step.get("kind"), 0,
                f"fault kind {kind!r} is not a registered {self.kind} "
                f"fault kind; known: "
                f"{', '.join(known_fault_kinds(self.kind))}")
            kind = None
        target = values.get("target")
        if target:
            if self.kind == "chaos":
                declared = {name for group, _node in self._blocks
                            for name in group.node_names()}
                message = (f"fault targets undeclared node {target!r}; "
                           f"the topology provisions: ")
            else:
                declared = {cell.name for cell, _node in self._blocks}
                message = (f"fault targets undeclared cell {target!r}; "
                           f"declared: ")
            if declared and target not in declared:
                self._emit("MAN002", step.get(where), 0,
                           message + ", ".join(sorted(declared)))
        if "at_s" not in values or kind is None:
            return
        try:  # the dataclass rejects values no run can mean
            built = InjectionStep(**values)
        except ValueError as err:
            self._emit("MAN001", step, 0, str(err))
            return
        if "param" in values and kind in _PARAM_RANGES:
            in_range, meaning = _PARAM_RANGES[kind]
            if not in_range(built.param):
                param = step.get("param")
                self._emit("MAN001", param, 0,
                           f"{kind} param {param.value!r} is out of "
                           f"range: it is {meaning}")
        self._steps.append(built)
        self._inline.append((built, step))

    def _walk_use_step(self, step: YamlNode) -> None:
        values = self._check_mapping(step, USE_STEP_FIELDS, "faults entry")
        name = values.get("use")
        if name is None:
            return
        scenario = SCENARIOS.get(name)
        if scenario is None:
            self._emit("MAN002", step.get("use"), 0,
                       f"use: references unknown scenario {name!r}")
            return
        if scenario.kind != self.kind:
            self._emit(
                "MAN002", step.get("use"), 0,
                f"use: scenario {name!r} is a {scenario.kind} scenario; "
                f"this manifest is kind: {self.kind}")
            return
        shift = values.get("shift_s", 0.0)
        try:
            self._steps.extend([replace(spliced, at_s=spliced.at_s + shift)
                                for spliced in scenario.steps])
        except ValueError as err:
            self._emit("MAN001", step, 0, str(err))

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

    def _walk_counter_assertion(self, item: YamlNode) -> None:
        if not item.is_mapping:
            self._emit("MAN001", item, 0,
                       "hypotheses.counters entry must be a mapping")
            return
        values = self._check_mapping(item, COUNTER_ASSERTION_FIELDS,
                                     "hypotheses.counters entry")
        if not values.keys() - {"name"}:
            self._emit("MAN001", item, 0,
                       "counter assertion needs at least one of "
                       "'max', 'min', 'equals'")
        name = values.get("name")
        if name is None:
            return
        cells = tuple(block.name for block, _node in self._blocks) \
            if self.kind == "federation" else ()
        if name not in known_counters(self.kind, cells):
            self._emit(
                "MAN002", item.get("name"), 0,
                f"unknown counter {name!r} for kind {self.kind}; the "
                f"report will never carry it")
            return
        self._assertions.append(CounterAssertion(**values))

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
        if not self._blocks:
            return
        scenario = self.scenario
        gpu_type = scenario.gpu_type
        groups = [g for g, _node in self._blocks if g.gpu_type == gpu_type]
        if not groups:
            declared = sorted({g.gpu_type for g, _node in self._blocks})
            self._emit(
                "MAN003", self._anchor(), 0,
                f"workload demands gpu_type {gpu_type!r} but the "
                f"topology declares no {gpu_type} capacity "
                f"(declared: {', '.join(declared)})")
            return
        largest = max(g.gpus_per_node for g in groups)
        for shape in scenario.size_mix:
            per_learner = shape.gpus_per_learner
            if per_learner > largest:
                self._emit(
                    "MAN003", self._anchor(), 0,
                    f"a learner needs {per_learner} {gpu_type} GPUs but "
                    f"the largest declared node has {largest} (no bin "
                    f"fits the item)")
                continue
            placeable = sum(g.count * (g.gpus_per_node // per_learner)
                            for g in groups)
            if shape.learners > placeable:
                self._emit(
                    "MAN003", self._anchor(), 0,
                    f"a {shape.learners}-learner gang at {per_learner} "
                    f"GPUs each can never place: the topology fits at "
                    f"most {placeable} such learners simultaneously "
                    f"(bin-packing lower bound)")
        memory = scenario.memory_gb_per_learner
        if memory is not None:
            max_memory = max(g.memory_gb for g in groups)
            if memory > max_memory:
                self._emit(
                    "MAN003", self._anchor(), 0,
                    f"a learner needs {memory:g} GB but the largest "
                    f"declared node has {max_memory:g} GB")

    def _trace_gpu_type_mix(self):
        """The run's trace GPU-type mix (the types it has weights for
        that some cell has), or ``None`` when there are none."""
        try:
            return trace_gpu_type_mix(
                cell.gpu_type for cell in self.scenario.cells)
        except SimulationError:
            return None

    def _check_federation_capacity(self) -> None:
        if not self._blocks:
            return
        mix = self._trace_gpu_type_mix()
        if mix is None:
            declared = sorted({c.gpu_type for c, _node in self._blocks})
            known = [t for t, _w in GPU_TYPE_MIX]
            self._emit(
                "MAN003", self._anchor(), 0,
                f"the trace has no production weights for any declared "
                f"cell GPU type (declared: {', '.join(declared)}; "
                f"trace knows: {', '.join(known)})")
            return
        for gpu_type, shapes in drawn_shapes(mix).items():
            cells = [(c, node) for c, node in self._blocks
                     if c.gpu_type == gpu_type]
            stuck = ", ".join(
                f"{learners}x{per_learner}" for learners, per_learner
                in shapes if not any(self._cell_fits(c, learners,
                                                     per_learner)
                                     for c, _node in cells))
            if not stuck:
                continue
            if cells:
                self._emit(
                    "MAN003", cells[0][1], 0,
                    f"trace job shapes {stuck} (learners x {gpu_type} "
                    f"GPUs each) cannot be placed in any declared "
                    f"{gpu_type} cell (bin-packing lower bound); they "
                    f"would queue forever")
            else:
                self._emit(
                    "MAN003", self._anchor(), 0,
                    f"trace job shapes {stuck} (learners x {gpu_type} "
                    f"GPUs each) run on {gpu_type}, which no declared "
                    f"cell offers; they would queue forever")

    @staticmethod
    def _cell_fits(cell, learners: int, per_learner: int) -> bool:
        if per_learner > cell.gpus_per_node:
            return False
        per_node = cell.gpus_per_node // per_learner
        return math.ceil(learners / per_node) <= cell.gpu_nodes

    # -- MAN005 -------------------------------------------------------------

    def _check_dead_and_shadowed(self) -> None:
        end = self.scenario.horizon_s + self.scenario.settle_s
        for step, node in self._inline:
            if step.at_s >= end:
                self._emit(
                    "MAN005", node, 0,
                    f"dead fault: t={step.at_s:g}s is past the end of "
                    f"the run (horizon+settle = {end:g}s); it never "
                    f"fires")
        # A fault inside an earlier whole-cell blackout (or node-crash)
        # window of its own target hits a component that is already
        # dark — it is shadowed, not composed.
        blackout_kind = "node-crash" if self.kind == "chaos" \
            else "cell-blackout"
        windows = [(step.target, step.at_s, step.at_s + step.duration_s)
                   for step, _node in self._inline
                   if step.kind == blackout_kind and step.duration_s > 0
                   and step.mtbf_s is None]
        for step, node in self._inline:
            if not step.target or step.mtbf_s is not None:
                continue
            for w_target, w_start, w_end in windows:
                if w_target == step.target and \
                        w_start < step.at_s < w_end:
                    self._emit(
                        "MAN005", node, 0,
                        f"fault at t={step.at_s:g}s on "
                        f"{step.target!r} is shadowed by the "
                        f"{blackout_kind} window "
                        f"[{w_start:g}s, {w_end:g}s] on the same "
                        f"target (already dark)")
                    break
        self._check_unreferenced_topology()

    def _check_unreferenced_topology(self) -> None:
        targets = {step.target for step in self._steps if step.target}
        if self.kind == "chaos":
            for group, node in self._blocks:
                if group.gpu_type == self.scenario.gpu_type or \
                        targets & set(group.node_names()):
                    continue
                self._emit(
                    "MAN005", node, 0,
                    f"unreferenced topology block: {group.count} "
                    f"{group.gpu_type} node(s) serve no workload "
                    f"demand and no fault targets them")
        else:
            served = {gpu_type for gpu_type, _weight
                      in self._trace_gpu_type_mix() or ()}
            for cell, node in self._blocks:
                if cell.gpu_type in served or cell.name in targets:
                    continue
                self._emit(
                    "MAN005", node, 0,
                    f"unreferenced topology block: cell "
                    f"{cell.name!r} ({cell.gpu_type}) serves no trace "
                    f"demand and no fault targets it")


def analyze_manifest(source: str, display_path: str = "<manifest>",
                     ) -> Tuple[List[Finding], List[Finding],
                                Optional[CompiledScenario]]:
    """Run the MAN rules over one manifest's YAML source.

    Returns ``(findings, suppressed, compiled)``.  ``compiled`` holds
    the scenario built from the manifest's well-typed fields; it is only
    trustworthy when no finding was reported.
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
    return findings, suppressed, analysis.compiled


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
