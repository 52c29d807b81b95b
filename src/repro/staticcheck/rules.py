"""AST rules enforcing determinism, crash-injection safety and release.

Every rule walks one parsed module and emits :class:`Finding` records.
Rules resolve import aliases (``import time as t`` / ``from datetime
import datetime``) through the per-module import map built by the
engine, so the checks are not fooled by renaming.  There is no type
inference, which keeps them fast and predictable — anything a rule
cannot see (e.g. iteration over a *variable* holding a set) is covered
by the runtime kernel checks instead, and documented as such in
DESIGN.md.  DET001 and DET003 are syntactic; SAF001's re-raise check
and RES001 reason about paths through a function's CFG
(:mod:`repro.staticcheck.cfg`).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.staticcheck.cfg import (
    build_block_cfg,
    build_cfg,
    own_expr_roots,
    solve_forward,
    walk_own,
)
from repro.staticcheck.findings import Finding, RULE_CATALOG

#: Canonical dotted names of wall-clock sources.  ``time.sleep`` is
#: included: blocking the host thread inside simulation code is always a
#: bug (simulated waiting is ``yield env.timeout(...)``).
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.localtime", "time.gmtime", "time.sleep",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "date.today",
})

#: Set-producing method names (syntactic: we cannot prove the receiver is
#: a set, but these names are set vocabulary across this codebase).
SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})

#: Method names whose return value is a resource the caller must release.
ACQUIRE_METHODS = frozenset({
    "watch", "watch_prefix", "grant_lease", "acquire", "claim",
    "checkout",
})

#: Method names that release a held resource.
RELEASE_METHODS = frozenset({
    "cancel", "revoke", "release", "close", "unsubscribe", "stop",
})


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def build_import_map(tree: ast.Module) -> Dict[str, str]:
    """Map local names to canonical dotted names for every import."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                canonical = alias.name if alias.asname else local
                imports[local] = canonical
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return imports


def canonicalize(dotted: str, imports: Dict[str, str]) -> str:
    """Rewrite the head of a dotted path through the import map."""
    head, _, rest = dotted.partition(".")
    resolved = imports.get(head)
    if resolved is None:
        return dotted
    return f"{resolved}.{rest}" if rest else resolved


class Rule:
    """Base class: one code, one ``check`` pass over a module."""

    code: str = ""

    @property
    def description(self) -> str:
        return RULE_CATALOG[self.code]

    def finding(self, ctx, node: ast.AST, message: str) -> Finding:
        return Finding(self.code, ctx.display_path,
                       getattr(node, "lineno", 0), message)


class WallClockRule(Rule):
    """DET001: no wall-clock reads — simulated time comes from env.now."""

    code = "DET001"

    def check(self, ctx) -> List[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            canonical = canonicalize(dotted, ctx.imports)
            match = next((known for known in WALL_CLOCK_CALLS
                          if canonical == known
                          or canonical.endswith("." + known)), None)
            if match is not None:
                findings.append(self.finding(
                    ctx, node,
                    f"wall-clock call {match}() breaks replay "
                    f"determinism; use Environment.now"))
        return findings


class UnorderedIterationRule(Rule):
    """DET003: never iterate a set expression directly.

    Set iteration order depends on element hashes; for strings those are
    salted per interpreter run (PYTHONHASHSEED), so any set-driven loop
    whose effects reach the event queue destroys replayability.  Wrapping
    the expression in ``sorted(...)`` fixes both the finding and the bug.
    """

    code = "DET003"

    def _is_set_expression(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted in ("set", "frozenset"):
                return f"{dotted}(...)"
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in SET_METHODS:
                return f".{node.func.attr}(...)"
        return None

    def check(self, ctx) -> List[Finding]:
        findings = []
        iter_sites = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                iter_sites.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                iter_sites.extend(gen.iter for gen in node.generators)
        for site in iter_sites:
            what = self._is_set_expression(site)
            if what is not None:
                findings.append(self.finding(
                    ctx, site,
                    f"iterating {what} yields a hash-dependent order; "
                    f"wrap it in sorted(...)"))
        return findings


class InterruptSwallowRule(Rule):
    """SAF001: crash injection must never be silently absorbed.

    A handler is *broad* if it is bare or catches Exception/BaseException.
    A broad handler is safe only when an earlier clause in the same
    ``try`` catches Interrupt and re-raises, or when the broad handler's
    own body re-raises.  An explicit Interrupt handler that does not
    re-raise is flagged too: it converts an injected crash into normal
    control flow.

    Re-raising is judged *path-sensitively* over the handler body's CFG:
    a handler whose ``raise`` sits behind a condition, or that can bail
    out through an early ``return``, swallows the Interrupt on the paths
    that miss the ``raise`` and is flagged with a dedicated message.
    """

    code = "SAF001"

    @staticmethod
    def _caught_names(handler: ast.ExceptHandler,
                      imports: Dict[str, str]) -> List[str]:
        if handler.type is None:
            return ["<bare>"]
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
            else [handler.type]
        names = []
        for node in types:
            dotted = dotted_name(node)
            if dotted is not None:
                names.append(canonicalize(dotted, imports))
        return names

    @staticmethod
    def _body_reraises(handler: ast.ExceptHandler) -> bool:
        """Any raise at all, anywhere in the handler (syntactic)."""
        return any(isinstance(node, ast.Raise)
                   for node in ast.walk(handler))

    @staticmethod
    def _reraises_on_all_paths(handler: ast.ExceptHandler) -> bool:
        """No path through the handler body completes without a raise.

        An early ``return`` counts as completing (it swallows the
        exception just as surely as falling off the end does).
        """
        cfg = build_block_cfg(handler.body)
        raise_nodes = {n.index for n in cfg.nodes
                       if isinstance(n.stmt, ast.Raise)}
        return not cfg.path_exists(cfg.entry, cfg.exit,
                                   blocked=raise_nodes)

    def _swallow_finding(self, ctx, handler: ast.ExceptHandler,
                         base_message: str) -> Optional[Finding]:
        if self._reraises_on_all_paths(handler):
            return None
        if self._body_reraises(handler):
            return self.finding(
                ctx, handler,
                "handler re-raises Interrupt on only some paths; the "
                "non-raising path turns an injected crash into normal "
                "control flow")
        return self.finding(ctx, handler, base_message)

    def check(self, ctx) -> List[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Try):
                continue
            interrupt_intercepted = False
            for handler in node.handlers:
                names = self._caught_names(handler, ctx.imports)
                catches_interrupt = any(
                    name.rsplit(".", 1)[-1] == "Interrupt"
                    for name in names)
                broad = any(
                    name in ("<bare>", "Exception", "BaseException")
                    or name.endswith((".Exception", ".BaseException"))
                    for name in names)
                if catches_interrupt:
                    finding = self._swallow_finding(
                        ctx, handler,
                        "handler catches Interrupt but never re-raises; "
                        "injected crashes disappear here")
                    if finding is not None:
                        findings.append(finding)
                    interrupt_intercepted = True
                    continue
                if broad and not interrupt_intercepted:
                    caught = ", ".join(names)
                    finding = self._swallow_finding(
                        ctx, handler,
                        f"broad handler ({caught}) can swallow "
                        f"sim.core.Interrupt; add 'except Interrupt: "
                        f"raise' above it")
                    if finding is not None:
                        findings.append(finding)
        return findings


def _assigned_names(stmt: ast.AST) -> Set[str]:
    """Local names this node (re)binds, from its own expressions."""
    names: Set[str] = set()
    for node in walk_own(own_expr_roots(stmt)):
        if isinstance(node, ast.Name) and \
                isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
    if isinstance(stmt, ast.ExceptHandler) and stmt.name:
        names.add(stmt.name)
    return names


def _var_release_and_escape(stmt: ast.AST, var: str) -> Tuple[bool, bool]:
    """(released, escaped) for ``var`` in this node's own expressions.

    A load of ``var`` as the receiver of a non-release method call
    (``var.get()``) is plain *use* — neither.  A release-method call on
    it releases.  Any other load (argument, alias, return/yield value,
    container element, attribute read such as ``var.id`` passed along)
    makes the resource escape the function's responsibility.
    """
    released = False
    receiver_uses: Set[int] = set()
    for node in walk_own(own_expr_roots(stmt)):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                isinstance(node.func.value, ast.Name) and \
                node.func.value.id == var:
            if node.func.attr in RELEASE_METHODS:
                released = True
            receiver_uses.add(id(node.func.value))
    escaped = any(
        isinstance(node, ast.Name) and node.id == var
        and isinstance(node.ctx, ast.Load)
        and id(node) not in receiver_uses
        for node in walk_own(own_expr_roots(stmt)))
    return released, escaped


def _acquire_call(value: ast.AST) -> Optional[str]:
    """Dotted text of an acquire call, unwrapping ``yield <call>``."""
    if isinstance(value, (ast.Yield, ast.YieldFrom)):
        value = value.value
    if isinstance(value, ast.Call) and \
            isinstance(value.func, ast.Attribute) and \
            value.func.attr in ACQUIRE_METHODS:
        dotted = dotted_name(value.func)
        return dotted if dotted is not None else value.func.attr
    return None


def _held_resources(node, fact):
    """RES001's transfer: facts are (var, def node index, acquire-call
    text) for each resource still held after ``node``."""
    stmt = node.stmt
    live = set(fact)
    for entry in fact:
        var = entry[0]
        released, escaped = _var_release_and_escape(stmt, var)
        if released or escaped:
            live.discard(entry)
    assigned = _assigned_names(stmt)
    if assigned:
        live = {f for f in live if f[0] not in assigned}
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
            and isinstance(stmt.targets[0], ast.Name):
        acquired = _acquire_call(stmt.value)
        if acquired is not None:
            live.add((stmt.targets[0].id, node.index, acquired))
    return frozenset(live)


class ResourceLeakRule(Rule):
    """RES001: an acquired resource must be released on every exit path.

    Tracks locals bound from acquire-vocabulary calls (``watch``,
    ``watch_prefix``, ``grant_lease``, ``acquire``, ``claim``, ...).
    Passing the resource (or one of its attributes) to another call,
    storing it, returning or yielding it hands ownership elsewhere and
    ends tracking; a release-method call (``cancel``, ``revoke``,
    ``release``, ``close``, ...) discharges it.  If any path out of the
    function — including an early ``return`` or ``raise`` — still holds
    the resource untouched, the acquisition site is flagged.  The
    canonical fix is ``try/finally`` around the use.
    """

    code = "RES001"

    def check(self, ctx) -> List[Finding]:
        findings = []
        for func in ast.walk(ctx.tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_function(ctx, func))
        return findings

    def _check_function(self, ctx, func) -> List[Finding]:
        cfg = build_cfg(func)
        has_acquire = any(
            _acquire_call(node.stmt.value) is not None
            for node in cfg.stmt_nodes()
            if isinstance(node.stmt, ast.Assign))
        if not has_acquire:
            return []
        leaked_at = solve_forward(cfg, _held_resources)[cfg.exit]
        findings = []
        for var, def_index, call_text in sorted(
                leaked_at, key=lambda f: (cfg.node(f[1]).line, f[0])):
            findings.append(self.finding(
                ctx, cfg.node(def_index).stmt,
                f"{var!r} acquired via {call_text}() is not released on "
                f"every path out of this function; release it in a "
                f"try/finally (cancel/revoke/release/close)"))
        return findings


#: Every Python rule, in catalog order; the engine appends the manifest
#: rules to form ``ALL_RULES``.
PYTHON_RULES = (
    WallClockRule(),
    UnorderedIterationRule(),
    ResourceLeakRule(),
    InterruptSwallowRule(),
)
