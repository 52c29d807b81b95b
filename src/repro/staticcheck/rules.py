"""AST rules enforcing determinism and crash-injection safety.

Every rule walks one parsed module and emits :class:`Finding` records.
Rules resolve import aliases (``import time as t`` / ``from random import
choice``) through the per-module import map built by the engine, so the
checks are not fooled by renaming.  They are deliberately syntactic: no
type inference, which keeps them fast and predictable — anything a rule
cannot see (e.g. iteration over a *variable* holding a set) is covered by
the runtime kernel checks instead, and documented as such in DESIGN.md.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

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

#: Functions of the *global* random instance whose draws depend on hidden
#: shared state (import order, PYTHONHASHSEED, other callers).
GLOBAL_RANDOM_CALLS = frozenset({
    "random", "randint", "randrange", "randbytes", "getrandbits",
    "choice", "choices", "shuffle", "sample", "uniform", "triangular",
    "betavariate", "binomialvariate", "expovariate", "gammavariate",
    "gauss", "lognormvariate", "normalvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "seed", "setstate",
})

#: Set-producing method names (syntactic: we cannot prove the receiver is
#: a set, but these names are set vocabulary across this codebase).
SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})

#: env.<method>() calls that mark a generator as a simulation process.
ENV_FACTORY_METHODS = frozenset({
    "timeout", "event", "process", "any_of", "all_of",
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

    def check(self, ctx) -> List[Finding]:  # pragma: no cover - abstract
        raise NotImplementedError

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


class GlobalRandomRule(Rule):
    """DET002: draws must come from named RngRegistry streams."""

    code = "DET002"

    def check(self, ctx) -> List[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            canonical = canonicalize(dotted, ctx.imports)
            if canonical == "random.Random" and not node.args \
                    and not node.keywords:
                findings.append(self.finding(
                    ctx, node,
                    "unseeded random.Random() is non-reproducible; "
                    "seed it or use RngRegistry.stream()"))
                continue
            head, _, tail = canonical.partition(".")
            if head == "random" and tail in GLOBAL_RANDOM_CALLS:
                findings.append(self.finding(
                    ctx, node,
                    f"global random.{tail}() shares hidden state across "
                    f"components; draw from an RngRegistry stream"))
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
        from repro.staticcheck.cfg import build_block_cfg

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


class NonEventYieldRule(Rule):
    """SAF002: process generators may only yield Event subclasses.

    A generator counts as a simulation process if it yields at least one
    ``env.timeout/event/process/any_of/all_of(...)`` call (receiver whose
    dotted path ends in ``env``).  Within such a generator, yielding a
    bare ``yield`` or a literal would crash the kernel at runtime with a
    non-deterministic stack; this rule moves the failure to lint time.
    """

    code = "SAF002"

    _LITERALS = (ast.Constant, ast.List, ast.Tuple, ast.Dict, ast.Set,
                 ast.JoinedStr)

    @staticmethod
    def _own_yields(func: ast.AST) -> List[ast.Yield]:
        """Yield nodes of ``func`` itself, excluding nested functions."""
        yields: List[ast.Yield] = []
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if isinstance(node, ast.Yield):
                yields.append(node)
            stack.extend(ast.iter_child_nodes(node))
        return yields

    @classmethod
    def _is_env_factory_call(cls, node: Optional[ast.AST]) -> bool:
        if not isinstance(node, ast.Call) \
                or not isinstance(node.func, ast.Attribute):
            return False
        if node.func.attr not in ENV_FACTORY_METHODS:
            return False
        receiver = dotted_name(node.func.value)
        return receiver is not None and \
            receiver.rsplit(".", 1)[-1] == "env"

    def check(self, ctx) -> List[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            yields = self._own_yields(node)
            if not any(self._is_env_factory_call(y.value) for y in yields):
                continue
            for y in yields:
                if y.value is None:
                    findings.append(self.finding(
                        ctx, y,
                        "bare yield in a simulation process yields None, "
                        "not an Event; the kernel will reject it"))
                elif isinstance(y.value, self._LITERALS):
                    findings.append(self.finding(
                        ctx, y,
                        "process yields a literal, not an Event; yield "
                        "env.timeout(...) or another Event subclass"))
        return findings


class UnboundedRetryRule(Rule):
    """SAF003: retry loops must be bounded.

    The shape this hunts is ``while True:`` wrapped around a
    try/except whose handler sleeps (``yield env.timeout(...)``) and
    loops again — a retry loop with no attempt cap, which under a
    permanent outage spins forever and hides the failure instead of
    surfacing it.  The loop is considered bounded when anything in it
    references an attempt counter or deadline (a name containing
    ``attempt``/``deadline``/``retries``/``remaining``/``expired``);
    the canonical compliant shape is
    ``for attempt in range(policy.max_attempts)`` (see
    :func:`repro.resilience.retry_call`).  Pure waiter loops (drain
    loops, samplers) are not flagged: only a *handler* that sleeps
    marks the loop as a retry loop.
    """

    code = "SAF003"

    _BOUND_TOKENS = ("attempt", "deadline", "retries", "remaining",
                     "expired")

    @staticmethod
    def _walk_in_scope(roots):
        """Walk nodes without descending into nested function bodies."""
        stack = list(roots)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    @classmethod
    def _handler_sleeps(cls, handler: ast.ExceptHandler) -> bool:
        for node in cls._walk_in_scope(handler.body):
            if isinstance(node, ast.Yield) \
                    and isinstance(node.value, ast.Call) \
                    and isinstance(node.value.func, ast.Attribute) \
                    and node.value.func.attr == "timeout":
                receiver = dotted_name(node.value.func.value)
                if receiver is not None and \
                        receiver.rsplit(".", 1)[-1] == "env":
                    return True
        return False

    @classmethod
    def _has_bound_signal(cls, loop: ast.While) -> bool:
        for node in cls._walk_in_scope([loop]):
            name = None
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            if name is not None and any(token in name.lower()
                                        for token in cls._BOUND_TOKENS):
                return True
        return False

    def check(self, ctx) -> List[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.While):
                continue
            if not (isinstance(node.test, ast.Constant)
                    and node.test.value is True):
                continue
            sleeping_handlers = [
                sub for sub in self._walk_in_scope(node.body)
                if isinstance(sub, ast.ExceptHandler)
                and self._handler_sleeps(sub)]
            if not sleeping_handlers:
                continue
            if self._has_bound_signal(node):
                continue
            findings.append(self.finding(
                ctx, node,
                "'while True' retry loop backs off in its except handler "
                "but has no attempt cap or deadline; use 'for attempt in "
                "range(policy.max_attempts)' (repro.resilience.retry_call)"
            ))
        return findings


#: The purely syntactic rules, in catalog order.  The flow-sensitive
#: rules live in :mod:`repro.staticcheck.flowrules`; the combined
#: ``ALL_RULES`` tuple is assembled by the engine.
SYNTACTIC_RULES = (
    WallClockRule(),
    GlobalRandomRule(),
    UnorderedIterationRule(),
    InterruptSwallowRule(),
    NonEventYieldRule(),
    UnboundedRetryRule(),
)
