"""Per-function control-flow graphs, and a forward solver over them.

One :class:`CFGNode` per simple statement or compound-statement header
(the ``if``/``while`` test, the ``for`` iterable, the ``with`` items,
the ``except`` catch point).  Nested function and lambda bodies are
*not* part of the enclosing function's graph — they have their own
control flow and their own CFGs.

Exception modelling, deliberately conservative but bounded:

* every statement inside a ``try`` body gets an edge to each of that
  ``try``'s handlers (an exception may occur mid-statement);
* an explicit ``raise`` inside a ``try`` body edges both to the
  handlers (it may be caught) and to the escape continuation (it may
  not match);
* a ``raise`` outside any handler-protected region escapes the
  function: through the enclosing ``finally`` blocks, then to EXIT;
* ``finally`` bodies are built twice — once on the normal
  continuation, once on the escape continuation — which is the
  standard duplication that keeps path-sensitive analyses sound for
  ``try/finally`` release idioms.

Implicit exceptions (any statement can raise in Python) are modelled
only inside ``finally``-protected regions: there every statement also
pends to the exceptional ``finally`` copy, because a ``try/finally``
exists precisely for the case where the body raises.  Outside such
regions implicit raises are not modelled — edges from every statement
to EXIT would drown any path-sensitive rule in noise.  The runtime
invariant checkers cover that residue, as documented in DESIGN.md.

:func:`solve_forward` runs a forward *may* analysis over a graph: facts
are frozensets joined by union, so a fact holds at a node when it holds
along **some** path reaching it ("on some path the resource is still
unreleased"), and the worklist terminates over any finite fact universe.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
)

#: Node kinds (informational; rules mostly dispatch on ``stmt`` type).
ENTRY = "entry"
EXIT = "exit"
STMT = "stmt"
EXCEPT = "except"


@dataclass
class CFGNode:
    """One control-flow point."""

    index: int
    kind: str
    stmt: Optional[ast.AST] = None
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)

    @property
    def line(self) -> int:
        return getattr(self.stmt, "lineno", 0)


class CFG:
    """A built graph; ``entry`` and ``exit`` are synthetic nodes."""

    def __init__(self) -> None:
        self.nodes: List[CFGNode] = []
        self.entry = self._new(ENTRY)
        self.exit = self._new(EXIT)

    # -- construction helpers ------------------------------------------------

    def _new(self, kind: str, stmt: Optional[ast.AST] = None) -> int:
        node = CFGNode(len(self.nodes), kind, stmt)
        self.nodes.append(node)
        return node.index

    def _edge(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].succs:
            self.nodes[src].succs.append(dst)
            self.nodes[dst].preds.append(src)

    def _connect(self, preds: Iterable[int], dst: int) -> None:
        for src in preds:
            self._edge(src, dst)

    # -- queries -------------------------------------------------------------

    def node(self, index: int) -> CFGNode:
        return self.nodes[index]

    def stmt_nodes(self) -> List[CFGNode]:
        return [n for n in self.nodes if n.stmt is not None]

    def path_exists(self, start: int, goal: int,
                    blocked: Set[int] = frozenset()) -> bool:
        """Is there a path ``start``..``goal`` avoiding ``blocked``?

        ``start`` itself may appear in ``blocked``; only intermediate
        and final steps are filtered.
        """
        seen: Set[int] = set()
        stack = list(self.nodes[start].succs) if start not in blocked \
            else []
        if start == goal:
            return True
        while stack:
            index = stack.pop()
            if index in seen or index in blocked:
                continue
            if index == goal:
                return True
            seen.add(index)
            stack.extend(self.nodes[index].succs)
        return False


def own_expr_roots(stmt: ast.AST) -> List[ast.AST]:
    """The expressions that belong to this CFG node itself.

    For compound statements only the header is this node (the body is
    separate nodes), so only header expressions are returned.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return list(stmt.items)
    if isinstance(stmt, (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return []
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    return [stmt]


def walk_own(roots: Sequence[Optional[ast.AST]]) -> Iterable[ast.AST]:
    """Walk expression roots without entering nested function bodies."""
    stack: List[ast.AST] = [r for r in roots if r is not None]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class _Frame:
    """Loop / exception context while building one region."""

    __slots__ = ("break_sinks", "continue_target")

    def __init__(self) -> None:
        self.break_sinks: List[int] = []
        self.continue_target: Optional[int] = None


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        #: Innermost-first stack of handler-entry node lists; statements
        #: inside a try body edge to every handler of the innermost try.
        self._handlers: List[List[int]] = []
        #: Escape continuations (where an uncaught raise goes): a stack
        #: of pending-finally preds lists; the outermost escape is EXIT.
        self._escape_sinks: List[List[int]] = []
        self._loops: List[_Frame] = []

    # -- escape plumbing -----------------------------------------------------

    def _escape(self, node_index: int) -> None:
        """Route an uncaught raise out of the function."""
        if self._escape_sinks:
            self._escape_sinks[-1].append(node_index)
        else:
            self.cfg._edge(node_index, self.cfg.exit)

    # -- statement dispatch --------------------------------------------------

    def build_block(self, stmts: Sequence[ast.stmt],
                    preds: List[int]) -> List[int]:
        for stmt in stmts:
            preds = self.build_stmt(stmt, preds)
        return preds

    def build_stmt(self, stmt: ast.stmt, preds: List[int]) -> List[int]:
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, preds)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._build_loop(stmt, preds)
        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, preds)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._build_with(stmt, preds)

        index = self._stmt_node(stmt, preds)
        if isinstance(stmt, ast.Return):
            # A return runs every pending finally on the way out, which
            # is the same continuation an escaping raise takes.
            self._escape(index)
            return []
        if isinstance(stmt, ast.Raise):
            if self._handlers:
                for handler in self._handlers[-1]:
                    self.cfg._edge(index, handler)
            self._escape(index)
            return []
        if isinstance(stmt, ast.Break):
            if self._loops:
                self._loops[-1].break_sinks.append(index)
            return []
        if isinstance(stmt, ast.Continue):
            if self._loops and \
                    self._loops[-1].continue_target is not None:
                self.cfg._edge(index, self._loops[-1].continue_target)
            return []
        return [index]

    def _stmt_node(self, stmt: ast.AST, preds: List[int],
                   kind: str = STMT) -> int:
        index = self.cfg._new(kind, stmt)
        self.cfg._connect(preds, index)
        if self._handlers:
            for handler in self._handlers[-1]:
                self.cfg._edge(index, handler)
        if self._escape_sinks:
            # Inside a finally-protected region any statement may raise;
            # pend it on the exceptional finally continuation.
            self._escape_sinks[-1].append(index)
        return index

    # -- compound statements -------------------------------------------------

    def _build_if(self, stmt: ast.If, preds: List[int]) -> List[int]:
        head = self._stmt_node(stmt, preds)
        body_out = self.build_block(stmt.body, [head])
        else_out = self.build_block(stmt.orelse, [head]) if stmt.orelse \
            else [head]
        return body_out + else_out

    def _always_true(self, test: ast.expr) -> bool:
        return isinstance(test, ast.Constant) and bool(test.value)

    def _build_loop(self, stmt: ast.stmt, preds: List[int]) -> List[int]:
        head = self._stmt_node(stmt, preds)
        frame = _Frame()
        frame.continue_target = head
        self._loops.append(frame)
        body_out = self.build_block(stmt.body, [head])
        self._loops.pop()
        self.cfg._connect(body_out, head)
        exits: List[int] = list(frame.break_sinks)
        falls_through = not (isinstance(stmt, ast.While)
                             and self._always_true(stmt.test))
        if falls_through:
            # Condition false / iterable exhausted, then the else clause.
            exits += self.build_block(stmt.orelse, [head]) if stmt.orelse \
                else [head]
        return exits

    def _build_with(self, stmt: ast.stmt, preds: List[int]) -> List[int]:
        head = self._stmt_node(stmt, preds)
        return self.build_block(stmt.body, [head])

    def _build_try(self, stmt: ast.Try, preds: List[int]) -> List[int]:
        cfg = self.cfg
        has_finally = bool(stmt.finalbody)
        if has_finally:
            # Escapes inside this try pend until the finally is built.
            self._escape_sinks.append([])

        handler_entries = [self._stmt_node(handler, [], kind=EXCEPT)
                           for handler in stmt.handlers]
        if stmt.handlers:
            self._handlers.append(handler_entries)
        body_out = self.build_block(stmt.body, list(preds))
        if stmt.handlers:
            self._handlers.pop()

        normal_out = self.build_block(stmt.orelse, body_out) if stmt.orelse \
            else body_out
        handler_out: List[int] = []
        for handler, entry in zip(stmt.handlers, handler_entries):
            handler_out += self.build_block(handler.body, [entry])
        normal_out = normal_out + handler_out

        if has_finally:
            pending = self._escape_sinks.pop()
            out = self.build_block(stmt.finalbody, normal_out)
            if pending:
                # Exceptional continuation: duplicate the finally body,
                # then keep escaping outward.
                exc_out = self.build_block(stmt.finalbody, pending)
                for index in exc_out:
                    self._escape(index)
            return out
        return normal_out


def build_block_cfg(stmts: Sequence[ast.stmt]) -> CFG:
    """CFG of a bare statement list (e.g. an except-handler body)."""
    builder = _Builder()
    out = builder.build_block(stmts, [builder.cfg.entry])
    builder.cfg._connect(out, builder.cfg.exit)
    return builder.cfg


def build_cfg(func: ast.AST) -> CFG:
    """CFG of one function's own body (nested functions excluded)."""
    if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        raise TypeError(f"build_cfg needs a function node, got "
                        f"{type(func).__name__}")
    return build_block_cfg(func.body)


Fact = FrozenSet[tuple]


def solve_forward(cfg: CFG, transfer: Callable[[CFGNode, Fact], Fact],
                  ) -> Dict[int, Fact]:
    """Fixpoint ``{node index: fact reaching it}``.

    ``transfer(node, fact)`` is the fact after a statement node given
    the fact before it; the entry fact is empty.
    """
    fact_in: Dict[int, Fact] = {n.index: frozenset() for n in cfg.nodes}
    fact_out: Dict[int, Fact] = dict(fact_in)
    worklist = [n.index for n in cfg.nodes if n.index != cfg.entry]
    queued = set(worklist)
    while worklist:
        index = worklist.pop(0)
        queued.discard(index)
        node = cfg.node(index)
        incoming: Fact = frozenset()
        for pred in node.preds:
            incoming = incoming | fact_out[pred]
        fact_in[index] = incoming
        out = transfer(node, incoming) if node.stmt is not None \
            else incoming
        if out != fact_out[index]:
            fact_out[index] = out
            for succ in node.succs:
                if succ not in queued and succ != cfg.entry:
                    worklist.append(succ)
                    queued.add(succ)
    return fact_in
