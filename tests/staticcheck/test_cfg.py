"""Unit tests for the per-function CFG builder and dataflow solver."""

import ast
import textwrap

import pytest

from repro.staticcheck.cfg import (
    CFG,
    build_block_cfg,
    build_cfg,
    solve_forward,
)


def func_cfg(source: str) -> CFG:
    tree = ast.parse(textwrap.dedent(source))
    func = next(node for node in tree.body
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)))
    return build_cfg(func)


def node_at(cfg: CFG, line: int):
    matches = [n for n in cfg.stmt_nodes() if n.line == line]
    assert matches, f"no CFG node at line {line}"
    return matches[0]


def exit_preds(cfg: CFG):
    return {cfg.node(p).line for p in cfg.node(cfg.exit).preds}


def test_straight_line_chain():
    cfg = func_cfg("""
        def f():
            a = 1
            b = 2
            return a + b
    """)
    assert [n.line for n in cfg.stmt_nodes()] == [3, 4, 5]
    assert exit_preds(cfg) == {5}


def test_if_else_joins_at_successor():
    cfg = func_cfg("""
        def f(x):
            if x:
                a = 1
            else:
                a = 2
            use(a)
    """)
    join = node_at(cfg, 7)
    pred_lines = {cfg.node(p).line for p in join.preds}
    assert pred_lines == {4, 6}


def test_if_without_else_falls_through():
    cfg = func_cfg("""
        def f(x):
            if x:
                a = 1
            use(x)
    """)
    join = node_at(cfg, 5)
    pred_lines = {cfg.node(p).line for p in join.preds}
    # Both the branch body and the test itself reach the successor.
    assert pred_lines == {3, 4}


def test_while_loop_back_edge_and_exit():
    cfg = func_cfg("""
        def f(n):
            while n > 0:
                n -= 1
            return n
    """)
    head = node_at(cfg, 3)
    body = node_at(cfg, 4)
    assert head.index in body.succs          # back edge
    assert node_at(cfg, 5).index in head.succs  # condition-false exit


def test_while_true_has_no_fall_through():
    cfg = func_cfg("""
        def f():
            while True:
                step()
            unreachable()
    """)
    head = node_at(cfg, 3)
    tail = node_at(cfg, 5)
    assert not cfg.path_exists(head.index, tail.index)


def test_break_exits_loop_continue_returns_to_head():
    cfg = func_cfg("""
        def f(items):
            for item in items:
                if item < 0:
                    continue
                if item > 9:
                    break
            return item
    """)
    head = node_at(cfg, 3)
    cont = node_at(cfg, 5)
    brk = node_at(cfg, 7)
    ret = node_at(cfg, 8)
    assert head.index in cont.succs
    assert ret.index in brk.succs
    assert ret.index not in cont.succs


def test_for_else_runs_on_exhaustion_only():
    cfg = func_cfg("""
        def f(items):
            for item in items:
                if item:
                    break
            else:
                fallback()
            done()
    """)
    brk = node_at(cfg, 5)
    els = node_at(cfg, 7)
    done = node_at(cfg, 8)
    # break jumps past the else clause...
    assert done.index in brk.succs
    assert els.index not in brk.succs
    # ...while normal exhaustion goes through it.
    assert els.index in node_at(cfg, 3).succs


def test_try_body_edges_to_handler():
    cfg = func_cfg("""
        def f():
            try:
                risky()
            except ValueError:
                recover()
            after()
    """)
    body = node_at(cfg, 4)
    handler = node_at(cfg, 5)
    after = node_at(cfg, 7)
    assert handler.index in body.succs
    assert after.index in body.succs          # no-exception path
    assert after.index in node_at(cfg, 6).succs  # handled path


def test_return_in_try_passes_through_finally():
    cfg = func_cfg("""
        def f():
            resource = acquire()
            try:
                return resource
            finally:
                resource.close()
    """)
    ret = node_at(cfg, 5)
    # The return must NOT edge straight to exit: every path out goes
    # through a copy of the finally body.
    assert cfg.exit not in ret.succs
    for line in exit_preds(cfg):
        assert line == 7


def test_raise_in_try_passes_through_finally_to_exit():
    cfg = func_cfg("""
        def f():
            try:
                raise RuntimeError()
            finally:
                cleanup()
    """)
    rse = node_at(cfg, 4)
    assert cfg.exit not in rse.succs
    assert exit_preds(cfg) == {6}


def test_finally_duplicated_for_normal_and_exceptional_paths():
    cfg = func_cfg("""
        def f():
            try:
                risky()
            finally:
                cleanup()
            after()
    """)
    copies = [n for n in cfg.stmt_nodes() if n.line == 6]
    assert len(copies) == 2
    after = node_at(cfg, 7)
    # One copy continues to after(); the other escapes to exit.
    succ_sets = [set(c.succs) for c in copies]
    assert {after.index} in succ_sets
    assert {cfg.exit} in succ_sets


def test_raise_outside_try_escapes_to_exit():
    cfg = func_cfg("""
        def f(x):
            if x:
                raise ValueError(x)
            return 0
    """)
    rse = node_at(cfg, 4)
    assert cfg.exit in rse.succs


def test_with_body_follows_header():
    cfg = func_cfg("""
        def f():
            with open_thing() as t:
                use(t)
            after()
    """)
    head = node_at(cfg, 3)
    body = node_at(cfg, 4)
    assert body.index in head.succs
    assert node_at(cfg, 5).index in body.succs


def test_nested_function_body_excluded():
    cfg = func_cfg("""
        def outer():
            x = 1

            def inner():
                yield x
                inner_only()
            return inner
    """)
    lines = {n.line for n in cfg.stmt_nodes()}
    assert 3 in lines and 5 in lines and 8 in lines
    assert 6 not in lines and 7 not in lines


def test_path_exists_respects_blocked_nodes():
    cfg = func_cfg("""
        def f(x):
            if x:
                a = 1
            else:
                b = 2
            done()
    """)
    done = node_at(cfg, 7)
    blocked = {node_at(cfg, 4).index}
    assert cfg.path_exists(cfg.entry, done.index)
    assert cfg.path_exists(cfg.entry, done.index, blocked=blocked)
    both = blocked | {node_at(cfg, 6).index}
    assert not cfg.path_exists(cfg.entry, done.index, blocked=both)


def test_build_block_cfg_for_handler_bodies():
    tree = ast.parse(textwrap.dedent("""
        cleanup()
        raise
    """))
    cfg = build_block_cfg(tree.body)
    raise_node = next(n for n in cfg.stmt_nodes()
                      if isinstance(n.stmt, ast.Raise))
    assert cfg.exit in raise_node.succs


def test_build_cfg_rejects_non_function():
    with pytest.raises(TypeError):
        build_cfg(ast.parse("x = 1").body[0])


def _gen_kill(node, fact):
    """Toy reaching-assignments analysis: facts are assigned names."""
    stmt = node.stmt
    if isinstance(stmt, ast.Assign) and \
            isinstance(stmt.targets[0], ast.Name):
        return fact | {stmt.targets[0].id}
    return fact


def test_solve_forward_joins_over_branches():
    cfg = func_cfg("""
        def f(x):
            if x:
                a = 1
            else:
                b = 2
            done()
    """)
    fact_in = solve_forward(cfg, _gen_kill)[node_at(cfg, 7).index]
    assert fact_in == frozenset({"a", "b"})


def test_solve_forward_reaches_fixpoint_through_loop():
    cfg = func_cfg("""
        def f(n):
            while n:
                a = 1
            done()
    """)
    # The loop-body assignment flows around the back edge to the head
    # and out of the loop.
    fact_in = solve_forward(cfg, _gen_kill)[node_at(cfg, 5).index]
    assert "a" in fact_in
