"""Every setting in ``src/repro`` has a caller that sets it.

A value stays settable only when some caller needs a second value
(DESIGN.md, "Settings"); otherwise it is a constant next to its reader.
The settings are each field of a declarative dataclass (``*Config``,
``*Spec``, ``*Def``, ``*Group``, ``*Scenario``, ``*Shape``, ``*Step``)
and each ``__init__`` keyword default in ``src/repro``.  A file of
``src``, ``tests``, ``benchmarks`` or ``examples`` sets one by keyword,
by position, as a key of a dict passed with ``**``, by an attribute
store (``obj.knob = x``), or through a subclass or a function that
forwards it (``super().__init__(x)``, ``**kwargs``).
"""

import ast
import copy
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parents[2]
CORPUS = ("src", "tests", "benchmarks", "examples")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
#: The name suffixes of the declarative dataclasses: settings objects,
#: and the shapes a scenario or a platform is declared in.
DECLARATIVE = ("Config", "Spec", "Def", "Group", "Scenario", "Shape", "Step")


def parse(directory):
    return [ast.parse(path.read_text())
            for path in sorted((ROOT / directory).rglob("*.py"))]


def settings(tree):
    """``(class, its parameters in position order, its settings)``."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        init = next((node for node in cls.body if isinstance(node, FUNCTIONS)
                     and node.name == "__init__"), None)
        if init is not None:
            args = init.args
            positional = [arg.arg for arg in args.posonlyargs + args.args][1:]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [arg.arg for arg, default
                          in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            yield cls.name, positional, defaulted
        elif cls.name.endswith(DECLARATIVE) and any(
                "dataclass" in ast.unparse(d) for d in cls.decorator_list):
            fields = [node.target.id for node in cls.body
                      if isinstance(node, ast.AnnAssign)
                      and isinstance(node.target, ast.Name)
                      and "ClassVar" not in ast.unparse(node.annotation)]
            yield cls.name, fields, fields


def scoped(tree):
    """Every node with its enclosing class and function (or None)."""
    stack = [(tree, None, None)]
    while stack:
        node, cls, function = stack.pop()
        yield node, cls, function
        if isinstance(node, ast.ClassDef):
            cls = node
        elif isinstance(node, FUNCTIONS):
            function = node
        stack.extend((child, cls, function)
                     for child in ast.iter_child_nodes(node))


def callee(call):
    """The called name; ``"super"`` for ``super().__init__(...)``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        if func.attr == "__init__" and isinstance(func.value, ast.Call) \
                and callee(func.value) == "super":
            return "super"
        return func.attr
    return None


def dict_keys(expr, scope):
    """The keys a ``**expr`` passes, where the source spells them."""
    if isinstance(expr, ast.BoolOp):
        return set().union(*(dict_keys(value, scope)
                             for value in expr.values))
    if isinstance(expr, ast.IfExp):
        return dict_keys(expr.body, scope) | dict_keys(expr.orelse, scope)
    if isinstance(expr, ast.Dict):
        return {key.value for key in expr.keys
                if isinstance(key, ast.Constant)
                and isinstance(key.value, str)}
    if isinstance(expr, ast.Call) and callee(expr) == "dict":
        return {keyword.arg for keyword in expr.keywords if keyword.arg}
    if isinstance(expr, ast.Name):  # a local bound to one of the above
        return set().union(*(
            dict_keys(node.value, scope) for node in ast.walk(scope)
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == expr.id
                for target in node.targets)))
    return set()


def unset_settings():
    params, knobs = {}, []
    for tree in parse("src/repro"):
        for name, positional, defaulted in settings(tree):
            params[name] = positional
            knobs += [(name, knob) for knob in defaulted]
    nodes = [(node, cls, function, tree)
             for directory in CORPUS for tree in parse(directory)
             for node, cls, function in scoped(tree)]
    bases, own_init = {}, set()
    for node, _cls, _function, _tree in nodes:
        if isinstance(node, ast.ClassDef):
            bases[node.name] = [ast.unparse(base).split(".")[-1]
                                for base in node.bases]
            if any(isinstance(item, FUNCTIONS) and item.name == "__init__"
                   for item in node.body):
                own_init.add(node.name)

    # What a call through a name reaches: positions reach the ``direct``
    # classes (the class, a subclass that inherits its ``__init__``),
    # keywords also every class a ``**kwargs`` forwarder passes them to.
    direct = {name: {name} for name in params}
    reach = {name: {name} for name in params}
    # (function, parameter) -> classes the parameter is splatted into.
    dict_params = {}

    def targets(call, cls, table):
        name = callee(call)
        if name == "super":
            return set().union(*(table.get(base, set())
                                 for base in bases[cls.name]))
        return table.get(name, set())

    changed = True
    while changed:
        before = copy.deepcopy((direct, reach))
        for name, parents in bases.items():
            if name not in own_init:
                for table in (direct, reach):
                    table.setdefault(name, set()).update(
                        *(table.get(base, set()) for base in parents))
        for node, cls, function, _tree in nodes:
            if not isinstance(node, ast.Call) or function is None:
                continue
            classes = targets(node, cls, reach)
            args = function.args
            for keyword in node.keywords:
                splat = keyword.value
                if isinstance(splat, ast.BoolOp):
                    splat = splat.values[0]
                if keyword.arg is not None or not classes \
                        or not isinstance(splat, ast.Name):
                    continue
                if args.kwarg is not None and splat.id == args.kwarg.arg:
                    forwarder = cls.name if cls is not None \
                        and function.name == "__init__" else function.name
                    reach.setdefault(forwarder, set()).update(classes)
                elif splat.id in {arg.arg for arg
                                  in args.args + args.kwonlyargs}:
                    dict_params.setdefault((function.name, splat.id),
                                           set()).update(classes)
        changed = before != (direct, reach)

    assigned, stored = set(), set()
    for node, cls, function, tree in nodes:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            stored.update(
                target.attr
                for target in (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                if isinstance(target, ast.Attribute) and not (
                    isinstance(target.value, ast.Name)
                    and target.value.id == "self"))
        if not isinstance(node, ast.Call):
            continue
        for name in targets(node, cls, direct):
            for position, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                if position < len(params[name]):
                    assigned.add((name, params[name][position]))
        classes = targets(node, cls, reach)
        for keyword in node.keywords:
            keys = {keyword.arg} if keyword.arg \
                else dict_keys(keyword.value, function or tree)
            assigned.update((name, key) for name in classes for key in keys)
            for name in dict_params.get((callee(node), keyword.arg), ()):
                assigned.update(
                    (name, key)
                    for key in dict_keys(keyword.value, function or tree))
    return sorted(f"{name}.{knob}" for name, knob in knobs
                  if (name, knob) not in assigned and knob not in stored)


def test_every_setting_has_a_caller_that_sets_it():
    unset = unset_settings()
    assert not unset, "set by no caller: " + ", ".join(unset)
