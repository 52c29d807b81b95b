"""``src/repro`` reads nothing from the process environment.

A simulation must be a function of its arguments and seed, and a
scenario is named by its Python definition, not found on a path.
"""

import ast
from pathlib import Path

import repro

ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def reads_environment(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENV_NAMES \
                and isinstance(node.value, ast.Name) and node.value.id == "os":
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "os" \
                and any(alias.name in ENV_NAMES for alias in node.names):
            return True
    return False


def test_no_module_reads_the_environment():
    root = Path(repro.__file__).parent
    readers = {path.relative_to(root).as_posix()
               for path in sorted(root.rglob("*.py"))
               if reads_environment(ast.parse(path.read_text()))}
    assert readers == set()
