"""Analysis driver: file discovery and rule dispatch.

One pass per module: parse, run every rule on the tree, split the raw
findings by the module's suppression comments
(:mod:`repro.staticcheck.suppress`).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.staticcheck.findings import Finding
from repro.staticcheck.manifest import (
    MANIFEST_RULES,
    analyze_manifest_source,
)
from repro.staticcheck.rules import PYTHON_RULES, build_import_map
from repro.staticcheck.suppress import apply_suppressions

#: Every rule — the Python rules and the YAML manifest rules (which
#: no-op on Python modules; see analyze_manifest_source).
ALL_RULES = PYTHON_RULES + MANIFEST_RULES

#: Module pragma marking a file as an analyzer *fixture*: a corpus file
#: whose findings are asserted by the test suite, not repo defects.
#: Fixture files are skipped by directory scans (``analyze_paths``) but
#: still analyzable directly via ``analyze_source``.
_FIXTURE_RE = re.compile(r"#\s*staticcheck:\s*fixture\b")


@dataclass
class AnalysisContext:
    """Per-module state shared by every rule."""

    tree: ast.Module
    display_path: str
    imports: Dict[str, str] = field(default_factory=dict)


def analyze_source(source: str, display_path: str = "<string>",
                   rules: Sequence = ALL_RULES,
                   ) -> Tuple[List[Finding], List[Finding]]:
    """Run ``rules`` over one module's source.

    Returns ``(findings, suppressed)``: the first list is what should
    fail a build, the second what valid suppressions silenced.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as err:
        return ([Finding("SYNTAX", display_path, err.lineno or 0,
                         f"cannot parse: {err.msg}")], [])
    ctx = AnalysisContext(tree=tree, display_path=display_path,
                          imports=build_import_map(tree))
    raw: List[Finding] = []
    for rule in rules:
        raw.extend(rule.check(ctx))
    return apply_suppressions(raw, source, display_path)


def _is_fixture(source: str) -> bool:
    """True when the module's leading lines carry the fixture pragma."""
    for line in source.splitlines()[:3]:
        if _FIXTURE_RE.search(line):
            return True
    return False


def iter_python_files(root: Path) -> List[Path]:
    """All ``.py`` files under ``root`` in a stable order."""
    if root.is_file():
        return [] if root.suffix in (".yaml", ".yml") else [root]
    return sorted(p for p in root.rglob("*.py") if p.is_file())


def iter_manifest_files(root: Path) -> List[Path]:
    """All YAML scenario manifests under ``root`` in a stable order."""
    if root.is_file():
        return [root] if root.suffix in (".yaml", ".yml") else []
    return sorted(p for suffix in ("*.yaml", "*.yml")
                  for p in root.rglob(suffix) if p.is_file())


def _display(path: Path) -> str:
    """Repo-relative posix path when possible, else the path as given."""
    text = path.as_posix()
    index = text.rfind("src/repro/")
    return text[index:] if index >= 0 else text


def analyze_paths(paths: Iterable[Path], rules: Sequence = ALL_RULES,
                  ) -> Tuple[List[Finding], List[Finding]]:
    """Analyze every manifest and Python file under each of ``paths``."""
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    seen: set = set()
    analyze_python = partial(analyze_source, rules=rules)
    for root in paths:
        root = Path(root)
        jobs = [(path, analyze_manifest_source)
                for path in iter_manifest_files(root)]
        jobs += [(path, analyze_python)
                 for path in iter_python_files(root)]
        for path, analyze in jobs:
            display = _display(path)
            if display in seen:
                continue
            seen.add(display)
            source = path.read_text(encoding="utf-8")
            if _is_fixture(source):
                continue
            got, hidden = analyze(source, display)
            findings.extend(got)
            suppressed.extend(hidden)
    findings.sort(key=Finding.sort_key)
    suppressed.sort(key=Finding.sort_key)
    return findings, suppressed


def default_target() -> Path:
    """The ``src/repro`` tree this installation runs from."""
    import repro

    return Path(repro.__file__).resolve().parent


def analyze_tree(root: Path = None,
                 ) -> Tuple[List[Finding], List[Finding]]:
    """Analyze the whole package (or ``root``) with every rule."""
    return analyze_paths([root if root is not None else default_target()])
