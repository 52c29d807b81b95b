"""Per-line suppression comments, shared by the Python and manifest passes.

Syntax (one per line, reason mandatory)::

    risky()  # staticcheck: ignore[DET001] replay-safe because ...
    bad()    # staticcheck: ignore[DET001,SAF001] shared fixture shim

A suppression with no reason is inert *and* reported as ``SUP001`` — an
unexplained suppression is exactly the kind of silent drift this tool
exists to prevent.  So is one naming a code outside ``RULE_CATALOG`` (a
typo, or a retired rule): it can never silence anything.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.staticcheck.findings import Finding, RULE_CATALOG

_SUPPRESS_RE = re.compile(
    r"#\s*staticcheck:\s*ignore\[([A-Za-z0-9_,\s]+)\]\s*(.*)$")


@dataclass
class Suppression:
    line: int
    codes: Set[str]
    reason: str


def parse_suppressions(source: str) -> List[Suppression]:
    suppressions = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        codes = {code.strip().upper()
                 for code in match.group(1).split(",") if code.strip()}
        suppressions.append(
            Suppression(lineno, codes, match.group(2).strip()))
    return suppressions


def apply_suppressions(raw: List[Finding], source: str,
                       display_path: str,
                       ) -> Tuple[List[Finding], List[Finding]]:
    """Split raw findings by the source's suppression comments.

    Returns ``(findings, suppressed)``, both sorted.  Reasonless
    suppressions stay inert and add a ``SUP001`` finding, as does each
    code a suppression names that no rule has.  The comment
    syntax is line-based, so this works identically for Python modules
    and YAML manifests.
    """
    suppressions = parse_suppressions(source)
    by_line: Dict[int, Suppression] = {s.line: s for s in suppressions}
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in raw:
        suppression = by_line.get(finding.line)
        if suppression is not None and finding.code in suppression.codes \
                and suppression.reason:
            suppressed.append(finding)
        else:
            findings.append(finding)
    for suppression in suppressions:
        if not suppression.reason:
            findings.append(Finding(
                "SUP001", display_path, suppression.line,
                RULE_CATALOG["SUP001"]))
        for code in sorted(suppression.codes.difference(RULE_CATALOG)):
            findings.append(Finding(
                "SUP001", display_path, suppression.line,
                f"suppression names unknown code {code}; it silences "
                f"nothing (see --list-rules)"))
    findings.sort(key=Finding.sort_key)
    suppressed.sort(key=Finding.sort_key)
    return findings, suppressed
