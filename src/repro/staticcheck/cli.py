"""Command-line driver for the static analyzer.

Usage::

    python -m repro.staticcheck                  # report, always exit 0
    python -m repro.staticcheck --strict         # CI: exit 1 on findings
    python -m repro.staticcheck --format md      # Markdown findings table
    python -m repro.staticcheck --format json    # machine-readable report
    python -m repro.staticcheck --format github  # GitHub ::error lines
    python -m repro.staticcheck --format sarif   # SARIF 2.1.0 report
    python -m repro.staticcheck --list-rules     # print the rule catalog
    python -m repro.staticcheck --explain SAF001 # rule rationale + fix
    python -m repro.staticcheck path/to/file.py  # analyze specific paths
"""

from __future__ import annotations

import argparse
import json
import textwrap
from pathlib import Path
from typing import List, Optional, Sequence

from repro.staticcheck.engine import analyze_paths, default_target
from repro.staticcheck.findings import (
    Finding,
    RULE_CATALOG,
    RULE_EXPLANATIONS,
)


def render_text(findings: List[Finding],
                suppressed: List[Finding]) -> str:
    lines = [finding.render() for finding in findings]
    lines.append(f"{len(findings)} finding(s), "
                 f"{len(suppressed)} suppressed")
    return "\n".join(lines)


def render_markdown(findings: List[Finding],
                    suppressed: List[Finding]) -> str:
    from repro.analysis.tables import format_table

    rows = [[f.code, f.location, f.message] for f in findings] or \
        [["-", "-", "no findings"]]
    table = format_table(
        ["code", "location", "message"], rows,
        title="## staticcheck findings")
    return (f"{table}\n\n{len(findings)} finding(s), "
            f"{len(suppressed)} suppressed")


def render_json(findings: List[Finding],
                suppressed: List[Finding]) -> str:
    return json.dumps({
        "findings": [{"code": f.code, "path": f.path, "line": f.line,
                      "message": f.message} for f in findings],
        "suppressed": [{"code": f.code, "path": f.path, "line": f.line}
                       for f in suppressed],
    }, indent=2, sort_keys=True)


def render_github(findings: List[Finding],
                  suppressed: List[Finding]) -> str:
    """GitHub Actions workflow-command annotations, one per finding.

    Findings that know their column (the YAML manifest rules) carry a
    ``col=`` property so the annotation lands on the exact token.
    """
    lines = [f"::error file={f.path},line={f.line},"
             + (f"col={f.column}," if f.column > 0 else "")
             + f"title=staticcheck {f.code}::{f.message}"
             for f in findings]
    lines.append(f"{len(findings)} finding(s), "
                 f"{len(suppressed)} suppressed")
    return "\n".join(lines)


def _sarif_region(finding: Finding) -> dict:
    """Line (and, when known, column) anchor for one finding —
    manifest findings point at the exact YAML token."""
    region = {"startLine": max(finding.line, 1)}
    if finding.column > 0:
        region["startColumn"] = finding.column
    return region


def render_sarif(findings: List[Finding],
                 suppressed: List[Finding]) -> str:
    """SARIF 2.1.0, consumable by GitHub code scanning upload."""
    rules = [{
        "id": code,
        "shortDescription": {"text": description},
        **({"fullDescription": {"text": RULE_EXPLANATIONS[code][0]}}
           if code in RULE_EXPLANATIONS else {}),
    } for code, description in sorted(RULE_CATALOG.items())]
    results = [{
        "ruleId": f.code,
        "level": "error",
        "message": {"text": f.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": f.path},
                "region": _sarif_region(f),
            },
        }],
    } for f in findings]
    results.extend({
        "ruleId": f.code,
        "level": "note",
        "message": {"text": f.message},
        "suppressions": [{"kind": "inSource"}],
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": f.path},
                "region": _sarif_region(f),
            },
        }],
    } for f in suppressed)
    return json.dumps({
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "repro.staticcheck",
                "informationUri":
                    "https://github.com/repro/repro#staticcheck",
                "rules": rules,
            }},
            "results": results,
        }],
    }, indent=2, sort_keys=True)


def render_explanation(code: str) -> str:
    why, bad, good = RULE_EXPLANATIONS[code]
    indent = "    "
    return "\n".join([
        f"{code}: {RULE_CATALOG[code]}",
        "",
        textwrap.fill(why, width=72),
        "",
        "violates:",
        textwrap.indent(bad, indent),
        "",
        "compliant:",
        textwrap.indent(good, indent),
    ])


def render_rules() -> str:
    width = max(len(code) for code in RULE_CATALOG)
    return "\n".join(f"{code:<{width}}  {description}"
                     for code, description in sorted(RULE_CATALOG.items()))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.staticcheck",
        description="determinism & safety analyzer for the simulation "
                    "substrate")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to analyze "
                             "(default: the installed repro package)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero if any unsuppressed finding "
                             "remains")
    parser.add_argument("--format",
                        choices=("text", "md", "json", "github",
                                 "sarif"),
                        default="text", help="findings report format")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--explain", metavar="RULE_ID",
                        help="print why a rule exists, a violating "
                             "example and the compliant fix, then exit")
    return parser


_RENDERERS = {
    "text": render_text,
    "md": render_markdown,
    "json": render_json,
    "github": render_github,
    "sarif": render_sarif,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(render_rules())
        return 0
    if args.explain is not None:
        code = args.explain.upper()
        if code not in RULE_EXPLANATIONS:
            parser.error(f"unknown rule {args.explain!r}; see "
                         f"--list-rules")
        print(render_explanation(code))
        return 0
    targets = [Path(p) for p in args.paths] or [default_target()]
    for target in targets:
        if not target.exists():
            parser.error(f"no such file or directory: {target}")
    findings, suppressed = analyze_paths(targets)
    print(_RENDERERS[args.format](findings, suppressed))
    if args.strict and findings:
        return 1
    return 0
