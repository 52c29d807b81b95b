"""Column anchors in the report formats.

Manifest (MAN) findings know the exact YAML token column; the github
and sarif renderers must carry it, and Python findings (column 0) must
stay line-only in both formats.
"""

import json

from repro.staticcheck.cli import render_github, render_sarif
from repro.staticcheck.findings import Finding

YAML_FINDING = Finding("MAN002", "demo.yaml", 14,
                       "fault targets undeclared node 'node-K80-9'",
                       column=38)
PY_FINDING = Finding("DET001", "src/repro/sim/clock.py", 7,
                     "wall-clock read in simulation code")


def test_finding_location_renders_column_when_known():
    assert YAML_FINDING.location == "demo.yaml:14:38"
    assert PY_FINDING.location == "src/repro/sim/clock.py:7"


def test_github_format_carries_column_for_manifest_findings():
    out = render_github([YAML_FINDING, PY_FINDING], [])
    lines = out.splitlines()
    assert lines[0] == ("::error file=demo.yaml,line=14,"
                        "col=38,title=staticcheck MAN002::fault targets "
                        "undeclared node 'node-K80-9'")
    assert lines[1] == ("::error file=src/repro/sim/clock.py,line=7,"
                        "title=staticcheck DET001::wall-clock read in "
                        "simulation code")


def test_sarif_format_carries_start_column_for_manifest_findings():
    report = json.loads(render_sarif([YAML_FINDING, PY_FINDING],
                                     [YAML_FINDING]))
    results = report["runs"][0]["results"]
    regions = [r["locations"][0]["physicalLocation"]["region"]
               for r in results]
    assert regions[0] == {"startLine": 14, "startColumn": 38}
    assert regions[1] == {"startLine": 7}
    suppressed_region = results[2]["locations"][0][
        "physicalLocation"]["region"]
    assert suppressed_region == {"startLine": 14, "startColumn": 38}

