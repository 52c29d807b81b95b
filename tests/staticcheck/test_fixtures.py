"""Fixture-corpus tests for the flow-sensitive and manifest (MAN) rules.

Each ``*_violations.py`` / ``*_violations.yaml`` fixture marks every
expected finding with a ``# <- CODE`` comment on the offending line
(several codes may share a line: ``# <- MAN001 <- MAN004``); the tests
assert that the analyzer reports exactly those (line, code) pairs — no
misses, no false positives.  ``*_clean.*`` fixtures hold the nearest
*correct* idioms and must produce no findings at all.  Fixture files
carry the ``# staticcheck: fixture`` pragma, so directory scans (and
therefore ``--strict`` CI runs over ``tests/``) skip them.
"""

import re
from pathlib import Path

import pytest

from repro.staticcheck import (
    analyze_manifest_source,
    analyze_paths,
    analyze_source,
)

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file -> the rule it exercises (other codes may legitimately
#: co-fire, and every co-firing is marked too).
VIOLATION_FIXTURES = {
    "res001_violations.py": "RES001",
    "saf001_path_violations.py": "SAF001",
    "man001_violations.yaml": "MAN001",
    "man002_violations.yaml": "MAN002",
    "man003_violations.yaml": "MAN003",
    "man003_chaos_violations.yaml": "MAN003",
    "man004_violations.yaml": "MAN004",
    "man005_violations.yaml": "MAN005",
}

CLEAN_FIXTURES = [
    "res001_clean.py",
    "saf001_path_clean.py",
    "man001_clean.yaml",
    "man002_clean.yaml",
    "man003_clean.yaml",
    "man004_clean.yaml",
    "man005_clean.yaml",
    "golden_manifest.yaml",
]

_MARKER_RE = re.compile(r"<-\s*([A-Z]+\d+)")


def analyze_fixture(name):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    if name.endswith((".yaml", ".yml")):
        findings, _suppressed = analyze_manifest_source(source, name)
    else:
        findings, _suppressed = analyze_source(source, name)
    return source, findings


def marked_pairs(source):
    """All expected ``(line, code)`` pairs from ``# <- CODE`` markers."""
    pairs = []
    for lineno, line in enumerate(source.splitlines(), 1):
        pairs.extend((lineno, code)
                     for code in _MARKER_RE.findall(line))
    return sorted(pairs)


@pytest.mark.parametrize("name,code", sorted(VIOLATION_FIXTURES.items()))
def test_violation_fixture_matches_markers(name, code):
    source, findings = analyze_fixture(name)
    expected = marked_pairs(source)
    assert any(marked == code for _line, marked in expected), \
        f"{name} has no {code} markers"
    got = sorted((f.line, f.code) for f in findings)
    assert got == expected


@pytest.mark.parametrize("name", CLEAN_FIXTURES)
def test_clean_fixture_has_no_findings(name):
    _source, findings = analyze_fixture(name)
    assert findings == []


def test_every_fixture_file_carries_the_pragma():
    paths = sorted(FIXTURES.glob("*.py")) + \
        sorted(FIXTURES.glob("*.yaml")) + sorted(FIXTURES.glob("*.yml"))
    for path in paths:
        head = path.read_text(encoding="utf-8").splitlines()[:3]
        assert any("staticcheck: fixture" in line for line in head), \
            f"{path.name} is missing the fixture pragma"


def test_directory_scan_skips_fixture_files():
    findings, suppressed = analyze_paths([FIXTURES])
    assert findings == []
    assert suppressed == []
