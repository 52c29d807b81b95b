"""The analyzer must be green over the real tree — and stay green.

Also exercises the CLI contract the CI workflow depends on: ``--strict``
exits 0 on a clean tree and non-zero on an injected violation of every
rule.
"""

import json
import textwrap

import pytest

from repro.staticcheck import (
    ALL_RULES,
    RULE_CATALOG,
    analyze_tree,
    default_target,
)
from repro.staticcheck.cli import main
from repro.staticcheck.findings import RULE_EXPLANATIONS

#: One minimal violating module per static rule.
VIOLATIONS = {
    "DET001": """
        import time

        def f():
            return time.time()
    """,
    "DET003": """
        def f(xs):
            for x in set(xs):
                print(x)
    """,
    "SAF001": """
        def f(ev):
            try:
                yield ev
            except Exception:
                pass
    """,
}


#: The CLI tests that need only an exit code from a clean tree scan
#: the analyzer's own package, not all of ``src/repro``.
CLEAN_TARGET = str(default_target() / "staticcheck")


@pytest.fixture(scope="module")
def tree_analysis():
    """``(findings, suppressed)`` of ``src/repro``, analysed once."""
    return analyze_tree()


def test_repo_tree_has_zero_unsuppressed_findings(tree_analysis):
    findings, _suppressed = tree_analysis
    assert findings == [], "\n".join(f.render() for f in findings)


def test_repo_suppressions_all_carry_reasons(tree_analysis):
    # Suppressed findings exist (the kernel boundary) but none without a
    # reason, which would have surfaced as SUP001 above.
    _findings, suppressed = tree_analysis
    assert all(s.code for s in suppressed)


def test_cli_strict_is_green_on_repo(capsys):
    assert main(["--strict", CLEAN_TARGET]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


@pytest.mark.parametrize("code", sorted(VIOLATIONS))
def test_cli_strict_fails_on_injected_violation(tmp_path, capsys, code):
    bad = tmp_path / "injected.py"
    bad.write_text(textwrap.dedent(VIOLATIONS[code]))
    assert main(["--strict", str(bad)]) == 1
    assert code in capsys.readouterr().out


def test_cli_without_strict_reports_but_exits_zero(tmp_path, capsys):
    bad = tmp_path / "injected.py"
    bad.write_text(textwrap.dedent(VIOLATIONS["DET001"]))
    assert main([str(bad)]) == 0
    assert "DET001" in capsys.readouterr().out


def test_cli_markdown_report(tmp_path, capsys):
    bad = tmp_path / "injected.py"
    bad.write_text(textwrap.dedent(VIOLATIONS["DET003"]))
    assert main(["--format", "md", str(bad)]) == 0
    out = capsys.readouterr().out
    assert "## staticcheck findings" in out
    assert "DET003" in out


def test_cli_json_report(tmp_path, capsys):
    bad = tmp_path / "injected.py"
    bad.write_text(textwrap.dedent(VIOLATIONS["SAF001"]))
    assert main(["--format", "json", str(bad)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [f["code"] for f in report["findings"]] == ["SAF001"]
    finding = report["findings"][0]
    assert finding["line"] == 5
    assert finding["path"].endswith("injected.py")
    assert report["suppressed"] == []


def test_cli_github_annotations(tmp_path, capsys):
    bad = tmp_path / "injected.py"
    bad.write_text(textwrap.dedent(VIOLATIONS["SAF001"]))
    assert main(["--strict", "--format", "github", str(bad)]) == 1
    out = capsys.readouterr().out
    line = next(li for li in out.splitlines() if li.startswith("::error"))
    assert line.startswith("::error file=")
    assert "line=5," in line
    assert "title=staticcheck SAF001::" in line


def test_cli_github_green_run_emits_no_annotations(capsys):
    assert main(["--strict", "--format", "github", CLEAN_TARGET]) == 0
    out = capsys.readouterr().out
    assert "::error" not in out


def test_cli_sarif_report(tmp_path, capsys):
    bad = tmp_path / "injected.py"
    bad.write_text(textwrap.dedent(VIOLATIONS["DET001"]))
    assert main(["--format", "sarif", str(bad)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == "2.1.0"
    run = report["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro.staticcheck"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert rule_ids == set(RULE_CATALOG)
    results = run["results"]
    assert {r["ruleId"] for r in results} == {"DET001"}
    for result in results:
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("injected.py")
        assert location["region"]["startLine"] >= 1
        assert result["level"] == "error"
        assert result["message"]["text"]


def test_cli_sarif_marks_suppressed_findings_as_notes(tmp_path, capsys):
    bad = tmp_path / "injected.py"
    bad.write_text(
        "import time\n"
        "def f():\n"
        "    return time.time()"
        "  # staticcheck: ignore[DET001] trace-only, never feeds sim\n")
    assert main(["--strict", "--format", "sarif", str(bad)]) == 0
    report = json.loads(capsys.readouterr().out)
    results = report["runs"][0]["results"]
    assert len(results) == 1
    assert results[0]["level"] == "note"
    assert results[0]["suppressions"] == [{"kind": "inSource"}]


@pytest.mark.parametrize("code", sorted(RULE_EXPLANATIONS))
def test_cli_explain_every_rule(capsys, code):
    assert main(["--explain", code]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"{code}: ")
    assert "violates:" in out
    assert "compliant:" in out


def test_cli_explain_is_case_insensitive(capsys):
    assert main(["--explain", "saf001"]) == 0
    assert "SAF001" in capsys.readouterr().out


def test_cli_explain_unknown_rule_errors():
    with pytest.raises(SystemExit):
        main(["--explain", "NOPE999"])


def test_every_catalog_rule_has_an_explanation():
    assert set(RULE_EXPLANATIONS) == set(RULE_CATALOG)
    for code, (why, bad, good) in RULE_EXPLANATIONS.items():
        assert why.strip(), f"{code} has no rationale"
        assert "Guards: " in why, f"{code} names no invariant"
        assert bad.strip(), f"{code} has no violating example"
        assert good.strip(), f"{code} has no compliant fix"


def test_cli_list_rules_prints_catalog(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in RULE_CATALOG:
        assert code in out


def test_rule_catalog_matches_registered_rules():
    registered = {rule.code for rule in ALL_RULES}
    assert registered | {"SUP001"} == set(RULE_CATALOG)
    for rule in ALL_RULES:
        assert rule.description == RULE_CATALOG[rule.code]
