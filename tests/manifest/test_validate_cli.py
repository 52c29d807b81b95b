"""``repro validate <manifest> [--run]`` and the chaos CLI's names."""

import subprocess
import sys
import textwrap
from pathlib import Path

from repro.chaos import get_scenario
from repro.chaos.cli import main as chaos_main
from repro.cli import main as repro_main
from repro.manifest import manifest_source

ROOT = Path(__file__).resolve().parents[2]
GOLDEN_MANIFEST = ROOT / "tests" / "staticcheck" / "fixtures" / \
    "golden_manifest.yaml"

#: Small enough to run as part of the unit suite (~1s simulated setup).
TINY_CHAOS = textwrap.dedent("""\
    kind: chaos
    name: tiny
    description: "fast smoke scenario"
    topology:
      nodes:
        - {count: 2, gpus_per_node: 4, gpu_type: K80}
    workload:
      jobs: 2
      interarrival_s: 10.0
      iterations: 20
      seed: inherit
    run: {horizon_s: 240.0, settle_s: 60.0}
    faults:
      - {at_s: 30.0, kind: etcd-leader-kill}
    hypotheses:
      checks: [no-lost-job-records, etcd-leader-elected]
      counters:
        - {name: write-errors, equals: 0}
    """)


def test_validate_clean_manifest_exits_zero(tmp_path, capsys):
    path = tmp_path / "etcd-leader-kill.yaml"
    path.write_text(manifest_source(get_scenario("etcd-leader-kill")))
    assert repro_main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "static pass clean" in out


def test_validate_prints_findings_and_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(TINY_CHAOS.replace("etcd-leader-kill",
                                      "etcd-leader-kil"))
    assert repro_main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "MAN002" in out
    assert "static finding(s)" in out


def test_validate_missing_file_exits_two(capsys):
    assert repro_main(["validate", "/no/such/file.yaml"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_validate_run_refuses_a_manifest_whose_findings_are_suppressed(
        tmp_path, capsys):
    path = tmp_path / "empty.yaml"
    path.write_text("# staticcheck: ignore[MAN001] nothing declared yet\n")
    assert repro_main(["validate", str(path), "--run"]) == 1
    out = capsys.readouterr().out
    assert "static pass clean (1 suppressed)" in out
    assert "not a scenario manifest" in out


def test_validate_run_passes_on_tiny_manifest(tmp_path, capsys):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_CHAOS)
    assert repro_main(["validate", str(path), "--run"]) == 0
    out = capsys.readouterr().out
    assert "static pass clean" in out
    assert "check no-lost-job-records: PASS" in out
    assert "check write-errors: PASS" in out
    assert "run PASS" in out


def test_validate_run_fails_on_impossible_assertion(tmp_path, capsys):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_CHAOS.replace(
        "{name: write-errors, equals: 0}",
        "{name: jobs-submitted, equals: 999}"))
    assert repro_main(["validate", str(path), "--run"]) == 1
    out = capsys.readouterr().out
    assert "check jobs-submitted: FAIL" in out
    assert "run FAIL" in out


def test_validate_run_passes_on_the_golden_manifest(capsys):
    """The golden fixture lints clean *and* its run passes: a brownout
    factor below 1 used to speed the cell up, so no brownout was ever
    classified and the recovery timed out."""
    assert repro_main(["validate", str(GOLDEN_MANIFEST), "--run"]) == 0
    assert "run PASS" in capsys.readouterr().out


def test_chaos_list_tags_kinds_without_origins(capsys):
    assert chaos_main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "etcd-leader-kill: Kill the Raft leader" in out
    assert "federation-brownout-migration: [federation] Three cells" in out
    assert "manifest" not in out and "builtin" not in out


def test_chaos_cli_needs_no_pyyaml():
    """Listing and running named scenarios never reads YAML."""
    probe = textwrap.dedent("""\
        import sys
        sys.modules["yaml"] = None
        from repro.chaos import SCENARIOS
        from repro.chaos.cli import main
        from tests.chaos.test_engine import TINY
        SCENARIOS["tiny"] = TINY
        assert main(["--list"]) == 0
        sys.exit(main(["--scenario", "tiny", "--no-audit"]))
        """)
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": f"{ROOT / 'src'}:{ROOT}"},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    assert result.returncode == 0, result.stdout
    assert "chaos scenario 'tiny' seed=0 tiebreak=0: PASS" in result.stdout


def test_chaos_unknown_scenario_exits_two(capsys):
    assert chaos_main(["--scenario", "no-such-scenario"]) == 2
    assert "unknown scenario" in capsys.readouterr().out
