"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Outside tier-1 ``testpaths``: it runs every workload at its quick size
three times, about a minute in all.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(*args, check=True):
    return subprocess.run([*RUN, *args], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=check, timeout=600)


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Two complete quick sets of the same commit, same seed."""
    paths = []
    for label in ("a", "b"):
        path = tmp_path_factory.mktemp("e2e") / f"{label}.json"
        run("--quick", "--trace", "0", "--out", str(path))
        paths.append(path)
    return paths


def test_contract_names_are_well_formed():
    names = [w["name"] for w in CONTRACT["workloads"]] + \
        [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert CONTRACT["paths"] == ["benchmarks/e2e"]


def test_quick_produces_every_workload_and_metric(quick_runs):
    results = json.loads(quick_runs[0].read_text())
    assert set(results["workloads"]) == \
        {w["name"] for w in CONTRACT["workloads"]}
    for name, entry in results["workloads"].items():
        assert set(entry["end_to_end"]) == \
            {m["name"] for m in CONTRACT["end_to_end"]}, name
        assert all(stat["median"] > 0
                   for stat in entry["end_to_end"].values()), name
        assert entry["ops_failed_share"] == 0 and not entry["problems"], name


def test_two_runs_agree_exactly_on_simulated_state(quick_runs):
    first, second = (json.loads(path.read_text())["workloads"]
                     for path in quick_runs)
    for name in first:
        assert first[name]["digest"] == second[name]["digest"], name
        assert first[name]["sim"] == second[name]["sim"], name
    compared = run("--compare", *map(str, quick_runs))
    assert "regressed" not in compared.stdout
    assert "changed" not in compared.stdout


def test_compare_flags_a_doctored_wall_clock(quick_runs, tmp_path):
    bound = next(m["bound"] for m in CONTRACT["end_to_end"]
                 if m["name"] == "wall_s")
    doctored = json.loads(quick_runs[0].read_text())
    stat = doctored["workloads"]["sched-sweep"]["end_to_end"]["wall_s"]
    for key in ("median", "min", "max"):
        stat[key] *= 1.0 + bound + 0.05
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doctored))
    compared = run("--compare", str(quick_runs[0]), str(path), check=False)
    assert compared.returncode == 1
    rows = [line.split() for line in compared.stdout.splitlines()
            if line.startswith("sched-sweep")]
    verdicts = {row[1]: row[-1] for row in rows}
    assert verdicts["wall_s"] == "regressed"
    assert verdicts["peak_rss_mb"] == "ok"


def test_contract_form_prints_every_per_layer_metric():
    done = run("--workload", "sched-sweep", "--seed", "1", "--seconds", "2",
               "--trace", "1")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    shares = [value["value"] for name, value in line["metrics"].items()
              if name.endswith(".attributed_share")]
    assert abs(sum(shares) - 1.0) <= 0.02
