"""Run federation chaos scenarios, verify invariants, emit BENCH files.

Usage::

    # Refresh the committed BENCH file (runs smoke AND full sizes):
    PYTHONPATH=src python -m benchmarks.federation.harness

    # CI: smoke size only, compared against the committed file —
    # failing on schema drift or any deterministic-counter change:
    PYTHONPATH=src python -m benchmarks.federation.harness \
        --scale smoke --check

Each scale runs its scenario twice — tie-break seeds 0 and 1, race
detector on — and the harness asserts, before reporting anything:

* every steady-state hypothesis holds in both runs (zero lost intent
  records, zero double executions, writers drained, no over-allocation),
* the race detector found no schedule-sensitivity conflicts, and
* the audit log and end state of the two runs are byte-identical (the
  determinism contract of the federation bus).

The counters in the BENCH file are schedule-deterministic, so --check
compares them exactly; wall-clock seconds are informational only (this
module is the one place wall time is measured — simulation code under
``src`` never touches it).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.chaos import get_scenario, run_scenario

BENCH_DIR = Path(__file__).parent

#: scale -> (scenario name, perturbation tie-break seeds to compare).
SCALES = {
    "smoke": ("federation-cell-outage", (0, 1)),
    "full": ("federation-trace-3k", (0, 1)),
}

#: Counters whose committed values --check compares exactly (all are
#: schedule-deterministic by the federation's determinism contract).
_CHECKED_COUNTERS = (
    "cells", "total-gpus", "intents-submitted", "fed-completed",
    "fed-migrations", "fed-double-executions", "faults-injected",
    "schedule-conflicts",
)

_REQUIRED_KEYS = ("benchmark", "scales")
_REQUIRED_SCALE_KEYS = ("scenario", "seed", "tiebreak_seeds", "passed",
                        "deterministic", "counters", "hypotheses",
                        "wall_clock_s")


def run_scale(scale: str, seed: int = 0) -> dict:
    """One scenario at one scale: two perturbed runs + invariant checks."""
    name, tiebreaks = SCALES[scale]
    scenario = get_scenario(name)
    reports = []
    started = time.perf_counter()  # staticcheck: ignore[DET001] harness-only wall clock; informational, never read by sim code
    for tiebreak in tiebreaks:
        report = run_scenario(scenario, seed=seed, tiebreak_seed=tiebreak,
                              detect_races=True)
        reports.append(report)
    wall = time.perf_counter() - started  # staticcheck: ignore[DET001] harness-only wall clock; informational, never read by sim code
    baseline = reports[0]
    failures = []
    for report in reports:
        for hyp in report.hypotheses:
            if not hyp.ok:
                failures.append(
                    f"{name} tiebreak={report.tiebreak_seed}: hypothesis "
                    f"{hyp.name!r} failed: {hyp.detail}")
        if report.race_lines:
            failures.append(
                f"{name} tiebreak={report.tiebreak_seed}: "
                f"{len(report.race_lines)} schedule-race conflict(s)")
    deterministic = all(
        report.audit_lines == baseline.audit_lines
        and report.end_state() == baseline.end_state()
        for report in reports[1:])
    if not deterministic:
        failures.append(f"{name}: audit/end-state diverged across "
                        f"tie-break seeds {tiebreaks}")
    if failures:
        raise AssertionError("\n".join(failures))
    return {
        "scenario": name,
        "seed": seed,
        "tiebreak_seeds": list(tiebreaks),
        "passed": all(r.passed for r in reports),
        "deterministic": deterministic,
        "audit_entries": len(baseline.audit_lines),
        "counters": {key: baseline.counters[key]
                     for key in _CHECKED_COUNTERS
                     if key in baseline.counters},
        "hypotheses": [(h.phase, h.name, h.ok)
                       for h in baseline.hypotheses],
        "wall_clock_s": round(wall, 3),
    }


def bench_path() -> Path:
    return BENCH_DIR / "BENCH_federation.json"


def check_schema(payload: dict) -> list:
    errors = []
    for key in _REQUIRED_KEYS:
        if key not in payload:
            errors.append(f"BENCH_federation.json: missing key {key!r}")
    for scale, entry in payload.get("scales", {}).items():
        for key in _REQUIRED_SCALE_KEYS:
            if key not in entry:
                errors.append(
                    f"BENCH_federation.json[{scale}]: missing {key!r}")
    return errors


def check_counters(committed: dict, fresh: dict, scale: str) -> list:
    """Deterministic counters must match the committed file exactly."""
    entry = committed.get("scales", {}).get(scale)
    if entry is None:
        return [f"BENCH_federation.json has no {scale!r} scale entry"]
    errors = []
    for counter, committed_value in entry.get("counters", {}).items():
        fresh_value = fresh["counters"].get(counter)
        if fresh_value != committed_value:
            errors.append(
                f"{scale}: counter {counter!r} drifted "
                f"{committed_value} -> {fresh_value} (counters are "
                f"schedule-deterministic; any change is a real change)")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="federation chaos benchmarks")
    parser.add_argument("--scale", choices=("smoke", "full", "both"),
                        default="both")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed BENCH file "
                             "instead of rewriting it")
    args = parser.parse_args(argv)

    scales = ("smoke", "full") if args.scale == "both" else (args.scale,)
    results = {}
    for scale in scales:
        name, tiebreaks = SCALES[scale]
        print(f"[{scale}] {name}: {len(tiebreaks)} perturbed runs ...",
              flush=True)
        results[scale] = run_scale(scale, seed=args.seed)
        entry = results[scale]
        print(f"[{scale}] passed={entry['passed']} "
              f"deterministic={entry['deterministic']} "
              f"audit_entries={entry['audit_entries']} "
              f"wall={entry['wall_clock_s']}s", flush=True)

    if args.check:
        path = bench_path()
        if not path.exists():
            print(f"missing committed file {path}", file=sys.stderr)
            return 1
        committed = json.loads(path.read_text())
        failures = check_schema(committed)
        for scale in scales:
            failures.extend(check_counters(committed, results[scale],
                                           scale))
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("federation bench check OK")
        return 0

    path = bench_path()
    payload = {"benchmark": "federation", "scales": results}
    if path.exists():
        existing = json.loads(path.read_text())
        for scale, entry in existing.get("scales", {}).items():
            payload["scales"].setdefault(scale, entry)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
