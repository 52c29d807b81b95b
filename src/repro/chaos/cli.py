"""Command-line entry point: ``python -m repro.chaos``.

Runs a named scenario and prints its report.  Exit status is 0 when all
steady-state hypotheses pass and every fault recovered, 1 when not, and
2 when ``--check-determinism`` or ``--perturb`` finds a divergent audit
log or end state.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.chaos.engine import ChaosReport, run_scenario
from repro.chaos.scenarios import SCENARIOS, get_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Run a deterministic chaos scenario against a "
                    "replicated FfDL platform.")
    parser.add_argument("--scenario", default="everything-at-once",
                        help="scenario name (see --list)")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed (default 0)")
    parser.add_argument("--list", action="store_true",
                        help="list the named scenarios and exit")
    parser.add_argument("--check-determinism", action="store_true",
                        help="run the scenario twice and fail unless the "
                             "audit logs and end states are identical")
    parser.add_argument("--tiebreak-seed", type=int, default=0,
                        help="heap tie-break permutation seed "
                             "(0 = FIFO, the default)")
    parser.add_argument("--perturb", type=int, default=0, metavar="N",
                        help="re-run the scenario under N additional "
                             "tie-break permutations and fail unless "
                             "audit logs and end states are identical")
    parser.add_argument("--detect-races", action="store_true",
                        help="attach the vector-clock schedule-"
                             "sensitivity detector (conflicts fail the "
                             "run)")
    parser.add_argument("--format", choices=("text", "md"), default="text",
                        help="report format (default text)")
    parser.add_argument("--no-audit", action="store_true",
                        help="omit the audit log from the report")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for scenario in SCENARIOS.values():
            tag = "" if scenario.kind == "chaos" \
                else f"[{scenario.kind}] "
            print(f"{scenario.name}: {tag}{scenario.description}")
        return 0
    try:
        scenario = get_scenario(args.scenario)
    except KeyError as err:
        print(err.args[0])
        return 2

    def run_once(tiebreak_seed: int) -> ChaosReport:
        return run_scenario(scenario, seed=args.seed,
                            tiebreak_seed=tiebreak_seed,
                            detect_races=args.detect_races)

    report = run_once(args.tiebreak_seed)
    print(report.render(args.format, audit=not args.no_audit))

    def reproduces(other: ChaosReport) -> bool:
        """The one witness both checks compare: audit log *and* end
        state (a counter can drift without writing an audit line)."""
        return other.audit_lines == report.audit_lines \
            and other.end_state() == report.end_state()

    if args.perturb:
        for offset in range(1, args.perturb + 1):
            perturbed_seed = args.tiebreak_seed + offset
            perturbed = run_once(perturbed_seed)
            if not reproduces(perturbed):
                print(f"perturbation check FAILED: tiebreak seed "
                      f"{perturbed_seed} diverges from "
                      f"{args.tiebreak_seed} (audit "
                      f"{len(report.audit_lines)} vs "
                      f"{len(perturbed.audit_lines)} lines)")
                return 2
        print(f"perturbation check passed: {args.perturb} permuted "
              f"schedules reproduce the audit log and end state")
    if args.check_determinism:
        rerun = run_once(args.tiebreak_seed)
        if not reproduces(rerun):
            diverging = sum(1 for a, b in
                            zip(report.audit_lines, rerun.audit_lines)
                            if a != b)
            end_states = "equal" \
                if rerun.end_state() == report.end_state() else "differ"
            print(f"determinism check FAILED: {diverging} diverging "
                  f"audit entries (lengths {len(report.audit_lines)} vs "
                  f"{len(rerun.audit_lines)}), end states {end_states}")
            return 2
        print(f"determinism check passed: {len(report.audit_lines)} "
              f"audit entries and the end state identical across two "
              f"runs")
    return 0 if report.passed else 1
