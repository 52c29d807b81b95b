"""End-to-end benchmark: whole-platform host time on five paper-shaped
workloads, attributed by layer.

Usage (from the repository root)::

    # every workload, 3 repetitions + 1 traced run each; rewrites
    # benchmarks/e2e/results/BENCH_e2e.json
    python3 benchmarks/e2e/run.py          # or: PYTHONPATH=src:. python -m benchmarks.e2e.run

    python3 benchmarks/e2e/run.py --quick                  # ~2 s sizes
    python3 benchmarks/e2e/run.py --workload prod-trace --seed 1
    python3 benchmarks/e2e/run.py --check                  # vs committed
    python3 benchmarks/e2e/run.py --compare A.json B.json

    # the contract form: one repetition, one JSON object as last line
    python3 benchmarks/e2e/run.py --workload fed-trace --seed 3 \\
        --seconds 10 --trace 0

Every repetition runs in a fresh interpreter with ``PYTHONHASHSEED=0``,
one after the other, single-threaded.  End-to-end metrics come from
untraced repetitions; ``--trace 1`` adds one extra traced run (kernel
profiler + ``cProfile`` + instance capture) that gives the per-layer
numbers and whose slowdown is ``trace.overhead_ratio``.  Host times
are expressed at the reference host speed (see ``hostclock``); the raw
readings are kept beside them in the results file.  ``README.md`` in
this directory explains every workload and metric.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import compare as cmp  # noqa: E402
from benchmarks.e2e.hostclock import REFERENCE_KERNEL_S  # noqa: E402
from benchmarks.e2e.workloads import SIZES  # noqa: E402

RESULTS = HERE / "results"
BENCH_FILE = RESULTS / "BENCH_e2e.json"
WORKLOAD_NAMES = tuple(SIZES)
DEFAULT_SECONDS = 10.0
QUICK_SECONDS = 2.0
#: setup_s is the median of at least this many set-ups per run.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 900


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- child: one repetition in a fresh interpreter -----------------------------


def child(spec: dict) -> dict:
    """Set up and (unless ``mode == "setup"``) run one workload once."""
    from benchmarks.e2e import hostclock
    begun = hostclock.now()
    speed = [hostclock.host_speed()]
    spans = hostclock.Spans()
    burst_s = hostclock.now() - begun
    traced = spec["mode"] == "trace"
    with _capture(traced) as found:
        with spans.span("setup"):
            from benchmarks.e2e.workloads import WORKLOADS
            extra = {"days": spec["days"]} if spec.get("days") else {}
            workload = WORKLOADS[spec["workload"]](
                spec["seed"], spec["seconds"], spans, **extra)
        setup_raw_s = hostclock.now() - begun - burst_s
        speed.append(hostclock.host_speed())
        out = {"setup_raw_s": setup_raw_s,
               "setup_s": setup_raw_s / statistics.fmean(speed)}
        if spec["mode"] == "setup":
            return out
        profiler = None
        with hostclock.HostTimer(interleave=not traced) as timer:
            if traced:
                from benchmarks.e2e import layers
                profiler = layers.profiled(lambda: workload.run(spans))
            else:
                workload.run(spans)
        with spans.span("collect"):
            outcome = workload.collect()
    out.update({
        "wall_s": timer.ref_s, "wall_raw_s": timer.raw_s,
        "host_speed": timer.speed,
        "peak_rss_mb": hostclock.peak_rss_mb(),
        "units": outcome.units, "sim_s": outcome.sim_s,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "failures": outcome.failures[:20],
        "sim": {k: v for k, v in outcome.sim.items() if v is not None},
        "digest": outcome.digest,
        "race_overhead_ratio": outcome.extras.get("race_overhead_ratio"),
        "perturbation": outcome.extras.get("perturbation"),
        "spans": spans.records,
    })
    if traced:
        out["trace"] = _trace_report(spec, outcome, found, profiler, timer)
    return out


def _capture(traced: bool):
    if traced:
        from benchmarks.e2e import layers
        return layers.captured_instances()
    return contextlib.nullcontext()


def _trace_report(spec, outcome, found, profiler, timer) -> dict:
    """Per-layer numbers of the traced run, plus the isolated probes."""
    from benchmarks.e2e import layers, probes
    buckets = layers.bucket(profiler)
    events = layers.site_events(found["profiler"]) \
        if found["profiler"] else None
    shares = layers.attribute(buckets["self_s"], events)
    table = {name: {"profiled_self_s": buckets["self_s"].get(name, 0.0),
                    "events": events.get(name, 0) if events else None,
                    "attributed_share": shares[name]}
             for name in (*layers.LAYERS, layers.OTHER)}
    counters = layers.counters(found, outcome.extras.get("reports", []))
    counters.update(probes.run_probes(spec["seed"]))
    counters["perfmodel.fig5_abs_err_pp"] = None
    if "mean_runtime_s" in outcome.extras:
        try:
            counters["perfmodel.fig5_abs_err_pp"] = probes.fig5_abs_err_pp(
                outcome.extras, spec["seed"], spec["seconds"])
        except (ImportError, AttributeError, KeyError, TypeError) as err:
            layers.warn(f"perfmodel.fig5_abs_err_pp: {err!r}; null")
    return {"layers": table, "counters": counters,
            "edges": buckets["edges"], "calls": buckets["calls"],
            # The rest of the traced section is trace instrumentation.
            "profile_coverage": sum(buckets["self_s"].values())
            / timer.raw_s}


# -- parent: orchestration ----------------------------------------------------


def spawn(spec: dict) -> dict:
    """Run one child to completion and parse its last stdout line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--child", json.dumps(spec)],
        env=env, cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{spec['workload']} ({spec['mode']}) exited "
                           f"with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _stat(values: list, unit: str) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "unit": unit}


def measure(workload: str, seed: int, seconds: float, reps: int,
            trace: bool, days=None) -> dict:
    """All runs of one workload; returns its entry of the results file."""
    spec = {"workload": workload, "seed": seed, "seconds": seconds,
            "days": days}
    setups = [spawn({**spec, "mode": "setup"})["setup_s"]
              for _ in range(max(0, SETUP_SAMPLES - reps))]
    runs = [spawn({**spec, "mode": "rep"}) for _ in range(reps)]
    first = runs[0]
    problems = list(first["failures"])
    for index, run in enumerate(runs[1:], start=2):
        if run["digest"] != first["digest"] or run["sim"] != first["sim"]:
            problems.append(f"repetition {index}: digest or sim_* differ "
                            f"from repetition 1 (same seed, same size)")
    walls = [run["wall_s"] for run in runs]
    entry = {
        "size_at_10_seconds": SIZES[workload],
        "unit_of_work": first["units"],
        "end_to_end": {
            "wall_s": _stat(walls, "s"),
            "jobs_per_wall_s": _stat(
                [run["units"] / run["wall_s"] for run in runs], "1/s"),
            "sim_s_per_wall_s": _stat(
                [run["sim_s"] / run["wall_s"] for run in runs], "1"),
            "peak_rss_mb": _stat(
                [run["peak_rss_mb"] for run in runs], "MB"),
            "setup_s": _stat(
                setups + [run["setup_s"] for run in runs], "s"),
        },
        "wall_raw_s": _stat([run["wall_raw_s"] for run in runs], "s"),
        "host_speed": _stat([run["host_speed"] for run in runs], "1"),
        "sim_s": first["sim_s"],
        "sim": first["sim"],
        "attempted": first["attempted"],
        "failed": first["failed"],
        "ops_failed_share": first["failed"] / first["attempted"],
        "digest": first["digest"],
        "problems": problems,
    }
    if first["perturbation"] is not None:
        entry["perturbation"] = first["perturbation"]
    if trace:
        traced = spawn({**spec, "mode": "trace"})
        if traced["digest"] != first["digest"]:
            problems.append("traced run: digest differs from the "
                            "untraced repetitions")
        entry["per_layer"] = _per_layer(traced, runs)
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"trace_{workload}.json").write_text(json.dumps({
            "workload": workload, "seed": seed, "seconds": seconds,
            "wall_s": traced["wall_s"], "spans": traced["spans"],
            **traced["trace"]}, indent=1, sort_keys=True) + "\n")
    return entry


def _per_layer(traced: dict, runs: list) -> dict:
    """Flatten the traced run into the per-layer metric names.

    ``<layer>.self_s`` is the layer's share of the profiled self-time
    applied to the *untraced* median ``wall_s``, so the column sums to
    the wall-clock a user sees rather than to the profiler's.
    """
    trace = traced["trace"]
    wall_s = statistics.median(run["wall_s"] for run in runs)
    profiled_s = sum(row["profiled_self_s"]
                     for row in trace["layers"].values())
    values = {}
    for layer, row in trace["layers"].items():
        values[f"{layer}.self_s"] = \
            row["profiled_self_s"] / profiled_s * wall_s
        values[f"{layer}.events"] = row["events"]
        values[f"{layer}.attributed_share"] = row["attributed_share"]
    values.update(trace["counters"])
    events = values.get("sim.events_processed")
    values["sim.events_per_s"] = events / wall_s if events else None
    values["sim.us_per_event"] = wall_s * 1e6 / events if events else None
    values["sim.race_overhead_ratio"] = runs[0]["race_overhead_ratio"]
    values["trace.overhead_ratio"] = traced["wall_s"] / wall_s
    return values


def contract_line(entry: dict, trace_arg, spec: dict) -> str:
    """The one JSON object the driver reads from the last stdout line."""
    metrics = {}
    if trace_arg != 1:
        for metric in spec["end_to_end"]:
            metrics[metric["name"]] = {
                "value": entry["end_to_end"][metric["name"]]["median"],
                "unit": metric["unit"]}
    if trace_arg != 0:
        missing = []
        for metric in spec["per_layer"]:
            value = entry["per_layer"].get(metric["name"])
            if value is None:
                # Undefined here (no such layer in this workload, or a
                # symbol is gone): the results file keeps the null, the
                # contract line needs a number.
                missing.append(metric["name"])
                value = 0
            metrics[metric["name"]] = {"value": value,
                                       "unit": metric["unit"]}
        if missing:
            print(f"benchmarks.e2e: null per-layer metrics printed as 0: "
                  f"{', '.join(missing)}", file=sys.stderr)
    return json.dumps({
        "correct": not entry["problems"],
        "attempted": entry["attempted"], "failed": entry["failed"],
        "metrics": metrics})


def print_entry(name: str, entry: dict) -> None:
    print(f"\n== {name} ({entry['unit_of_work']} units, "
          f"failed {entry['failed']}/{entry['attempted']}, "
          f"digest {entry['digest']}) ==")
    for metric, stat in entry["end_to_end"].items():
        print(f"  {metric:<22} {stat['median']:>14.4f} {stat['unit']:<4} "
              f"(min {stat['min']:.4f}, max {stat['max']:.4f}, "
              f"n={stat['n']})")
    print(f"  {'wall_raw_s':<22} {entry['wall_raw_s']['median']:>14.4f} s"
          f"    (host speed x{entry['host_speed']['median']:.3f})")
    print(f"  {'ops_failed_share':<22} {entry['ops_failed_share']:>14.4f}")
    for metric, value in sorted(entry["sim"].items()):
        print(f"  {metric:<22} {value:>14.4f} s    (simulated, exact)")
    for line in entry.get("perturbation", {}).get("differing_lines", ()):
        print(f"  under tiebreak_seed=1: {line}")
    for problem in entry["problems"]:
        print(f"  PROBLEM: {problem}")
        print(f"benchmarks.e2e: {name}: {problem}", file=sys.stderr)
    if "per_layer" not in entry:
        return
    per_layer = entry["per_layer"]
    columns = ("self_s", "events", "attributed_share")
    layers = sorted({name.rsplit(".", 1)[0] for name in per_layer
                     if name.endswith(".attributed_share")},
                    key=lambda layer: -(
                        per_layer[f"{layer}.attributed_share"] or 0.0))
    print(f"  {'layer':<18} {'self_s':>9} {'events':>10} {'share':>7}")
    for layer in layers:
        self_s, events, share = (per_layer[f"{layer}.{column}"]
                                 for column in columns)
        print(f"  {layer:<18} {self_s:>9.3f} "
              f"{'-' if events is None else events:>10} "
              f"{'-' if share is None else format(share, '.3f'):>7}")
    for metric, value in sorted(per_layer.items()):
        if not metric.endswith(columns):
            print(f"  {metric:<44} {value}")


#: The benchmark's own back-to-back repetitions hold the 1-minute load
#: average at about 1.0; anything clearly above is somebody else.
LOAD_WARNING = 1.5


def host_facts() -> dict:
    load = os.getloadavg()[0]
    if load > LOAD_WARNING:
        print(f"benchmarks.e2e: warning: 1-min load average is {load:.2f}; "
              f"host times will be noisy", file=sys.stderr)
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "loadavg_1m": load, "reference_kernel_s": REFERENCE_KERNEL_S}


def run_set(args, names) -> dict:
    results = {"benchmark": "e2e", "seed": args.seed,
               "seconds": args.seconds, "reps": args.reps,
               "host": host_facts(), "workloads": {}}
    for name in names:
        entry = measure(name, args.seed, args.seconds, args.reps,
                        args.trace != 0, days=args.days)
        results["workloads"][name] = entry
        print_entry(name, entry)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="end-to-end benchmark, attributed by layer")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="size knob: host seconds one repetition "
                             "takes on the calibration box (default 10)")
    parser.add_argument("--quick", action="store_true",
                        help=f"--seconds {QUICK_SECONDS:g} --reps 1")
    parser.add_argument("--reps", type=int, default=None,
                        help="untraced repetitions (default 3; 1 when "
                             "--trace 0/1 is given, the contract form)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: add the "
                             "traced run and print per-layer metrics; "
                             "default: both")
    parser.add_argument("--days", type=int, default=None,
                        help="prod-trace only: replay this many whole "
                             "trace days unscaled (the trace_60d recipe)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the results file here")
    parser.add_argument("--check", action="store_true",
                        help="rerun the committed configuration and "
                             "compare against the committed results")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        type=Path)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(child(json.loads(args.child))))
        return 0
    if args.compare:
        first, second = (json.loads(path.read_text())
                         for path in args.compare)
        return _report_comparison(first, second)
    if not (ROOT / "src" / "repro").is_dir():
        print("benchmarks.e2e: no src/repro beside the benchmark; "
              "nothing to measure", file=sys.stderr)
        return 2
    if args.days and args.workload != "prod-trace":
        parser.error("--days needs --workload prod-trace")
    committed = None
    if args.check:
        committed = json.loads(BENCH_FILE.read_text())
        args.seed, args.seconds = committed["seed"], committed["seconds"]
        args.reps = args.reps or committed["reps"]
        args.trace = 0
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    if args.reps is None:
        args.reps = 1 if (args.quick or args.trace is not None) else 3
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    results = run_set(args, names)
    failed = any(entry["problems"]
                 for entry in results["workloads"].values())
    if committed is not None:
        return max(int(failed), _report_comparison(committed, results))
    out = args.out
    if out is None and not args.workload and not args.quick \
            and not args.days and args.trace is None:
        out = BENCH_FILE
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
        print(f"\nwrote {out}")
    if args.workload:
        print(contract_line(results["workloads"][args.workload],
                            args.trace, contract()))
        if args.trace is not None:
            # The contract form reports a wrong output as
            # ``"correct": false`` on an exit code of 0.
            return 0
    return int(failed)


def _report_comparison(first: dict, second: dict) -> int:
    rows = cmp.compare(first, second, contract()["end_to_end"])
    print(cmp.render(rows))
    counts = collections.Counter(row[-1] for row in rows)
    print("\n" + ", ".join(f"{count} {verdict}"
                           for verdict, count in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
