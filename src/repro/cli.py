"""Command-line interface (the CLI box of the paper's Figure 1).

Drives a self-contained FfDL deployment from job manifests expressed as
JSON, mirroring the real FfDL CLI's verbs::

    python -m repro.cli demo --manifest job.json
    python -m repro.cli show-tshirt-sizes
    python -m repro.cli validate --manifest job.json

Because the platform is simulated, ``demo`` stands up a small cluster,
submits the manifest, fast-forwards simulated time to completion and
prints the status timeline and logs — the full "tens of minutes" user
experience of the paper compressed into one command.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields
from typing import Optional, Sequence, get_args, get_type_hints

from repro.core import FfDLPlatform, JobManifest, PlatformConfig
from repro.core.tshirt import TSHIRT_SIZES
from repro.errors import ReproError
from repro.sim import Environment, RngRegistry

#: Manifest keys accepted from JSON (everything else is rejected loudly).
_MANIFEST_FIELDS = {
    "name", "user", "framework", "model", "command", "data_bucket",
    "result_bucket", "learners", "gpus_per_learner", "gpu_type",
    "cpus_per_learner", "memory_gb_per_learner", "iterations",
    "batch_size", "dataset_objects", "dataset_object_bytes",
    "checkpoint_interval_iterations", "checkpoint_bytes",
}


def load_manifest(path: str) -> JobManifest:
    """The manifest a JSON file holds; anything malformed in it is a
    :class:`ReproError`."""
    with open(path) as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ReproError(f"a manifest is a JSON object, not "
                         f"{type(raw).__name__}")
    unknown = set(raw) - _MANIFEST_FIELDS
    if unknown:
        raise ReproError(
            f"unknown manifest fields: {', '.join(sorted(unknown))}")
    missing = [field.name for field in fields(JobManifest)
               if field.default is MISSING and field.name not in raw]
    if missing:
        raise ReproError(f"missing manifest fields: {', '.join(missing)}")
    hints = get_type_hints(JobManifest)
    for name, value in raw.items():
        allowed = get_args(hints[name]) or (hints[name],)
        if float in allowed:
            allowed += (int,)
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ReproError(f"manifest field {name!r} has the wrong "
                             f"type: {value!r}")
    return JobManifest(**raw)


def manifest_from_args(args: argparse.Namespace) -> JobManifest:
    if args.manifest:
        return load_manifest(args.manifest)
    return JobManifest(name=args.name, user=args.user,
                       framework=args.framework, model=args.model,
                       learners=args.learners,
                       gpus_per_learner=args.gpus,
                       gpu_type=args.gpu_type,
                       iterations=args.iterations,
                       checkpoint_interval_iterations=args.checkpoint)


def cmd_validate(args: argparse.Namespace) -> int:
    if args.scenario_manifest:
        return _validate_scenario(args)
    manifest = manifest_from_args(args)
    manifest.validate()
    print(f"manifest OK: {manifest.learners} learner(s) x "
          f"{manifest.gpus_per_learner} {manifest.gpu_type} GPU(s), "
          f"{manifest.effective_cpus():.0f} CPUs / "
          f"{manifest.effective_memory_gb():.0f} GB per learner")
    return 0


def _validate_scenario(args: argparse.Namespace) -> int:
    """``repro validate <manifest.yaml> [--run]``: static MAN pass,
    then (optionally) compile, run, and check declared hypotheses."""
    from pathlib import Path

    from repro.manifest import compile_manifest
    from repro.staticcheck.manifest import analyze_manifest

    path = Path(args.scenario_manifest)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        return 2
    display = path.as_posix()
    findings, suppressed, _model = analyze_manifest(source, display)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{display}: {len(findings)} static finding(s)")
        return 1
    note = f" ({len(suppressed)} suppressed)" if suppressed else ""
    print(f"{display}: static pass clean{note}")
    if not args.run:
        return 0

    compiled = compile_manifest(source, display)
    seed = args.seed if args.seed is not None \
        else (compiled.seed_override or 0)
    print(f"running {compiled.name} [{compiled.kind}] seed={seed} "
          f"tiebreak={args.tiebreak_seed} ...")
    report = compiled.run(seed=seed, tiebreak_seed=args.tiebreak_seed)
    results = compiled.verify(report)
    for result in results:
        print(f"  check {result.name}: "
              f"{'PASS' if result.ok else 'FAIL'} ({result.detail})")
    ok = report.passed and all(result.ok for result in results)
    print(f"{display}: run "
          f"{'PASS' if ok else 'FAIL'} "
          f"(engine hypotheses {'pass' if report.passed else 'FAIL'}, "
          f"{len(results)} declared check(s))")
    return 0 if ok else 1


def cmd_show_tshirt_sizes(_args: argparse.Namespace) -> int:
    print(f"{'GPU config':<12} {'CPUs':>5} {'memory (GB)':>12}")
    for (gpu_type, gpus), size in sorted(TSHIRT_SIZES.items()):
        print(f"{gpus}x{gpu_type:<10} {size.cpus:>5} "
              f"{size.memory_gb:>12}")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    manifest = manifest_from_args(args)
    manifest.validate()
    env = Environment()
    platform = FfDLPlatform(env, RngRegistry(args.seed), PlatformConfig())
    platform.add_gpu_nodes(args.nodes, gpus_per_node=args.gpus_per_node,
                           gpu_type=manifest.gpu_type)
    platform.admission.register(manifest.user, gpu_quota=args.quota)
    job_id = env.run_until_complete(platform.submit_job(manifest))
    print(f"submitted {job_id}")
    final = env.run_until_complete(platform.wait_for_terminal(job_id),
                                   limit=args.sim_limit)
    env.run(until=env.now + 30)
    job = platform.job(job_id)
    print(f"final status: {final} (simulated "
          f"{job.finished_at - job.submitted_at:.0f}s)")
    print("timeline:")
    for status, when in job.status.timeline():
        print(f"  {when:10.1f}s  {status}")
    if args.logs:
        print("logs:")
        for entry in platform.stream_logs(job_id):
            print(f"  [{entry.time:9.1f}s] {entry.source}: {entry.line}")
    return 0 if final == "COMPLETED" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="FfDL reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_manifest_args(p):
        p.add_argument("--manifest", help="path to a JSON job manifest")
        p.add_argument("--name", default="cli-job")
        p.add_argument("--user", default="cli-user")
        p.add_argument("--framework", default="tensorflow")
        p.add_argument("--model", default="resnet50")
        p.add_argument("--learners", type=int, default=1)
        p.add_argument("--gpus", type=int, default=1)
        p.add_argument("--gpu-type", dest="gpu_type", default="K80")
        p.add_argument("--iterations", type=int, default=1000)
        p.add_argument("--checkpoint", type=int, default=0,
                       help="checkpoint interval in iterations")

    validate = sub.add_parser(
        "validate",
        help="validate a job manifest, or statically lint (and "
             "optionally run) a YAML scenario manifest")
    validate.add_argument(
        "scenario_manifest", nargs="?", default=None,
        help="path to a YAML scenario manifest; when given, runs the "
             "MAN static pass instead of JSON job-manifest validation")
    validate.add_argument("--run", action="store_true",
                          help="after a clean static pass, compile and "
                               "run the scenario and check its "
                               "declared hypotheses")
    validate.add_argument("--seed", type=int, default=None,
                          help="run seed (default: the manifest's "
                               "workload.seed, else 0)")
    validate.add_argument("--tiebreak-seed", dest="tiebreak_seed",
                          type=int, default=0,
                          help="heap tie-break permutation seed")
    add_manifest_args(validate)
    validate.set_defaults(fn=cmd_validate)

    sizes = sub.add_parser("show-tshirt-sizes",
                           help="print the Table 5 learner sizes")
    sizes.set_defaults(fn=cmd_show_tshirt_sizes)

    demo = sub.add_parser("demo", help="run a job on a simulated cluster")
    add_manifest_args(demo)
    demo.add_argument("--nodes", type=int, default=4)
    demo.add_argument("--gpus-per-node", dest="gpus_per_node", type=int,
                      default=4)
    demo.add_argument("--quota", type=int, default=64)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--logs", action="store_true",
                      help="print collected training logs")
    demo.add_argument("--sim-limit", dest="sim_limit", type=float,
                      default=1e8)
    demo.set_defaults(fn=cmd_demo)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ReproError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
