"""Per-layer attribution of one traced run, measured from outside.

Three sources, joined per layer (layers are the ``repro`` packages,
``kube`` split by sub-package):

* **host self-time** - the timed section runs under ``cProfile``; each
  function's own time (plus the time of the C builtins it calls) goes
  to the layer its source file belongs to;
* **kernel callbacks** - every ``Environment`` built during the run
  gets ``repro.perf.profile(env)`` attached, and each callback site
  family maps to a layer through :data:`SITE_LAYER`;
* **public counters** of the objects built during the run.

Objects are found by wrapping the constructors of a few public classes
*for the traced run only*; untraced repetitions run unmodified code.
Every metric degrades to ``None`` with a warning when a symbol it
reads is gone - a refactor must never turn into a benchmark error.
"""

from __future__ import annotations

import cProfile
import contextlib
import importlib
import sys
from collections import defaultdict
from typing import Callable, Dict, Optional

LAYERS = ("sim", "raft", "etcd", "mongo", "kube.api", "kube.scheduling",
          "kube.kubelet", "kube.controllers", "docker", "objectstore",
          "nfs", "core", "resilience", "federation")
#: Everything else that ran in the timed section: chaos engines,
#: workload generators, the performance model, the kernel profiler
#: hooks and the harness itself.  Listed so the shares sum to one.
OTHER = "other"

_KUBE_MODULES = {"kubelet": "kube.kubelet", "controllers": "kube.controllers"}

#: KernelProfiler site family -> layer.  ``process:<family>`` sites are
#: keyed by family; other sites by the class in their qualified name.
SITE_LAYER = {
    # sim: conditions, links, fault timers, mailboxes
    "_Condition": "sim", "link": "sim", "fault": "sim",
    "fault-once": "sim", "Mailbox": "sim",
    "raft": "raft", "net": "raft",
    "etcd": "etcd", "etcd-op": "etcd", "lease": "etcd",
    "mongo-op": "mongo", "mongo-repl": "mongo", "mongo-election": "mongo",
    "mongo": "mongo",
    "scheduler": "kube.scheduling",
    "kubelet": "kube.kubelet", "podmon": "kube.kubelet",
    "reconcile": "kube.controllers", "job-retry": "kube.controllers",
    "nodectl": "kube.controllers",
    "podgc": "kube.api", "pod-finalize": "kube.api",
    "container": "docker", "pull": "docker",
    "oss": "objectstore", "oss-get": "objectstore",
    "oss-put": "objectstore", "mount-hit": "objectstore",
    "mount-miss": "objectstore", "mount-write": "objectstore",
    "lazyvol": "nfs", "nfs-prov": "nfs", "nfs-pool": "nfs",
    "nfs-pool-hit": "nfs",
    # core: learners, the helper/guardian containers, services
    "learner": "core", "workload": "core", "api-submit": "core",
    "rpc": "core", "recover": "core", "preempt": "core",
    "gpu-sampler": "core",
    "job-writer": "resilience",
    "bus": "federation", "bus-drain": "federation",
    "FederationBus": "federation", "health": "federation",
    "monitor": "federation", "cell": "federation",
    "cell-submit": "federation", "cell-watch": "federation",
    "fed-control": "federation", "fed-reconcile": "federation",
    "fed-submit": "federation",
}

#: Classes whose instances the traced run collects, by short key.
CAPTURED_CLASSES = {
    "env": "repro.sim:Environment",
    "platform": "repro.core:FfDLPlatform",
    "cluster": "repro.kube:Cluster",
    "mount": "repro.objectstore.mount:BucketMount",
    "monitor": "repro.federation:CellHealthMonitor",
    "dispatcher": "repro.federation:FederationDispatcher",
}


def warn(message: str) -> None:
    print(f"benchmarks.e2e: warning: {message}", file=sys.stderr)


#: Instrumentation that only the traced run executes: the benchmark's
#: clock and the kernel profiler's hooks.  Their time is left out of
#: the attribution (it is what ``trace.overhead_ratio`` prices).
_INSTRUMENTATION = ("benchmarks/e2e/hostclock.py", "repro/perf/profiler.py")


def layer_of_path(filename: str) -> Optional[str]:
    """Layer of one source file; None for trace instrumentation."""
    path = filename.replace("\\", "/")
    if path.endswith(_INSTRUMENTATION):
        return None
    _, found, tail = path.rpartition("/repro/")
    if not found:
        return OTHER
    parts = tail.split("/")
    if parts[0] == "kube":
        if len(parts) > 2:
            return f"kube.{parts[1]}" if f"kube.{parts[1]}" in LAYERS \
                else "kube.api"
        return _KUBE_MODULES.get(parts[1].removesuffix(".py"), "kube.api")
    return parts[0] if parts[0] in LAYERS else OTHER


def layer_of_site(site: str) -> str:
    if site.startswith("process:"):
        return SITE_LAYER.get(site[len("process:"):], OTHER)
    return SITE_LAYER.get(site.split(".", 1)[0], OTHER)


# -- instance capture ---------------------------------------------------------


@contextlib.contextmanager
def captured_instances():
    """Collect every instance of :data:`CAPTURED_CLASSES` constructed
    inside the block, and attach a kernel profiler to each new
    ``Environment``."""
    found: Dict[str, list] = {key: [] for key in CAPTURED_CLASSES}
    found["profiler"] = []
    patched = []
    try:
        profile = importlib.import_module("repro.perf").profile
    except (ImportError, AttributeError):
        profile = None
        warn("repro.perf.profile is gone; <layer>.events will be null")

    def wrap(key: str, cls: type) -> None:
        original = cls.__init__

        def __init__(self, *args, **kwargs):
            original(self, *args, **kwargs)
            found[key].append(self)
            if key == "env" and profile is not None:
                found["profiler"].append(profile(self))

        cls.__init__ = __init__
        patched.append((cls, original))

    for key, target in CAPTURED_CLASSES.items():
        module_name, _, attr = target.partition(":")
        try:
            wrap(key, getattr(importlib.import_module(module_name), attr))
        except (ImportError, AttributeError):
            warn(f"{target} is gone; metrics read from it will be null")
    try:
        yield found
    finally:
        for cls, original in patched:
            cls.__init__ = original


# -- host self-time -----------------------------------------------------------


def profiled(section: Callable[[], None]) -> cProfile.Profile:
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        section()
    finally:
        profiler.disable()
    return profiler


def bucket(profiler: cProfile.Profile) -> dict:
    """Self-time, call counts and the caller->callee edge table by
    layer.  A builtin's own time goes to the layer that called it."""
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    edges: Dict[tuple, list] = defaultdict(lambda: [0, 0.0])
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            continue
        layer = layer_of_path(code.co_filename)
        if layer is None:
            continue
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                self_s[layer] += sub.inlinetime
                continue
            callee = layer_of_path(sub.code.co_filename)
            if callee is not None and callee != layer:
                edge = edges[(layer, callee)]
                edge[0] += sub.callcount
                edge[1] += sub.totaltime
    return {"self_s": dict(self_s), "calls": dict(calls),
            "edges": [{"caller": caller, "callee": callee,
                       "calls": count, "callee_total_s": total}
                      for (caller, callee), (count, total)
                      in sorted(edges.items())]}


def site_events(profilers: list) -> Dict[str, int]:
    """Kernel callbacks per layer, summed over every profiled env."""
    events: Dict[str, int] = defaultdict(int)
    for profiler in profilers:
        for site, stats in profiler.report()["callback_sites"].items():
            events[layer_of_site(site)] += stats["calls"]
    return dict(events)


def attribute(self_s: Dict[str, float],
              events: Optional[Dict[str, int]]) -> Dict[str, Optional[float]]:
    """``attributed_share``: a layer's own time plus the share of the
    kernel's time spent running its callbacks, over the total.  The
    kernel (``sim``) keeps only the part owed to its own callbacks, so
    the shares sum to one."""
    names = (*LAYERS, OTHER)
    total = sum(self_s.get(name, 0.0) for name in names)
    callbacks = sum(events.values()) if events else 0
    if not total or not callbacks:
        return {name: None for name in names}
    kernel = self_s.get("sim", 0.0)
    shares = {}
    for name in names:
        own = 0.0 if name == "sim" else self_s.get(name, 0.0)
        shares[name] = (own + kernel * events.get(name, 0) / callbacks) \
            / total
    return shares


# -- public counters ----------------------------------------------------------


def _total(objects, *path) -> float:
    """Sum of one attribute path over ``objects``."""
    total = 0
    for obj in objects:
        for attr in path:
            obj = obj() if attr == "()" else getattr(obj, attr)
        total += obj
    return total


def _ratio(hits, attempts) -> Optional[float]:
    return hits / attempts if attempts else None


def _report_counter(reports, key) -> Optional[float]:
    values = [r.counters[key] for r in reports if key in r.counters]
    return sum(values) if values else 0


def _raft_clusters(platforms) -> list:
    return [p.etcd.cluster for p in platforms if hasattr(p.etcd, "cluster")]


def counters(found: Dict[str, list], reports: list) -> dict:
    """Every count metric of the issue, ``None`` where unreadable."""
    envs, platforms = found["env"], found["platform"]
    clusters, mounts = found["cluster"], found["mount"]
    monitors, dispatchers = found["monitor"], found["dispatcher"]
    schedulers = [c.scheduler for c in clusters]
    writers = [p.status_writer for p in platforms] + \
        [d.intent_log for d in dispatchers]
    mongo_clients = [p.mongo_client for p in platforms] + \
        [d.mongo_client for d in dispatchers]
    caches = [p.mount_cache for p in platforms if p.mount_cache is not None]
    pools = [p.volume_pool for p in platforms if p.volume_pool is not None]

    def sched_ratio(hits: str, evals: str) -> Optional[float]:
        hit = _total(schedulers, hits)
        return _ratio(hit, hit + _total(schedulers, evals))

    table: Dict[str, Callable[[], Optional[float]]] = {
        "sim.events_processed": lambda: _total(envs, "events_processed"),
        "sim.events_scheduled": lambda: _total(envs, "events_scheduled"),
        "sim.heap_pushes": lambda: _total(envs, "heap_pushes"),
        "sim.peak_pending": lambda: max(
            (p.report()["peak_heap"] for p in found["profiler"]),
            default=None),
        "sim.link_bytes_transferred": lambda: _total(
            platforms, "oss", "link", "bytes_transferred"),
        "raft.messages_sent": lambda: _total(
            _raft_clusters(platforms), "network", "messages_sent"),
        "raft.messages_dropped": lambda: _total(
            _raft_clusters(platforms), "network", "messages_dropped"),
        "raft.terms": lambda: max(
            (node.current_term for cluster in _raft_clusters(platforms)
             for node in cluster.nodes.values()), default=0),
        "etcd.ops_issued": lambda: _total(
            platforms, "etcd_client", "ops_issued"),
        "etcd.retries": lambda: _total(platforms, "etcd_client", "retries"),
        "etcd.revision": lambda: _total(
            platforms, "etcd_store", "()", "revision"),
        "etcd.notify_calls": lambda: _total(
            platforms, "etcd_store", "()", "notify_calls"),
        "etcd.watcher_visits": lambda: _total(
            platforms, "etcd_store", "()", "watcher_visits"),
        "mongo.ops_issued": lambda: _total(mongo_clients, "ops_issued"),
        "mongo.retries": lambda: _total(mongo_clients, "retries"),
        "kube.scheduling.pods_scheduled": lambda: _total(
            schedulers, "pods_scheduled"),
        "kube.scheduling.nodes_examined": lambda: _total(
            schedulers, "nodes_examined"),
        "kube.scheduling.filter_evals": lambda: _total(
            schedulers, "filter_evals"),
        "kube.scheduling.filter_cache_hit_ratio": lambda: sched_ratio(
            "filter_cache_hits", "filter_evals"),
        "kube.scheduling.score_evals": lambda: _total(
            schedulers, "score_evals"),
        "kube.scheduling.score_cache_hit_ratio": lambda: sched_ratio(
            "score_cache_hits", "score_evals"),
        "kube.controllers.evictions": lambda: _total(
            clusters, "node_controller", "evictions"),
        "docker.pulls": lambda: _total(clusters, "registry", "pulls"),
        "docker.cache_hit_ratio": lambda: _ratio(
            _total(clusters, "registry", "cache_hits"),
            _total(clusters, "registry", "pulls")),
        "objectstore.reads": lambda: _total(mounts, "reads"),
        "objectstore.cache_hit_ratio": lambda: _ratio(
            _total(caches, "hits"),
            _total(caches, "hits") + _total(caches, "misses")),
        "objectstore.bytes_read": lambda: _total(mounts, "bytes_read"),
        "objectstore.retries": lambda: _total(mounts, "retries"),
        "objectstore.downloads_started": lambda: _total(
            platforms, "oss", "downloads_started"),
        "objectstore.uploads_started": lambda: _total(
            platforms, "oss", "uploads_started"),
        "nfs.provisioned": lambda: _total(platforms, "nfs", "provisioned"),
        "nfs.pool_hit_ratio": lambda: _ratio(
            _total(pools, "pool_hits"),
            _total(pools, "pool_hits") + _total(pools, "pool_misses")),
        "nfs.failures": lambda: _total(platforms, "nfs", "failures"),
        "core.jobs_submitted": lambda: sum(len(p.jobs) for p in platforms),
        "core.jobs_completed": lambda: sum(
            job.status.current == "COMPLETED"
            for p in platforms for job in p.jobs.values()),
        "core.api_requests_served": lambda: _total(
            platforms, "api_service", "requests_served"),
        "core.service_crashes": lambda: sum(
            _total(platforms, service, "crash_count")
            for service in ("api_service", "lcm", "metrics_service")),
        "core.admission_rejections": lambda: _total(
            platforms, "admission", "rejections"),
        "resilience.writer_enqueued": lambda: _total(
            writers, "total_enqueued"),
        "resilience.writer_flushed": lambda: _total(
            writers, "total_flushed"),
        "resilience.writer_errors": lambda: _total(writers, "write_errors"),
        "resilience.duplicates_suppressed": lambda: _total(
            writers, "duplicates_suppressed"),
        "federation.bus_messages": lambda: _report_counter(
            reports, "bus-messages"),
        "federation.dispatched": lambda: _report_counter(
            reports, "fed-dispatched"),
        "federation.migrations": lambda: _report_counter(
            reports, "fed-migrations"),
        "federation.fenced": lambda: _report_counter(
            reports, "fed-fenced"),
        "federation.spillovers": lambda: _report_counter(
            reports, "fed-spillovers"),
        "federation.stale_notifications": lambda: _report_counter(
            reports, "fed-stale-notifications"),
        "federation.probes_sent": lambda: _total(monitors, "probes_sent"),
        "federation.probes_failed": lambda: _total(
            monitors, "probes_failed"),
    }
    values = {}
    for name, read in table.items():
        try:
            values[name] = read()
        except (AttributeError, KeyError, TypeError) as err:
            warn(f"{name}: {err!r}; reported as null")
            values[name] = None
    return values
