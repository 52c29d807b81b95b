"""The perf scenarios: scheduling sweep (exhaustive and sampled), etcd fanout.

Each function builds a fresh simulation, runs it to completion, and
returns a dict with three sections:

``ops``
    The deterministic work counters the optimization targets (watcher
    visits, predicate evaluations).  These shrink
    when the fast paths are on and are what the CI regression check
    compares.
``state``
    A digest of observable end state.  Must be byte-identical with the
    fast paths on and off — the harness asserts it — so ``ops`` is the
    *only* thing an optimization is allowed to change.
``params``
    The scenario sizes, echoed for the BENCH file.

Everything here is schedule-deterministic: no wall clock (the harness
times the call from outside), no unseeded randomness.
"""

from __future__ import annotations

import hashlib
import json

from repro.docker import Image
from repro.etcd.kv import EtcdStore
from repro.kube import (
    Cluster,
    ContainerSpec,
    NodeCapacity,
    ObjectMeta,
    Pod,
    PodSpec,
    ResourceRequest,
)
from repro.kube.scheduling.framework import SchedulerConfig
from repro.sim import Environment, RngRegistry
from repro.sim.core import OBSERVER


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


# -- scheduling sweep -------------------------------------------------------


def sched_sweep(nodes: int = 1000, pods: int = 5000,
                seed: int = 0, pct: int = 100,
                min_feasible: int = 100) -> dict:
    """Pods arriving over simulated time on a large cluster.

    ``pct``/``min_feasible`` map to ``percentage_of_nodes_to_score`` /
    ``min_feasible_nodes_to_find``: at the default 100 the scheduler is
    exhaustive and byte-identical to the pre-sampling pipeline (the
    harness asserts the state digest against the disabled-mode run);
    below 100 it samples, and the ``quality`` section carries the
    deterministic placement-quality metrics the sampled entry must keep
    within the declared envelopes of the exhaustive run (see
    ``QUALITY_BOUNDS`` in the harness).

    Quality is sampled by an OBSERVER-priority poller (runs after each
    instant settles, so it never perturbs the schedule): time-averaged
    pending-queue depth, time-averaged GPU fragmentation (share of
    occupied nodes that are only partially occupied — the stranding
    sampling could plausibly worsen), plus the mean pod wait from
    creation to bind.
    """
    env = Environment()
    config = SchedulerConfig(percentage_of_nodes_to_score=pct,
                             min_feasible_nodes_to_find=min_feasible)
    cluster = Cluster(env, RngRegistry(seed), config)
    image = Image("bench", framework="none", size_bytes=1e6)
    cluster.push_image(image)
    cluster.add_nodes(nodes, NodeCapacity(cpus=32, memory_gb=256, gpus=4,
                                          gpu_type="K80"))
    rng = RngRegistry(seed).stream("sched-sweep")

    def sleep_workload(duration):
        def workload(container):
            yield env.timeout(duration)
            return 0
        return workload

    def submit():
        for index in range(pods):
            yield env.timeout(rng.uniform(0.02, 0.18))
            pod = Pod(
                meta=ObjectMeta(name=f"bench-{index}"),
                spec=PodSpec(
                    containers=[ContainerSpec(
                        "c", "bench",
                        workload=sleep_workload(rng.uniform(20, 60)))],
                    resources=ResourceRequest(
                        cpus=1, memory_gb=2,
                        gpus=rng.choice((1, 1, 1, 2, 4)))))
            cluster.api.create_pod(pod)

    waits: dict = {}

    def record_wait(verb, pod):
        if pod.scheduled_at is not None and pod.name not in waits:
            waits[pod.name] = pod.scheduled_at - pod.meta.creation_time

    cluster.api.subscribe("pods", record_wait)
    samples = {"ticks": 0, "pending": 0, "fragmented": 0.0}
    submitted = {"done": False}

    def quality_poller():
        while True:
            yield env.timeout(5.0, priority=OBSERVER)
            samples["ticks"] += 1
            samples["pending"] += cluster.scheduler.queue_length
            occupied = partial = 0
            for allocation in cluster.allocations.values():
                if allocation.free_gpus < allocation.capacity.gpus:
                    occupied += 1
                    if allocation.free_gpus > 0:
                        partial += 1
            if occupied:
                samples["fragmented"] += partial / occupied
            elif submitted["done"] \
                    and not cluster.scheduler.queue_length:
                return  # drained: the poller must not keep run() alive

    def submit_all():
        yield from submit()
        submitted["done"] = True

    env.process(submit_all(), name="submitter")
    env.process(quality_poller(), name="quality-poller")
    env.run()
    scheduler = cluster.scheduler
    ticks = samples["ticks"] or 1
    wait_values = sorted(waits.values())
    return {
        "params": {"nodes": nodes, "pods": pods, "seed": seed,
                   "pct": pct, "min_feasible": min_feasible},
        "ops": {
            "metric": "filter_evals",
            "nodes_examined": scheduler.nodes_examined,
            "filter_evals": scheduler.filter_evals,
            "filter_cache_hits": scheduler.filter_cache_hits,
            "score_evals": scheduler.score_evals,
            "score_cache_hits": scheduler.score_cache_hits,
        },
        "state": {
            "now": env.now,
            "events_processed": env.events_processed,
            "pods_scheduled": scheduler.pods_scheduled,
            "phase_counts": cluster.api.pod_phase_counts(),
            "allocated_gpus": cluster.allocated_gpus(),
        },
        "quality": {
            "mean_pending_depth": round(samples["pending"] / ticks, 3),
            "mean_fragmentation": round(samples["fragmented"] / ticks, 4),
            "mean_wait_s": round(
                sum(wait_values) / max(1, len(wait_values)), 4),
        },
    }


# -- etcd fanout ------------------------------------------------------------


def etcd_fanout(watchers: int = 500, writes: int = 2000,
                seed: int = 0) -> dict:
    """Many concurrent watches, writes spread over the keyspace; counts
    how many watchers each notification touches."""
    env = Environment()
    store = EtcdStore(env)
    rng = RngRegistry(seed).stream("etcd-fanout")
    exact_count = watchers * 4 // 5
    prefix_count = watchers - exact_count
    exact = [store.watch(f"/jobs/job-{i}/status")
             for i in range(exact_count)]
    prefixes = [store.watch_prefix(f"/jobs/job-{i}/")
                for i in range(prefix_count)]

    def writer():
        for index in range(writes):
            yield env.timeout(0.01)
            job = rng.randrange(exact_count)
            if index % 5 == 4:
                store.put(f"/jobs/job-{job}/progress", index)
            else:
                store.put(f"/jobs/job-{job}/status", f"step-{index}")

    env.process(writer(), name="writer")
    env.run()
    pending = [w.pending() for w in exact] + \
              [w.pending() for w in prefixes]
    return {
        "params": {"watchers": watchers, "writes": writes, "seed": seed},
        "ops": {
            "metric": "watcher_visits",
            "watcher_visits": store.watcher_visits,
            "notify_calls": store.notify_calls,
        },
        "state": {
            "revision": store.revision,
            "deliveries": sum(pending),
            "pending_digest": _digest(pending),
        },
    }


#: name -> (function, smoke kwargs, full kwargs)
SCENARIOS = {
    "sched": (sched_sweep,
              {"nodes": 100, "pods": 400},
              {"nodes": 1000, "pods": 5000}),
    # Sampled mode: pct=5 examines max(min_feasible, 5% of the cluster)
    # feasible nodes per pod.  Sampling is a *config* knob, identical in
    # optimized and disabled modes, so the state-digest equivalence
    # assert still applies; placement quality vs the exhaustive "sched"
    # entry is what QUALITY_BOUNDS in the harness constrains.  The
    # smoke scale lowers min_feasible so a 100-node cluster actually
    # samples instead of degenerating to exhaustive.
    "sched_sampled": (sched_sweep,
                      {"nodes": 100, "pods": 400,
                       "pct": 5, "min_feasible": 10},
                      {"nodes": 1000, "pods": 5000,
                       "pct": 5, "min_feasible": 100}),
    "etcd": (etcd_fanout,
             {"watchers": 100, "writes": 400},
             {"watchers": 500, "writes": 2000}),
}
