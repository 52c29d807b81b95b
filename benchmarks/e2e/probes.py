"""Three isolated probes: one layer each, called directly, >= 1 s each.

They price a layer's unit of work with nothing else in the way, so a
per-layer gain can be told apart from a shift of work between layers:
``sim.probe_us_per_event`` (timer and barrier churn on a bare
``Environment``), ``etcd.probe_us_per_put`` (``EtcdStore.put`` under
500 watches) and ``kube.scheduling.probe_us_per_pod`` (``create_pod``
to bind on 1000 nodes).  Times are at the reference host speed.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from benchmarks.e2e.hostclock import HostTimer, Spans
from benchmarks.e2e.layers import warn
from benchmarks.e2e.workloads import ScaleHeavy, SchedSweep


def sim_probe(seed: int) -> float:
    from repro.sim import Environment, RngRegistry
    env = Environment()
    rng = RngRegistry(seed).stream("e2e:sim-probe")
    workers, steps = 100, 2500
    barrier = {"event": env.event()}

    def driver():
        for _ in range(steps // 5):
            yield env.timeout(5.0)
            fired, barrier["event"] = barrier["event"], env.event()
            fired.succeed()

    def worker():
        delay = rng.randrange(1, 4)
        for step in range(steps):
            if step % 5 == 4:
                yield barrier["event"]
            else:
                yield env.timeout(float(delay))

    env.process(driver(), name="probe-driver")
    for _ in range(workers):
        env.process(worker(), name="probe-worker")
    with HostTimer() as timer:
        env.run()
    return timer.ref_s * 1e6 / env.events_processed


def etcd_probe(seed: int) -> float:
    from repro.etcd.kv import EtcdStore
    from repro.sim import Environment, RngRegistry
    rng = RngRegistry(seed).stream("e2e:etcd-probe")
    rounds, puts = 8, 25_000
    keys = [f"/jobs/job-{rng.randrange(400)}/status" for _ in range(puts)]
    with HostTimer() as timer:
        # A fresh store per round keeps the undrained watch queues (and
        # so memory) bounded; registering 500 watches is noise next to
        # 25 000 puts.
        for _ in range(rounds):
            store = EtcdStore(Environment())
            for i in range(400):
                store.watch(f"/jobs/job-{i}/status")
            for i in range(100):
                store.watch_prefix(f"/jobs/job-{i}/")
            for index, key in enumerate(keys):
                store.put(key, index)
    return timer.ref_s * 1e6 / (rounds * puts)


def sched_probe(seed: int) -> float:
    """``sched-sweep`` at its one-second size: nothing but the
    scheduler, the API and the kubelets runs there already."""
    spans = Spans()
    sweep = SchedSweep(seed, 1.0, spans)
    with HostTimer() as timer:
        sweep.run(spans)
    outcome = sweep.collect()
    if outcome.failed:
        raise RuntimeError(f"scheduler probe: {outcome.failures}")
    return timer.ref_s * 1e6 / outcome.units


#: Figure 5: heavy-vs-light runtime degradation by GPU type, percent
#: (K80 "6-8 %", P100 24 %, V100 51 %).
FIG5_PAPER_PP = {"K80": 7.0, "P100": 24.0, "V100": 51.0}


def fig5_abs_err_pp(heavy_extras: dict, seed: int, seconds: float) -> float:
    """Mean absolute error, in percentage points, of the simulated
    Figure 5 degradation against the paper's, using an untimed light
    run at the heavy run's scale."""
    spans = Spans()
    light_run = ScaleHeavy(seed, seconds, spans, load="light")
    light_run.run(spans)
    light = light_run.collect().extras["mean_runtime_s"]
    by_type: Dict[str, list] = {}
    for name, heavy_mean_s in heavy_extras["mean_runtime_s"].items():
        by_type.setdefault(heavy_extras["gpu_type"][name], []).append(
            100.0 * (heavy_mean_s / light[name] - 1.0))
    errors = [abs(sum(values) / len(values) - FIG5_PAPER_PP[gpu_type])
              for gpu_type, values in by_type.items()]
    return sum(errors) / len(errors)


PROBES: Dict[str, Callable[[int], float]] = {
    "sim.probe_us_per_event": sim_probe,
    "etcd.probe_us_per_put": etcd_probe,
    "kube.scheduling.probe_us_per_pod": sched_probe,
}


def run_probes(seed: int) -> Dict[str, Optional[float]]:
    values: Dict[str, Optional[float]] = {}
    for name, probe in PROBES.items():
        try:
            values[name] = probe(seed)
        except (ImportError, AttributeError, TypeError) as err:
            warn(f"{name}: {err!r}; reported as null")
            values[name] = None
    return values
