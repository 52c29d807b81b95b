"""Same-instant burst churn, pinned.

Every worker sleeps an integer number of ticks, so whole cohorts of
timeouts land on the same ``(time, priority)`` instant — the
settle-then-drain shape of the federation bus and of kubelet setup
storms — and every fifth step all workers park on one shared barrier
event (N waiters on a single callback list).  This was the ``kernel``
scenario of ``benchmarks/perf`` while the kernel had a timer wheel to
compare against; what it still guards is determinism: end time, event
count and the full profiler report (event types, per-site callbacks
and spawned events, peak queue depth) are the values the last
two-queue commit produced, in both of its modes.
"""

import hashlib
import json

import pytest

from repro.perf import profile
from repro.sim import Environment, RngRegistry


def kernel_churn(processes, steps, seed=0):
    env = Environment()
    profiler = profile(env)
    rng = RngRegistry(seed).stream("kernel-churn")
    barrier = {"event": env.event()}
    live = {"workers": processes}

    def driver():
        # Fires one barrier per tick until every worker is done, so no
        # worker is left parked on a barrier that never triggers.
        while live["workers"]:
            yield env.timeout(1.0)
            current, barrier["event"] = barrier["event"], env.event()
            current.succeed()

    def worker():
        for step in range(steps):
            if step % 5 == 4:
                yield barrier["event"]
            else:
                yield env.timeout(float(rng.choice((1, 2, 3))))
        live["workers"] -= 1

    env.process(driver(), name="driver")
    for index in range(processes):
        env.process(worker(), name=f"churn:{index}")
    env.run()
    report = profiler.report()
    digest = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]
    return env.now, report["events_scheduled"], digest


@pytest.mark.parametrize("processes,steps,pinned", [
    (10, 100, (173.0, 1168, "bb99cf269302c9d2")),
    (50, 200, (342.0, 8786, "bf776fcc00ec0f0f")),
])
def test_kernel_churn_is_pinned(processes, steps, pinned):
    assert kernel_churn(processes, steps) == pinned
