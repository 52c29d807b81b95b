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

import pytest

from repro.perf import profile
from repro.sim import Environment, RngRegistry

from tests.golden import check


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
    return {"now": env.now, "report": profiler.report()}


@pytest.mark.parametrize("processes,steps", [(10, 100), (50, 200)])
def test_kernel_churn_is_pinned(processes, steps):
    check(f"sim/kernel-churn-{processes}x{steps}",
          kernel_churn(processes, steps))
