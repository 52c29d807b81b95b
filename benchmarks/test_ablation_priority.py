"""Ablation — priority management vs plain FCFS dispatch.

Section 3.6: "Fair sharing doesn't work well — some users/customers seem
to be/become more important than others", with "exponentially decreasing
priorities for heavy internal users" listed as ongoing work.  This
ablation runs the same contended backlog under FCFS and under the
:class:`PriorityManager` dispatch order and measures per-user mean wait:
with PM, a light user's occasional job no longer queues behind a heavy
user's backlog.
"""

from repro.analysis import print_table
from repro.core.priority import PriorityManager

from tests.golden import check

GPUS = 8
JOB_DURATION_S = 1800.0


def build_backlog():
    """60 jobs from a heavy user, 6 interleaved from a light user."""
    jobs = []
    for i in range(60):
        jobs.append((f"heavy-{i}", "heavy", float(i)))
    for i in range(6):
        jobs.append((f"light-{i}", "light", float(i * 10) + 0.5))
    jobs.sort(key=lambda j: j[2])
    return jobs


def simulate(order_fn):
    """Greedy dispatch onto GPUS slots; returns per-user mean wait."""
    jobs = build_backlog()
    pending = list(jobs)
    slot_free_at = [0.0] * GPUS
    waits = {"heavy": [], "light": []}
    now = 0.0
    while pending:
        slot = min(range(GPUS), key=lambda s: slot_free_at[s])
        now = max(slot_free_at[slot], now)
        ready = [j for j in pending if j[2] <= now] or [pending[0]]
        now = max(now, min(j[2] for j in ready))
        ready = [j for j in pending if j[2] <= now]
        choice_id = order_fn(ready, now)[0]
        job = next(j for j in ready if j[0] == choice_id)
        pending.remove(job)
        waits[job[1]].append(now - job[2])
        slot_free_at[slot] = now + JOB_DURATION_S
    return {user: sum(values) / len(values)
            for user, values in waits.items()}


def fcfs_order(ready, _now):
    return [job_id for job_id, _u, _t in sorted(ready,
                                                key=lambda j: j[2])]


def make_pm_order():
    pm = PriorityManager(half_life_hours=24.0)
    pm.register_internal("heavy")
    pm.register_internal("light")
    pm.charge("heavy", gpus=64, duration_s=48 * 3600, now_s=0.0)

    def order(ready, now):
        return pm.dispatch_order(ready, now_s=now)

    return order


def run_ablation():
    fcfs = simulate(fcfs_order)
    pm = simulate(make_pm_order())
    print_table(
        ["dispatch", "heavy-user mean wait", "light-user mean wait"],
        [["FCFS", f"{fcfs['heavy']:.0f}s", f"{fcfs['light']:.0f}s"],
         ["PriorityManager", f"{pm['heavy']:.0f}s",
          f"{pm['light']:.0f}s"]],
        title="Ablation: priority management vs FCFS "
              f"(66-job backlog on {GPUS} GPUs)")
    return fcfs, pm


def test_ablation_priority():
    fcfs, pm = run_ablation()
    # FCFS: the light user waits roughly as long as the heavy backlog.
    assert fcfs["light"] > 0.3 * fcfs["heavy"]
    # PM: the light user's wait collapses (bounded below by waiting for
    # the next slot to free, ~JOB_DURATION_S/GPUS on a full cluster)...
    assert pm["light"] < 0.4 * fcfs["light"]
    # ...at modest cost to the heavy user's average.
    assert pm["heavy"] < 1.5 * fcfs["heavy"]
    check("paper/ablation-priority", {"fcfs": fcfs, "priority-manager": pm})
