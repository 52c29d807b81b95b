"""Figure 4 — The need for gang scheduling.

Paper: 15 machines x 4 K80s; three workloads of 50 concurrent synchronous
jobs (2Lx1G, 2Lx2G, 4Lx1G), 20 repetitions each, with and without the BSA
gang scheduler.  CDFs of (a) temporarily deadlocked learners and (b) idle
GPUs.  Headline: ideal full-or-nothing scheduling happens only ~40% of the
time without gang scheduling, idle GPUs reach 46%, and with gang
scheduling both are zero in every run.
"""

from repro.analysis import empirical_cdf, print_table, probability_of_zero
from repro.workloads import GANG_WORKLOADS, run_gang_experiment

from tests.golden import check

REPEATS = 20


def run_fig4():
    outcomes = {}
    for learners, gpus in GANG_WORKLOADS:
        for gang in (False, True):
            runs = [run_gang_experiment(learners, gpus, gang=gang, seed=s)
                    for s in range(REPEATS)]
            outcomes[(learners, gpus, gang)] = runs
    rows = []
    for (learners, gpus, gang), runs in outcomes.items():
        deadlocked = [r.deadlocked_learners for r in runs]
        idle = [r.idle_gpu_percent for r in runs]
        rows.append([
            f"50 jobs, {learners}L x {gpus}GPU/L",
            "gang (BSA)" if gang else "default",
            f"{min(deadlocked)}-{max(deadlocked)}",
            f"{probability_of_zero(deadlocked):.2f}",
            f"{max(idle):.0f}%",
        ])
    print_table(["workload", "scheduler", "deadlocked learners (range)",
                 "P(no deadlock)", "max idle GPUs"],
                rows, title=f"Figure 4: deadlocks over {REPEATS} runs")
    print("\nCDF of deadlocked learners (default scheduler):")
    for learners, gpus in GANG_WORKLOADS:
        runs = outcomes[(learners, gpus, False)]
        cdf = empirical_cdf([r.deadlocked_learners for r in runs])
        points = ", ".join(f"({v:.0f}, {p:.2f})" for v, p in cdf)
        print(f"  {learners}Lx{gpus}G: {points}")
    return outcomes


def test_fig4_gang_scheduling():
    outcomes = run_fig4()
    for learners, gpus in GANG_WORKLOADS:
        gang_runs = outcomes[(learners, gpus, True)]
        # "The number of idle GPUs and the number of temporarily
        # deadlocked jobs has been zero, for all runs with gang
        # scheduling."
        assert all(r.deadlocked_learners == 0 for r in gang_runs)
        assert all(r.idle_gpus == 0 for r in gang_runs)
        default_runs = outcomes[(learners, gpus, False)]
        deadlocked = [r.deadlocked_learners for r in default_runs]
        # Deadlocks occur in a majority-ish of runs without gang mode.
        assert probability_of_zero(deadlocked) < 0.7
        assert max(deadlocked) >= 4
    # Idle GPUs can reach tens of percent (paper: up to 46%).
    worst_idle = max(r.idle_gpu_percent
                     for (l, g, gang), runs in outcomes.items()
                     if not gang for r in runs)
    assert worst_idle >= 25.0
    check("paper/fig4", {
        f"{learners}Lx{gpus}G/{'gang' if gang else 'default'}": {
            "deadlocked_learners": [r.deadlocked_learners for r in runs],
            "idle_gpu_percent": [r.idle_gpu_percent for r in runs]}
        for (learners, gpus, gang), runs in outcomes.items()})
