"""Figure 3 — Spread vs Pack on a 60-day production trace.

Paper: (a) job arrivals by day (200-1400/day with a weekly rhythm) on a
400-GPU cluster (180 K80s + 220 V100s); (b) percentage of arriving jobs
queued >15 minutes — "Pack results in significantly fewer jobs queued for
more than 15 minutes - over 3x fewer queued jobs".

Reproduction: the synthetic trace generator (the published traces were
never released) replayed through both placement policies using the same
methodology as the paper ("we then simulated the effect of using both
Spread and Pack to schedule these jobs").  Trace length is configurable;
30 days keeps the benchmark quick while preserving the rates.
"""

import os

from repro.analysis import compare_policies, print_table
from repro.sim import RngRegistry
from repro.workloads import ProductionTrace, TraceConfig, arrivals_by_day

from tests.golden import check

DAYS = int(os.environ.get("FFDL_FIG3_DAYS", "30"))


def run_fig3():
    trace = ProductionTrace(RngRegistry(42), TraceConfig(days=DAYS))
    jobs = trace.generate()
    arrivals = arrivals_by_day(jobs, DAYS)
    results = compare_policies(jobs, DAYS)
    spread = results["spread"].percent_delayed_by_day()
    pack = results["pack"].percent_delayed_by_day()
    rows = [[day, arrivals[day], f"{spread[day]:.1f}%",
             f"{pack[day]:.1f}%"] for day in range(DAYS)]
    print_table(["day", "jobs arriving (fig 3a)",
                 "% queued >15min, Spread", "% queued >15min, Pack"],
                rows, title=f"Figure 3: Spread vs Pack over {DAYS} days "
                            f"({len(jobs)} jobs, 400 GPUs)")
    totals = (results["spread"].total_delayed,
              results["pack"].total_delayed)
    print(f"\ntotal delayed jobs: spread={totals[0]} pack={totals[1]} "
          f"(ratio {totals[0] / max(1, totals[1]):.1f}x; paper: >3x)")
    return arrivals, spread, pack, totals


def test_fig3_spread_vs_pack():
    arrivals, spread, pack, (spread_total, pack_total) = run_fig3()
    # Fig 3a shape: daily arrivals within the published band.
    assert all(200 <= c <= 1400 for c in arrivals.values())
    # Fig 3b headline: Pack delays over 3x fewer jobs than Spread.
    assert spread_total >= 3 * pack_total
    # Daily ranges resemble the published plot.
    assert max(spread.values()) <= 25.0
    assert max(spread.values()) >= 8.0
    assert max(pack.values()) <= max(spread.values())
    check(f"paper/fig3-days{DAYS}", {
        "delayed_jobs": {"spread": spread_total, "pack": pack_total},
        "arrivals": arrivals, "spread_pct": spread, "pack_pct": pack})
