"""Known bug, pinned: an intent runs to completion twice when its cell
goes dark between the learner's exit and the COMPLETED status.

The learner has exited 0 (its exit file is on the NFS volume) but the
guardian has not yet recorded COMPLETED when the blackout begins.  The
dispatcher migrates the intent and the copy completes elsewhere.  At
recovery the guardian finds the exit file and reports COMPLETED within
seconds — before the monitor has seen the probes it needs to leave
BLACKOUT, which is when the queued fence would have reached the job.
Its stale COMPLETED then arrives after the copy's: two completions.

Both tests assert the behaviour we want and are ``xfail(strict=True)``:
the fix turns them green, and must then drop the marker.
"""

import dataclasses

import pytest

from repro.chaos import get_scenario, run_scenario
from repro.core import statuses as st
from repro.kube.objects import SUCCEEDED
from tests.federation.test_dispatcher import (
    intent_of,
    make_federation,
    make_manifest,
    submit,
)

KNOWN = "stale COMPLETED from a recovered cell beats the queued fence"


@pytest.fixture
def rerun_after_learner_exit():
    """One job: black cell-a out inside the ~60 ms window, entered by
    watching the learner pod.  The set-up is asserted here, outside the
    xfail, so a test that no longer reaches the window errors."""
    env, cells, dispatcher = make_federation()
    cell_a = cells[0]
    intent_id = submit(env, dispatcher,
                       make_manifest("victim", gpus=4, iterations=88),
                       zone="zone-a")
    intent = intent_of(dispatcher, intent_id)

    def learner_exited():
        return any(pod.phase == SUCCEEDED
                   and pod.meta.labels.get("type") == "learner"
                   for pod in cell_a.platform.cluster.api.list_pods())

    while not learner_exited() and env.now < 200:
        env.run(until=env.now + 0.01)
    assert intent.cell == "cell-a" and intent.state == "DISPATCHED"
    assert cell_a.platform.jobs[intent.cell_job].status.current \
        == st.PROCESSING
    cell_a.begin_blackout()
    env.run(until=env.now + 240.0)
    assert intent.migrations == 1
    cell_a.end_blackout()
    env.run(until=env.now + 120.0)
    assert intent.state == st.COMPLETED
    return dispatcher, intent


@pytest.mark.xfail(strict=True, reason=KNOWN)
def test_blackout_after_learner_exit_does_not_run_the_intent_twice(
        rerun_after_learner_exit):
    dispatcher, intent = rerun_after_learner_exit
    assert intent.completions == 1
    assert dispatcher.counters["double_executions"] == 0


@pytest.mark.xfail(strict=True, reason=KNOWN)
def test_federation_trace_3k_seed_102_has_no_double_execution():
    """Where it was found (benchmarks/e2e, PR 11): ``federation-trace-3k``
    under a 2 s/job trace on seed 102, blackout at t=180 s as shipped.
    1077 is the smallest ``jobs`` that shows it with the 2400 s window
    (every count from 35 to 1100 was run); the run is cut at t=470 s,
    past the recovery at t=420 s and the stale COMPLETED at t=427 s."""
    base = get_scenario("federation-trace-3k")
    scenario = dataclasses.replace(
        base, jobs=1077, arrival_window_s=2400.0, horizon_s=460.0,
        settle_s=10.0, tenant_quota_gpus=4096)
    report = run_scenario(scenario, seed=102)
    assert report.counters["fed-double-executions"] == 0
