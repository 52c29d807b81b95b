"""Integration tests for the FederationDispatcher over real cells.

Each test builds a small federation (full FfDL platforms per cell) and
pins one dispatcher property: locality, quota, spillover, migration
fencing, idempotent re-submission, and the zero-lost-records contract.
"""

import pytest

from repro.core import statuses as st
from repro.core.manifest import JobManifest
from repro.errors import QuotaExceededError
from repro.federation import (
    BLACKOUT,
    Cell,
    CellSpec,
    FederationBus,
    FederationDispatcher,
    INTENT_QUEUED,
)
from repro.federation.health import BLACKOUT_FAILURES, RECOVER_PROBES
from repro.sim import Environment, RngRegistry


def make_federation(specs=None, seed=0, quota=64):
    env = Environment()
    rng = RngRegistry(seed)
    bus = FederationBus(env, rng)
    specs = specs or [
        CellSpec("cell-a", zone="zone-a", gpu_nodes=2, gpus_per_node=4,
                 gpu_type="K80"),
        CellSpec("cell-b", zone="zone-b", gpu_nodes=2, gpus_per_node=4,
                 gpu_type="K80"),
    ]
    cells = [Cell(env, rng, spec) for spec in specs]
    dispatcher = FederationDispatcher(env, rng, bus, cells)
    dispatcher.register_tenant("alice", gpu_quota=quota)
    return env, cells, dispatcher


def make_manifest(name="fed-job", gpus=1, learners=1, iterations=50,
                  **kwargs):
    kwargs.setdefault("dataset_object_bytes", 1e6)
    return JobManifest(name=name, user="alice", framework="tensorflow",
                       model="resnet50", learners=learners,
                       gpus_per_learner=gpus, gpu_type="K80",
                       iterations=iterations, **kwargs)


def submit(env, dispatcher, manifest, zone=None):
    return env.run_until_complete(
        dispatcher.submit(manifest, preferred_zone=zone),
        limit=env.now + 100)


def wait_state(env, intent, state, deadline=2000):
    while intent.state != state and env.now < deadline:
        env.run(until=env.now + 1.0)
    return intent.state == state


def intent_of(dispatcher, intent_id):
    return {i.intent_id: i for i in dispatcher.intents()}[intent_id]


def test_dispatch_prefers_the_tenant_zone():
    env, cells, dispatcher = make_federation()
    intent_id = submit(env, dispatcher, make_manifest(), zone="zone-b")
    intent = intent_of(dispatcher, intent_id)
    assert wait_state(env, intent, st.COMPLETED)
    assert intent.cell == "cell-b"
    assert dispatcher.counters["spillovers"] == 0
    assert dispatcher.counters["completed"] == 1
    assert dispatcher.lost_intents() == []


def test_full_zone_spills_over_to_another_zone():
    env, cells, dispatcher = make_federation()
    # Fill zone-a's only cell (8 GPUs), then ask for one more in zone-a.
    filler_id = submit(env, dispatcher,
                       make_manifest("filler", gpus=4, learners=2,
                                     iterations=4000),
                       zone="zone-a")
    spiller_id = submit(env, dispatcher, make_manifest("spill"),
                        zone="zone-a")
    spiller = intent_of(dispatcher, spiller_id)
    assert wait_state(env, spiller, st.COMPLETED)
    assert spiller.cell == "cell-b"
    assert dispatcher.counters["spillovers"] == 1
    filler = intent_of(dispatcher, filler_id)
    assert wait_state(env, filler, st.COMPLETED, deadline=20000)


def test_federation_quota_is_global_across_cells():
    env, cells, dispatcher = make_federation(quota=8)
    submit(env, dispatcher,
           make_manifest("big", gpus=4, learners=2, iterations=4000))
    with pytest.raises(QuotaExceededError):
        submit(env, dispatcher, make_manifest("over"))
    assert dispatcher.counters["rejected_quota"] == 1


def test_unknown_tenant_rejected():
    env, cells, dispatcher = make_federation()
    stranger = JobManifest(name="x", user="mallory",
                           framework="tensorflow", model="resnet50")
    with pytest.raises(QuotaExceededError):
        submit(env, dispatcher, stranger)


def test_no_matching_gpu_type_keeps_intent_queued():
    env, cells, dispatcher = make_federation()
    manifest = make_manifest("v100-job", iterations=50)
    manifest.gpu_type = "V100"
    intent_id = submit(env, dispatcher, manifest)
    env.run(until=60.0)
    intent = intent_of(dispatcher, intent_id)
    assert intent.state == INTENT_QUEUED
    assert dispatcher.lost_intents() == []


def test_blackout_migrates_and_fences_without_double_execution():
    """The whole-cell story in one test: a blackout on the dispatched
    cell migrates the intent (generation bump), the surviving cell runs
    it to completion, and the orphan is fenced at recovery — never run
    to a second completion."""
    assert (BLACKOUT_FAILURES, RECOVER_PROBES) == (3, 3)
    env, cells, dispatcher = make_federation()
    cell_a = cells[0]
    intent_id = submit(env, dispatcher,
                       make_manifest("victim", iterations=2000),
                       zone="zone-a")
    intent = intent_of(dispatcher, intent_id)
    while intent.cell_job is None and env.now < 200:
        env.run(until=env.now + 1.0)
    assert intent.cell == "cell-a"
    first_generation = intent.generation
    cell_a.begin_blackout()
    # Blackout detected after 3 missed probes; the intent migrates.
    while intent.migrations == 0 and env.now < 300:
        env.run(until=env.now + 1.0)
    assert intent.migrations == 1
    assert intent.generation > first_generation
    assert dispatcher.monitors["cell-a"].state == BLACKOUT
    assert wait_state(env, intent, st.COMPLETED, deadline=20000)
    assert intent.cell == "cell-b"
    cell_a.end_blackout()
    env.run(until=env.now + 120.0)
    assert dispatcher.monitors["cell-a"].state == "HEALTHY"
    assert dispatcher.counters["double_executions"] == 0
    assert intent.completions == 1
    # The orphan was fenced (either pre-recovery preempt or the
    # recovery fence), so cell-a runs nothing to completion.
    assert cell_a.running_job_ids() == []
    assert dispatcher.lost_intents() == []


def test_a_submit_answered_after_the_timeout_is_fenced():
    """A cell that answers a dispatch only after ``SUBMIT_TIMEOUT_S``
    has started a job nobody wants any more: the intent is requeued
    under a new generation, and the late job is fenced when its reply
    lands."""
    env, cells, dispatcher = make_federation()
    dispatcher.SUBMIT_TIMEOUT_S = 1e-4  # shorter than one bus round trip
    intent_id = submit(env, dispatcher, make_manifest("late"))
    intent = intent_of(dispatcher, intent_id)
    while dispatcher.counters["fenced"] == 0 and env.now < 100:
        env.run(until=env.now + 0.5)
    assert dispatcher.counters["fenced"] == 1
    del dispatcher.SUBMIT_TIMEOUT_S  # the class's window again
    assert wait_state(env, intent, st.COMPLETED)
    jobs = cells[0].platform.jobs
    assert [job.status.current for job in jobs.values()] == [
        st.HALTED, st.COMPLETED]
    assert intent.completions == 1
    assert dispatcher.counters["double_executions"] == 0
    assert dispatcher.lost_intents() == []


def test_committed_gpus_return_to_zero_when_work_drains():
    env, cells, dispatcher = make_federation()
    ids = [submit(env, dispatcher, make_manifest(f"job-{n}"))
           for n in range(4)]
    for intent_id in ids:
        assert wait_state(env, intent_of(dispatcher, intent_id),
                          st.COMPLETED, deadline=10000)
    state = dispatcher.end_state()
    assert all(v == 0 for v in state["committed"].values())
    assert dispatcher.counters["completed"] == 4


def test_close_drains_the_intent_log():
    env, cells, dispatcher = make_federation()
    intent_id = submit(env, dispatcher, make_manifest())
    assert wait_state(env, intent_of(dispatcher, intent_id), st.COMPLETED)
    drained = dispatcher.close()
    probes = {name: monitor.probes_sent
              for name, monitor in dispatcher.monitors.items()}
    env.run(until=env.now + 30.0)
    assert drained.triggered
    assert dispatcher.intent_log.pending == 0
    assert dispatcher.lost_intents() == []
    # close() stops the health monitors too: no cell is probed after it.
    assert {name: monitor.probes_sent
            for name, monitor in dispatcher.monitors.items()} == probes


def held_gpus(dispatcher, user):
    """Brute force over every intent ever accepted."""
    return sum(i.demand for i in dispatcher.intents()
               if i.manifest.user == user and not i.terminal)


def test_quota_usage_tracks_the_brute_force_sum_at_every_step():
    env, cells, dispatcher = make_federation(quota=10)
    dispatcher.register_tenant("bob", gpu_quota=4)

    def check():
        for user in ("alice", "bob", "mallory"):
            assert dispatcher.quota_usage(user) == held_gpus(dispatcher, user)

    def settle(intent, state, deadline=20000):
        while intent.state != state and env.now < deadline:
            env.run(until=env.now + 1.0)
            check()
        assert intent.state == state

    check()
    long_id = submit(env, dispatcher,
                     make_manifest("long", gpus=4, iterations=4000),
                     zone="zone-a")
    check()
    short_id = submit(env, dispatcher, make_manifest("short"))
    doomed_id = submit(env, dispatcher,
                       make_manifest("doomed", gpus=4, iterations=4000),
                       zone="zone-b")
    check()
    assert dispatcher.quota_usage("alice") == 9
    with pytest.raises(QuotaExceededError):
        submit(env, dispatcher, make_manifest("over", gpus=2))
    check()
    bobs = make_manifest("bobs", gpus=2)
    bobs.user = "bob"
    bobs_id = submit(env, dispatcher, bobs)
    check()
    # Complete.
    settle(intent_of(dispatcher, short_id), st.COMPLETED)
    settle(intent_of(dispatcher, bobs_id), st.COMPLETED)
    assert dispatcher.quota_usage("alice") == 8
    assert dispatcher.quota_usage("bob") == 0
    # Fail: the cell reports FAILED for the current generation.
    doomed = intent_of(dispatcher, doomed_id)
    settle(doomed, "DISPATCHED")
    {c.name: c for c in cells}[doomed.cell].notify(
        doomed_id, doomed.generation, doomed.cell_job, st.FAILED)
    settle(doomed, st.FAILED)
    assert dispatcher.quota_usage("alice") == 4
    # Migrate: still held while it is QUEUED and re-dispatched.
    long_intent = intent_of(dispatcher, long_id)
    assert long_intent.cell == "cell-a"
    dispatcher.migrate_from("cell-a")
    check()
    assert long_intent.state == INTENT_QUEUED
    assert dispatcher.quota_usage("alice") == 4
    settle(long_intent, st.COMPLETED)
    assert long_intent.migrations == 1
    assert dispatcher.quota_usage("alice") == 0


def queued_ids(dispatcher):
    return [i.intent_id for i in dispatcher.intents()
            if i.state == INTENT_QUEUED]


def test_reconcile_kicks_exactly_the_queued_intents_in_sorted_order():
    env, cells, dispatcher = make_federation()
    ids = []
    for n in range(12):
        manifest = make_manifest(f"job-{n}", iterations=4000)
        if n % 3:
            manifest.gpu_type = "V100"  # no such cell: stays QUEUED
        ids.append(submit(env, dispatcher, manifest))
    env.run(until=9.5)
    queued = queued_ids(dispatcher)
    assert queued == [i for n, i in enumerate(ids) if n % 3]
    kicked = []
    dispatcher._kick_dispatch = kicked.append
    env.run(until=10.5)  # one reconcile tick, at t=10
    assert kicked == queued
    # Migration re-queues a dispatched intent; the next tick includes it.
    del dispatcher._kick_dispatch
    dispatcher.migrate_from("cell-a")
    for cell in cells:
        cell.begin_blackout()  # nowhere to go: the migrants stay QUEUED
    env.run(until=19.5)
    queued = queued_ids(dispatcher)
    assert set(queued) > {i for n, i in enumerate(ids) if n % 3}
    dispatcher._kick_dispatch = kicked.append
    del kicked[:]
    env.run(until=20.5)
    assert kicked == queued
