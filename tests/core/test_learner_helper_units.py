"""Unit tests for learner checkpoint mechanics and the helper containers."""


import pytest

from repro.core import helper
from repro.core.helper import (
    CONTROLLER_LEASE_TTL_S,
    CONTROLLER_POLL_S,
    ControllerState,
    make_controller_workload,
    make_log_collector_workload,
)
from repro.core.learner import (
    LearnerContext, checkpoint_key, find_latest_checkpoint,
)
from repro.core.logging_service import LogIndex
from repro.core.manifest import JobManifest
from repro.docker import Container, Image
from repro.etcd import EtcdClient, EtcdStore
from repro.etcd.client import DEFAULT_ETCD_LATENCY_S
from repro.nfs import NFSVolume
from repro.objectstore import BucketMount, ObjectStorageService
from repro.perf import profile
from repro.resilience import RetryPolicy
from repro.sim import Environment
from tests.core.conftest import (
    make_manifest, make_platform, run_to_terminal, submit,
)
from tests.etcd.test_lease_keepalive_oracle import EventLeaseKeepalive


def make_ctx(env, job_id="job-x"):
    oss = ObjectStorageService(env, bandwidth_bps=1e9,
                               request_latency_s=0.0)
    oss.create_bucket("results")
    manifest = JobManifest(name="unit", user="u",
                           framework="tensorflow", model="resnet50")
    return LearnerContext(
        env=env, manifest=manifest, job_id=job_id,
        volume=NFSVolume("v"),
        data_mount=BucketMount(env, oss, "results"),
        result_mount=BucketMount(env, oss, "results")), oss


def test_checkpoint_key_sorts_numerically():
    keys = [checkpoint_key("j", 0, i) for i in (5, 50, 500, 5000)]
    assert keys == sorted(keys)


def test_find_latest_checkpoint_none_when_empty():
    env = Environment()
    ctx, _oss = make_ctx(env)
    assert find_latest_checkpoint(ctx, 0) is None


def test_find_latest_checkpoint_picks_newest():
    env = Environment()
    ctx, oss = make_ctx(env)
    bucket = oss.bucket("results")
    for iteration in (500, 1500, 1000):
        bucket.put(checkpoint_key("job-x", 0, iteration), 1e6)
    bucket.put(checkpoint_key("job-x", 1, 9000), 1e6)  # other learner
    assert find_latest_checkpoint(ctx, 0) == 1500
    assert find_latest_checkpoint(ctx, 1) == 9000


def test_controller_relays_statuses_to_etcd():
    env = Environment()
    volume = NFSVolume("shared")
    etcd = EtcdClient(env, EtcdStore(env))
    state = ControllerState()
    manifest = JobManifest(name="j", user="u", framework="tensorflow",
                           model="resnet50", learners=2)
    workload = make_controller_workload(env, manifest, "job-1", volume,
                                        etcd, state)
    container = Container(env, Image("helper"), "helper/controller",
                          workload)
    container.start()
    env.run(until=1.0)

    volume.write("learners/0/status", "DOWNLOADING")
    volume.write("learners/1/status", "DOWNLOADING")
    env.run(until=5.0)
    store = etcd.backend
    assert store.get("/jobs/job-1/learners/0/status").value == \
        "DOWNLOADING"
    assert state.statuses == {0: "DOWNLOADING", 1: "DOWNLOADING"}

    volume.write("learners/0/exit", "0")
    env.run(until=10.0)
    assert store.get("/jobs/job-1/learners/0/exit").value == "0"
    assert state.exits == {0: "0"}


def test_controller_keys_carry_lease():
    env = Environment()
    volume = NFSVolume("shared")
    store = EtcdStore(env)
    etcd = EtcdClient(env, store)
    state = ControllerState()
    manifest = JobManifest(name="j", user="u", framework="tensorflow",
                           model="resnet50")
    container = Container(env, Image("helper"), "h/controller",
                          make_controller_workload(env, manifest, "job-2",
                                                   volume, etcd, state))
    container.start()
    env.run(until=1.0)
    volume.write("learners/0/status", "PROCESSING")
    env.run(until=5.0)
    kv = store.get("/jobs/job-2/learners/0/status")
    assert kv.lease_id == state.lease_id
    # Kill the controller: the lease stops being refreshed and the stale
    # key self-erases after the TTL.
    container.kill()
    env.run(until=200.0)
    assert store.get("/jobs/job-2/learners/0/status") is None


def test_controller_picks_up_preexisting_files():
    env = Environment()
    volume = NFSVolume("shared")
    volume.write("learners/0/status", "PROCESSING")  # before start
    etcd = EtcdClient(env, EtcdStore(env))
    state = ControllerState()
    manifest = JobManifest(name="j", user="u", framework="tensorflow",
                           model="resnet50")
    container = Container(env, Image("helper"), "h/controller",
                          make_controller_workload(env, manifest, "job-3",
                                                   volume, etcd, state))
    container.start()
    env.run(until=5.0)
    assert state.statuses == {0: "PROCESSING"}


def test_log_collector_ships_incrementally():
    env = Environment()
    volume = NFSVolume("shared")
    index = LogIndex()
    container = Container(env, Image("helper"), "h/log-collector",
                          make_log_collector_workload(env, "job-4",
                                                      volume, index))
    container.start()
    env.run(until=0.5)
    volume.append("learners/0/log", "line-1\n")
    env.run(until=3.0)
    volume.append("learners/0/log", "line-2\nline-3\n")
    env.run(until=6.0)
    lines = [e.line for e in index.logs_for("job-4")]
    assert lines == ["line-1", "line-2", "line-3"]  # no duplicates


def test_log_collector_ignores_non_log_files():
    env = Environment()
    volume = NFSVolume("shared")
    index = LogIndex()
    container = Container(env, Image("helper"), "h/log-collector",
                          make_log_collector_workload(env, "job-5",
                                                      volume, index))
    container.start()
    env.run(until=0.5)
    volume.write("learners/0/status", "PROCESSING")
    env.run(until=3.0)
    assert index.logs_for("job-5") == []


# -- the relay contract ---------------------------------------------------


def start_controller(env, etcd, volume, job_id="job-r"):
    state = ControllerState()
    manifest = JobManifest(name="j", user="u", framework="tensorflow",
                           model="resnet50")
    container = Container(env, Image("helper"), "h/controller",
                          make_controller_workload(env, manifest, job_id,
                                                   volume, etcd, state))
    container.start()
    return container


def record_calls(store, method):
    """Wrap ``store.<method>`` to log ``(env.now, args)`` per call."""
    calls = []
    original = getattr(store, method)

    def recording(*args, **kwargs):
        calls.append((store.env.now, args))
        return original(*args, **kwargs)

    setattr(store, method, recording)
    return calls


def test_progress_and_log_writes_never_resume_the_controller():
    env = Environment()
    volume = NFSVolume("shared")
    etcd = EtcdClient(env, EtcdStore(env))
    profiler = profile(env)
    start_controller(env, etcd, volume)
    env.run(until=1.0)
    resumed = profiler.sites["process:workload"].calls
    for chunk in range(1, 40):
        volume.write("learners/0/iterations", str(50 * chunk))
        volume.append("learners/0/log", f"chunk {chunk}\n")
        env.run(until=env.now + 3.0)
    assert profiler.sites["process:workload"].calls == resumed
    # A status write does wake it: on the write, after the poll, and
    # when its etcd put completes.
    volume.write("learners/0/status", "PROCESSING")
    env.run(until=env.now + 3.0)
    assert profiler.sites["process:workload"].calls == resumed + 3


def test_status_reaches_etcd_one_poll_and_one_round_trip_after_its_write():
    env = Environment()
    volume = NFSVolume("shared")
    store = EtcdStore(env)
    puts = record_calls(store, "put")
    start_controller(env, EtcdClient(env, store), volume)
    env.run(until=3.3)
    # Progress writes before and after must not shift the relay's phase.
    volume.write("learners/0/iterations", "50")
    env.run(until=3.45)
    volume.write("learners/0/status", "PROCESSING")
    written_at = env.now
    env.run(until=3.6)
    volume.write("learners/0/iterations", "100")
    env.run(until=10.0)
    assert [(args[0], args[1]) for _, args in puts] == \
        [("/jobs/job-r/learners/0/status", "PROCESSING")]
    assert puts[0][0] == pytest.approx(
        written_at + CONTROLLER_POLL_S + DEFAULT_ETCD_LATENCY_S)


def test_idle_controller_moves_the_lease_deadline_every_third_of_ttl():
    env = Environment()
    volume = NFSVolume("shared")
    store = EtcdStore(env)
    start_controller(env, EtcdClient(env, store), volume)
    env.run(until=1.0)
    volume.write("learners/0/status", "PROCESSING")
    env.run(until=2.0)
    # The chain runs as arithmetic: read the deadline it settles once a
    # second, and each keepalive's reply instant off each new value.
    lease = store._leases[
        store.get("/jobs/job-r/learners/0/status").lease_id]
    deadlines = [lease.deadline]
    for second in range(3, 10 * int(CONTROLLER_LEASE_TTL_S) + 1):
        env.run(until=float(second))
        if lease.deadline != deadlines[-1]:
            deadlines.append(lease.deadline)
    times = [deadline - CONTROLLER_LEASE_TTL_S for deadline in deadlines[1:]]
    assert len(times) >= 25
    # Each keepalive goes out TTL/3 after the previous one completed.
    period = CONTROLLER_LEASE_TTL_S / 3 + DEFAULT_ETCD_LATENCY_S
    assert times[0] == pytest.approx(period + DEFAULT_ETCD_LATENCY_S)
    for earlier, later in zip(times, times[1:]):
        assert later - earlier == pytest.approx(period)
    assert store.get("/jobs/job-r/learners/0/status").value == "PROCESSING"


def idle_controller(horizon_s):
    """Kernel events and etcd operations of a controller idle for
    ``horizon_s``."""
    env = Environment()
    etcd = EtcdClient(env, EtcdStore(env))
    start_controller(env, etcd, NFSVolume("shared"))
    env.run(until=horizon_s)
    return env.events_processed, etcd.ops_issued


def test_an_idle_controller_costs_no_kernel_event_per_keepalive(monkeypatch):
    events, ops = zip(*(idle_controller(n * CONTROLLER_LEASE_TTL_S)
                        for n in (10, 100)))
    assert events[0] == events[1]
    assert ops[1] > ops[0] > 25
    # As many keepalives as the timer chain sends.
    monkeypatch.setattr(
        helper, "LeaseKeepalive",
        lambda env, etcd, lease, on_error: EventLeaseKeepalive(
            env, etcd, lease.lease_id, on_error))
    assert ops == tuple(idle_controller(n * CONTROLLER_LEASE_TTL_S)[1]
                        for n in (10, 100))


def test_etcd_outage_past_the_retry_budget_fails_the_controller():
    env = Environment()
    volume = NFSVolume("shared")
    etcd = EtcdClient(env, EtcdStore(env),
                      retry=RetryPolicy(max_attempts=3, jitter=False))
    container = start_controller(env, etcd, volume)
    env.run(until=5.0)
    etcd.set_available(False)
    env.run(until=CONTROLLER_LEASE_TTL_S / 3 - 1.0)
    assert container.is_running  # idle: nothing has touched etcd yet
    env.run(until=CONTROLLER_LEASE_TTL_S / 3 + 5.0)
    assert container.exit_code == 1
    assert "StoreUnavailableError" in container.logs[-1][1]


def test_keepalive_failure_mid_relay_fails_the_controller_after_it():
    env = Environment()
    volume = NFSVolume("shared")
    store = EtcdStore(env)
    etcd = EtcdClient(env, store)  # single-shot: no retry budget
    container = start_controller(env, etcd, volume)
    keepalive_at = CONTROLLER_LEASE_TTL_S / 3 + DEFAULT_ETCD_LATENCY_S
    env.run(until=keepalive_at - 0.2)
    volume.write("learners/0/status", "PROCESSING")  # opens a window
    etcd.set_available(False)
    env.run(until=keepalive_at + 0.1)  # the keepalive has failed
    etcd.set_available(True)
    assert container.is_running  # mid-relay: the error waits
    env.run(until=keepalive_at + 5.0)
    # The window's status still lands; then the controller fails.
    assert store.get("/jobs/job-r/learners/0/status").value == "PROCESSING"
    assert container.exit_code == 1
    assert container.finished_at == pytest.approx(
        keepalive_at - 0.2 + CONTROLLER_POLL_S + DEFAULT_ETCD_LATENCY_S)
    assert "StoreUnavailableError" in container.logs[-1][1]


def test_a_keepalive_on_a_revoked_lease_fails_the_controller():
    env = Environment()
    volume = NFSVolume("shared")
    store = EtcdStore(env)
    keepalives = record_calls(store, "keepalive")
    container = start_controller(env, EtcdClient(env, store), volume)
    env.run(until=5.0)
    assert store.revoke(1)  # the controller's lease
    env.run(until=10 * CONTROLLER_LEASE_TTL_S)
    # The first keepalive finds the lease gone and ends the chain, as
    # etcd's client closes its KeepAlive stream on ErrLeaseNotFound.
    assert len(keepalives) == 1
    assert container.exit_code == 1
    assert container.finished_at == pytest.approx(
        CONTROLLER_LEASE_TTL_S / 3 + 2 * DEFAULT_ETCD_LATENCY_S)
    assert "LeaseExpiredError" in container.logs[-1][1]


# -- on the platform ------------------------------------------------------


def test_no_helper_workload_fails_in_a_completed_job():
    env, platform = make_platform()
    spawn = env.process
    workloads = []

    def recording_process(generator, name="process"):
        workloads.append(spawn(generator, name))
        return workloads[-1]

    env.process = recording_process
    job_id = submit(env, platform, make_manifest(iterations=300))
    assert run_to_terminal(env, platform, job_id) == "COMPLETED"
    relays = [proc for proc in workloads if proc.name.startswith("lazyvol:")]
    assert sorted(proc.name.rsplit("/", 1)[1] for proc in relays) == \
        ["controller", "log-collector"]
    # The exit the controller relays lets the Guardian release the volume
    # in the same instant; the controller then ends cleanly, not on a
    # read of the released volume.
    assert [(proc.name, proc.value) for proc in relays if not proc.ok] == []


def controller_resumptions(iterations):
    env, platform = make_platform()
    profiler = profile(env)
    job_id = submit(env, platform, make_manifest(iterations=iterations))
    assert run_to_terminal(env, platform, job_id) == "COMPLETED"
    # Both relay containers of the helper pod run inside ``lazyvol:``.
    return profiler.sites["process:lazyvol"].calls


def test_controller_callbacks_do_not_grow_with_iterations():
    # Ten times the chunks, and so ten times the progress writes: the
    # relay loops still resume only for statuses, exits and log lines.
    assert controller_resumptions(300) == 19
    assert controller_resumptions(3000) == 19
