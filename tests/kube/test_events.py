"""Tests for FailedScheduling event emission (Table 8 taxonomy)."""


from repro.kube.events import (
    REASON_NO_NODES,
    REASON_POD_NOT_FOUND,
    REASON_PVC_NOT_FOUND,
    REASON_SKIP_DELETING,
)

from tests.kube.conftest import make_cluster, make_pod


def failed_reasons(cluster):
    return [e.reason for e in cluster.api.event_log.failed_scheduling()]


def test_no_nodes_event_on_resource_exhaustion():
    env, cluster = make_cluster(nodes=1, gpus_per_node=2)
    blocker = make_pod(env, "blocker", gpus=2, duration=10_000)
    starved = make_pod(env, "starved", gpus=2, duration=10)
    cluster.api.create_pod(blocker)
    env.run(until=5)
    cluster.api.create_pod(starved)
    env.run(until=10)
    reasons = failed_reasons(cluster)
    assert REASON_NO_NODES in reasons
    events = cluster.api.event_log.failed_scheduling()
    gpu_event = next(e for e in events if e.object_name == "starved")
    assert "nvidia-gpu" in gpu_event.message


def test_no_nodes_message_includes_unschedulable_predicate():
    env, cluster = make_cluster(nodes=1, gpus_per_node=2,
                                node_detection_latency_s=1.0,
                                pod_eviction_timeout_s=1.0)
    cluster.fail_node(sorted(cluster.kubelets)[0])
    env.run(until=5)
    pod = make_pod(env, "p", gpus=1)
    cluster.api.create_pod(pod)
    env.run(until=10)
    events = [e for e in cluster.api.event_log.failed_scheduling()
              if e.object_name == "p"]
    assert events
    assert "NodeUnschedulable" in events[0].message


def test_skip_deleting_event():
    env, cluster = make_cluster(nodes=1, gpus_per_node=1)
    blocker = make_pod(env, "blocker", gpus=1, duration=10_000)
    victim = make_pod(env, "victim", gpus=1)
    cluster.api.create_pod(blocker)
    env.run(until=5)
    cluster.api.create_pod(victim)
    # Mark for deletion before the scheduler can ever place it; the event
    # fires once the scheduler's informer has observed the deletion.
    cluster.api.mark_pod_for_deletion("victim")
    cluster.scheduler.kick()
    env.run(until=8)
    cluster.scheduler.kick()  # re-attempt after the staleness window
    env.run(until=10)
    assert REASON_SKIP_DELETING in failed_reasons(cluster)


def test_pod_not_found_event():
    env, cluster = make_cluster(nodes=1, gpus_per_node=1)
    blocker = make_pod(env, "blocker", gpus=1, duration=10_000)
    ghost = make_pod(env, "ghost", gpus=1)
    cluster.api.create_pod(blocker)
    env.run(until=5)
    cluster.api.create_pod(ghost)
    cluster.api.delete_pod("ghost")  # hard delete: scheduler cache is stale
    cluster.scheduler.kick()
    env.run(until=10)
    assert REASON_POD_NOT_FOUND in failed_reasons(cluster)


def test_pvc_not_found_event():
    env, cluster = make_cluster()
    pod = make_pod(env, "claimed", gpus=1, volume_claims=["missing-claim"])
    cluster.api.create_pod(pod)
    env.run(until=5)
    assert REASON_PVC_NOT_FOUND in failed_reasons(cluster)


def test_injected_races_emit_timeout_and_assume_events():
    # What the scheduler-timeout / scheduler-assume fault kinds do: each
    # injected race fails one placement attempt, which is retried.
    from repro.kube.events import REASON_ASSUME_FAILED, REASON_TIMEOUT
    env, cluster = make_cluster(nodes=1, gpus_per_node=1)
    cluster.scheduler.inject_race(REASON_TIMEOUT)
    cluster.scheduler.inject_race(REASON_ASSUME_FAILED)
    for i in range(3):
        cluster.api.create_pod(make_pod(env, f"p{i}", gpus=1, duration=1))
    env.run(until=300)
    assert failed_reasons(cluster)[:2] == [REASON_TIMEOUT,
                                           REASON_ASSUME_FAILED]
    assert failed_reasons(cluster).count(REASON_TIMEOUT) == 1
    assert failed_reasons(cluster).count(REASON_ASSUME_FAILED) == 1
    assert all(cluster.api.get_pod(f"p{i}").phase == "Succeeded"
               for i in range(3))


def test_scheduled_event_recorded():
    from repro.kube.events import SCHEDULED
    env, cluster = make_cluster()
    cluster.api.create_pod(make_pod(env, "ok", gpus=1, duration=5))
    env.run(until=10)
    scheduled = cluster.api.event_log.of_kind(SCHEDULED)
    assert len(scheduled) == 1
    assert scheduled[0].pod_type == "learner"


def test_a_gang_failing_k_times_leaves_one_record_per_pod_with_count_k():
    """On an unchanged cluster every pass fails each pod of the gang with
    the same message: one record per pod, counted, with the first and
    last failing pass's times.  The fold state goes with the queue."""
    env, cluster = make_cluster(gang=True, nodes=2, gpus_per_node=2)
    scheduler = cluster.scheduler
    names = [f"big-{i}" for i in range(3)]
    for name in names:
        cluster.api.create_pod(make_pod(env, name, gpus=4, gang_name="big",
                                        gang_size=3))
    for _ in range(5):  # one pass a second
        scheduler.kick()
        env.run(until=env.now + 1)
    records = cluster.api.event_log.failed_scheduling()
    assert [record.object_name for record in records] == names
    assert {record.reason for record in records} == {REASON_NO_NODES}
    assert [record.count for record in records] == [5] * 3
    assert all(0 < record.time < 1 and 4 < record.last_time < 5
               for record in records)
    assert sorted(scheduler._failures) == names
    for name in names:
        cluster.api.delete_pod(name)
    scheduler.kick()
    env.run(until=env.now + 1)
    assert scheduler._failures == {}
    assert failed_reasons(cluster) == [REASON_NO_NODES] * 3 + \
        [REASON_POD_NOT_FOUND] * 3
