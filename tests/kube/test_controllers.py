"""Tests for ReplicaSet / StatefulSet / Job / Deployment controllers."""


from repro.kube import (
    Deployment,
    KubeJob,
    ObjectMeta,
    PodTemplate,
    RUNNING,
    ReplicaSet,
    ResourceRequest,
    SUCCEEDED,
    StatefulSet,
)
from repro.kube.objects import ContainerSpec

from tests.kube.conftest import make_cluster, sleep_workload


def template(env, duration=1000, exit_code=0, cpus=1.0, gpus=0,
             restart_policy="Never", labels=None):
    return PodTemplate(
        containers=[ContainerSpec("main", "learner:latest",
                                  sleep_workload(env, duration, exit_code))],
        resources=ResourceRequest(cpus=cpus, memory_gb=2, gpus=gpus,
                                  gpu_type="K80" if gpus else None),
        restart_policy=restart_policy,
        labels=labels or {"type": "learner"})


def test_replicaset_creates_replicas():
    env, cluster = make_cluster()
    rs = ReplicaSet(meta=ObjectMeta(name="api"), replicas=3,
                    template=template(env))
    cluster.api.create_replicaset(rs)
    env.run(until=10)
    pods = cluster.api.list_pods(owner=rs.meta.uid)
    assert len(pods) == 3
    assert all(p.phase == RUNNING for p in pods)


def test_replicaset_replaces_deleted_pod():
    env, cluster = make_cluster()
    rs = ReplicaSet(meta=ObjectMeta(name="api"), replicas=2,
                    template=template(env))
    cluster.api.create_replicaset(rs)
    env.run(until=10)
    victim = cluster.api.list_pods(owner=rs.meta.uid)[0]
    cluster.delete_pod(victim.name)
    env.run(until=30)
    pods = [p for p in cluster.api.list_pods(owner=rs.meta.uid)
            if not p.meta.deletion_requested]
    assert len(pods) == 2
    assert all(p.phase == RUNNING for p in pods)


def test_replicaset_deletion_removes_pods():
    env, cluster = make_cluster()
    rs = ReplicaSet(meta=ObjectMeta(name="api"), replicas=2,
                    template=template(env))
    cluster.api.create_replicaset(rs)
    env.run(until=10)
    cluster.api.delete_replicaset("api")
    env.run(until=30)
    assert cluster.api.list_pods(owner=rs.meta.uid) == []


def test_statefulset_pods_have_stable_identities():
    env, cluster = make_cluster()
    ss = StatefulSet(meta=ObjectMeta(name="learner"), replicas=3,
                     template=template(env), gang=False)
    cluster.api.create_statefulset(ss)
    env.run(until=10)
    names = sorted(p.name for p in cluster.api.list_pods(owner=ss.meta.uid))
    assert names == ["learner-0", "learner-1", "learner-2"]


def test_statefulset_recreates_failed_pod_with_same_name():
    env, cluster = make_cluster()
    ss = StatefulSet(meta=ObjectMeta(name="learner"), replicas=2,
                     template=template(env, duration=5, exit_code=1),
                     gang=False)
    ss.template.restart_policy = "Never"
    cluster.api.create_statefulset(ss)
    env.run(until=4)
    first_uid = cluster.api.get_pod("learner-0").meta.uid
    # Advance until the replacement exists (there is a short window between
    # deletion of the failed pod and creation of its successor).
    replacement = None
    deadline = 60
    while env.now < deadline:
        env.run(until=env.now + 1)
        replacement = cluster.api.try_get_pod("learner-0")
        if replacement is not None and replacement.meta.uid != first_uid:
            break
    assert replacement is not None
    assert replacement.meta.uid != first_uid


def test_statefulset_gang_metadata_propagates():
    env, cluster = make_cluster(gang=True)
    ss = StatefulSet(meta=ObjectMeta(name="job1-learner"), replicas=2,
                     template=template(env, gpus=1), gang=True)
    cluster.api.create_statefulset(ss)
    env.run(until=10)
    pods = cluster.api.list_pods(owner=ss.meta.uid)
    assert all(p.spec.gang_name == "job1-learner" for p in pods)
    assert all(p.spec.gang_size == 2 for p in pods)
    assert all(p.phase == RUNNING for p in pods)


def test_job_runs_to_completion():
    env, cluster = make_cluster()
    job = KubeJob(meta=ObjectMeta(name="guardian-1"),
                  template=template(env, duration=5))
    cluster.api.create_job(job)
    env.run(until=30)
    assert job.succeeded == 1


def test_job_retries_on_failure_until_success():
    env, cluster = make_cluster()
    attempts = []

    def flaky(container):
        attempts.append(env.now)
        yield env.timeout(2)
        return 1 if len(attempts) < 3 else 0

    tmpl = template(env)
    tmpl.containers = [ContainerSpec("main", "learner:latest", flaky)]
    job = KubeJob(meta=ObjectMeta(name="guardian-2"), template=tmpl,
                  backoff_limit=5)
    cluster.api.create_job(job)
    env.run(until=100)
    assert len(attempts) == 3
    assert job.succeeded == 1
    assert job.failed_attempts == 2


def test_job_gives_up_after_backoff_limit():
    env, cluster = make_cluster()
    job = KubeJob(meta=ObjectMeta(name="doomed"),
                  template=template(env, duration=2, exit_code=1),
                  backoff_limit=2)
    cluster.api.create_job(job)
    env.run(until=200)
    assert job.succeeded == 0
    assert job.failed_attempts == 3  # initial + 2 retries


def test_a_finished_job_goes_with_its_last_pod():
    # ``ttlSecondsAfterFinished: 0``: podgc removes each terminal pod
    # after its TTL, the Job goes with the last one, and the controller
    # forgets the failures it charged.
    env, cluster = make_cluster(terminal_pod_gc_ttl_s=50)
    attempts = []

    def flaky(container):
        attempts.append(env.now)
        yield env.timeout(2)
        return 1 if len(attempts) < 3 else 0

    tmpl = template(env)
    tmpl.containers = [ContainerSpec("main", "learner:latest", flaky)]
    job = KubeJob(meta=ObjectMeta(name="guardian-3"), template=tmpl)
    cluster.api.create_job(job)
    env.run(until=30)
    assert (job.succeeded, job.failed_attempts) == (1, 2)
    assert len(cluster.controllers._job_failures_counted) == 2
    assert cluster.api.exists("jobs", "guardian-3")
    env.run(until=200)
    assert not cluster.api.exists("jobs", "guardian-3")
    assert cluster.api.list_pods(owner=job.meta.uid) == []
    assert cluster.controllers._job_failures_counted == set()


def test_a_deleted_set_leaves_no_replica_counter():
    env, cluster = make_cluster()
    deployment = Deployment(meta=ObjectMeta(name="helper"), replicas=2,
                            template=template(env))
    cluster.api.create_deployment(deployment)
    env.run(until=10)
    assert cluster.controllers._rs_counters == {deployment.meta.uid: 2}
    cluster.api.delete_deployment("helper")
    assert cluster.controllers._rs_counters == {}


def test_deployment_maintains_replicas():
    env, cluster = make_cluster()
    deployment = Deployment(meta=ObjectMeta(name="helper"), replicas=2,
                            template=template(env))
    cluster.api.create_deployment(deployment)
    env.run(until=10)
    pods = cluster.api.list_pods(owner=deployment.meta.uid)
    assert len(pods) == 2
    cluster.delete_pod(pods[0].name)
    env.run(until=30)
    live = [p for p in cluster.api.list_pods(owner=deployment.meta.uid)
            if not p.meta.deletion_requested]
    assert len(live) == 2


def test_successful_set_pod_not_replaced():
    env, cluster = make_cluster()
    rs = ReplicaSet(meta=ObjectMeta(name="oneshot"), replicas=1,
                    template=template(env, duration=5, exit_code=0))
    cluster.api.create_replicaset(rs)
    env.run(until=50)
    pods = cluster.api.list_pods(owner=rs.meta.uid)
    assert len(pods) == 1
    assert pods[0].phase == SUCCEEDED
