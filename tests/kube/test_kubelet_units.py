"""Unit tests for kubelet edge cases."""


from repro.kube import FAILED, RUNNING
from repro.kube.kubelet import RESTART_DELAY_S

from tests.kube.conftest import make_cluster, make_pod


def test_missing_image_fails_pod():
    env, cluster = make_cluster()
    pod = make_pod(env, "noimg", gpus=1)
    pod.spec.containers[0].image = "ghost:latest"
    cluster.api.create_pod(pod)
    env.run(until=30)
    assert pod.phase == FAILED
    assert pod.termination_reason == "ImagePullError"
    # Resources were returned despite the pod never running.
    assert cluster.allocated_gpus() == 0


def test_pod_setup_annotation_delays_start():
    env, cluster = make_cluster()
    slow = make_pod(env, "slow", gpus=1, duration=10)
    slow.meta.annotations["pod-setup-seconds"] = "20"
    fast = make_pod(env, "fast", gpus=1, duration=10)
    fast.meta.annotations["pod-setup-seconds"] = "0.5"
    cluster.api.create_pod(slow)
    cluster.api.create_pod(fast)
    env.run(until=60)
    assert fast.started_at < slow.started_at
    assert slow.started_at - slow.scheduled_at >= 20


def test_first_pull_pays_image_transfer_cached_after():
    from repro.docker import Image
    env, cluster = make_cluster(nodes=1)
    cluster.push_image(Image("bigimage", size_bytes=2.5e9))
    first = make_pod(env, "first", gpus=1, duration=5)
    first.spec.containers[0].image = "bigimage:latest"
    first.meta.annotations["pod-setup-seconds"] = "0.1"
    cluster.api.create_pod(first)
    env.run(until=60)
    # 2.5 GB at 250 MB/s: ~10s pull before Running.
    assert first.started_at - first.scheduled_at >= 10
    second = make_pod(env, "second", gpus=1, duration=5)
    second.spec.containers[0].image = "bigimage:latest"
    second.meta.annotations["pod-setup-seconds"] = "0.1"
    cluster.api.create_pod(second)
    env.run(until=120)
    assert second.started_at - second.scheduled_at < 2.0


def test_restart_delay_paces_container_restarts():
    env, cluster = make_cluster()
    attempts = []

    def always_fails(container):
        attempts.append(env.now)
        yield env.timeout(1)
        return 1

    pod = make_pod(env, "crashloop", workload=always_fails)
    pod.spec.restart_policy = "OnFailure"
    cluster.api.create_pod(pod)
    env.run(until=35)
    assert len(attempts) >= 3
    gaps = [b - a for a, b in zip(attempts, attempts[1:])]
    # Each restart waits at least the restart delay.
    assert all(gap >= RESTART_DELAY_S for gap in gaps)


def test_deletion_during_setup_aborts_start():
    env, cluster = make_cluster()
    pod = make_pod(env, "aborted", gpus=1, duration=100)
    pod.meta.annotations["pod-setup-seconds"] = "10"
    cluster.api.create_pod(pod)
    env.run(until=3)  # pod scheduled, still in setup
    cluster.delete_pod("aborted")
    env.run(until=60)
    assert not cluster.api.exists("pods", "aborted")
    assert cluster.allocated_gpus() == 0
    # It never reached Running.
    assert pod.started_at is None or pod.phase != RUNNING
