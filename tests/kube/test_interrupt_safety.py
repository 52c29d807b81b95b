"""Crash injection must never be swallowed by broad exception handlers.

Regression tests for the Interrupt-safety fixes flagged by
``repro.staticcheck`` (SAF001): an injected crash mid-image-pull used to
be caught by a broad ``except Exception`` and misreported as
ImagePullError; a crash against a running pod or container must likewise
surface as a kill, not vanish.
"""

from repro.docker import Container, Image
from repro.docker.runtime import SIGKILL_EXIT_CODE
from repro.kube import (
    ContainerSpec,
    FAILED,
    ObjectMeta,
    PENDING,
    Pod,
    PodSpec,
    RUNNING,
    ResourceRequest,
)
from repro.sim import Environment

from tests.kube.conftest import make_cluster, sleep_workload

#: 2.5e9 bytes at the registry's 2.5e8 B/s default = a 10 s pull window.
SLOW_IMAGE = Image("slowpull", framework="tensorflow", size_bytes=2.5e9)


def make_slow_pod(env, name="victim", duration=50.0):
    spec = PodSpec(
        containers=[ContainerSpec("main", "slowpull:latest",
                                  sleep_workload(env, duration))],
        resources=ResourceRequest(cpus=4, memory_gb=8, gpus=1))
    return Pod(meta=ObjectMeta(name=name, labels={"type": "learner"}),
               spec=spec)


def test_interrupt_mid_image_pull_fails_pod_instead_of_hanging():
    env, cluster = make_cluster()
    cluster.push_image(SLOW_IMAGE)
    pod = make_slow_pod(env)
    cluster.api.create_pod(pod)
    env.run(until=5)  # 1 s setup + 10 s pull: squarely mid-pull
    assert pod.phase == PENDING
    kubelet = cluster.kubelets[pod.node_name]

    assert kubelet.interrupt_pod(pod, cause="crash-injection")
    env.run(until=40)
    assert pod.phase == FAILED
    assert pod.termination_reason == "Interrupted"
    # Not misclassified as a registry problem (the pre-fix behavior).
    assert pod.termination_reason != "ImagePullError"
    # Resources released: the learner slot is reusable, nothing hangs.
    assert cluster.allocated_gpus() == 0


def test_interrupt_running_pod_kills_containers_and_fails_pod():
    env, cluster = make_cluster()
    cluster.push_image(SLOW_IMAGE)
    pod = make_slow_pod(env, duration=100.0)
    cluster.api.create_pod(pod)
    env.run(until=20)  # setup + pull complete, workload running
    assert pod.phase == RUNNING
    kubelet = cluster.kubelets[pod.node_name]
    containers = kubelet.containers_for(pod.name)
    assert containers

    assert kubelet.interrupt_pod(pod, cause="crash-injection")
    env.run(until=30)
    assert pod.phase == FAILED
    assert pod.termination_reason == "Interrupted"
    assert all(c.exit_code == SIGKILL_EXIT_CODE for c in containers)
    assert cluster.allocated_gpus() == 0


def test_interrupt_pod_without_live_process_reports_false():
    env, cluster = make_cluster()
    pod = make_slow_pod(env)
    kubelet = next(iter(cluster.kubelets.values()))
    assert kubelet.interrupt_pod(pod) is False


def test_container_runtime_interrupt_records_sigkill():
    env = Environment()
    image = Image("img", size_bytes=1e6)

    def workload(container):
        yield env.timeout(100)
        return 0

    container = Container(env, image, "c/main", workload)
    container.start()
    env.run(until=5)
    container.kill()
    env.run(until=10)
    assert container.state == "exited"
    assert container.exit_code == SIGKILL_EXIT_CODE
    assert not container._workload_process.is_alive
