"""Tests for gang scheduling with BSA (Section 3.5 of the paper)."""

import random

import pytest

from repro.errors import KubeError
from repro.kube import (
    NodeAllocation,
    NodeCapacity,
    ObjectMeta,
    PENDING,
    PersistentVolumeClaim,
    Pod,
    PodSpec,
    RUNNING,
    ResourceRequest,
    SchedulerConfig,
)
from repro.kube.scheduling import bsa_place

from tests.kube.conftest import bsa_candidates, make_cluster, make_pod


def make_gang(env, cluster, name, learners, gpus_per_learner,
              duration=10_000):
    pods = []
    for i in range(learners):
        pod = make_pod(env, f"{name}-{i}", gpus=gpus_per_learner,
                       duration=duration, gang_name=name,
                       gang_size=learners)
        pods.append(pod)
        cluster.api.create_pod(pod)
    return pods


def test_gang_schedules_all_or_nothing():
    env, cluster = make_cluster(gang=True, nodes=2, gpus_per_node=2)
    # Gang needs 4 GPUs; cluster has 4: fits.
    gang = make_gang(env, cluster, "jobA", learners=2, gpus_per_learner=2)
    env.run(until=10)
    assert all(p.phase == RUNNING for p in gang)


def test_oversized_gang_fully_queued():
    env, cluster = make_cluster(gang=True, nodes=2, gpus_per_node=2)
    gang = make_gang(env, cluster, "too-big", learners=3,
                     gpus_per_learner=2)
    env.run(until=10)
    assert all(p.phase == PENDING for p in gang)
    assert all(p.node_name is None for p in gang)


def test_partial_gang_waits_for_remaining_members():
    env, cluster = make_cluster(gang=True, nodes=2, gpus_per_node=2)
    first = make_pod(env, "latejob-0", gpus=1, gang_name="latejob",
                     gang_size=2)
    cluster.api.create_pod(first)
    env.run(until=5)
    assert first.phase == PENDING  # gang incomplete: must not schedule
    second = make_pod(env, "latejob-1", gpus=1, gang_name="latejob",
                      gang_size=2)
    cluster.api.create_pod(second)
    env.run(until=10)
    assert first.phase == RUNNING
    assert second.phase == RUNNING


def test_no_temporary_deadlock_with_gang_scheduler():
    """Paper Section 3.5: 4 sync jobs with 2 learners x 2 GPUs on a
    4-machine, 2-GPU cluster.  With gang scheduling exactly 2 jobs run and
    2 queue; no learner holds a GPU while its peers wait."""
    env, cluster = make_cluster(gang=True, nodes=4, gpus_per_node=2)
    gangs = {f"job{j}": make_gang(env, cluster, f"job{j}", learners=2,
                                  gpus_per_learner=2) for j in range(4)}
    env.run(until=20)
    fully_running = sum(
        1 for pods in gangs.values()
        if all(p.phase == RUNNING for p in pods))
    fully_pending = sum(
        1 for pods in gangs.values()
        if all(p.phase == PENDING for p in pods))
    assert fully_running == 2
    assert fully_pending == 2
    assert cluster.idle_gpus_on_running_pods() == 0


def test_without_gang_scheduler_deadlocks_possible():
    """Individual pod scheduling can leave jobs partially placed, hoarding
    GPUs (the motivation for the gang scheduler)."""
    deadlocked_any = False
    for seed in range(5):
        env, cluster = make_cluster(gang=False, nodes=4, gpus_per_node=2,
                                    seed=seed)
        for j in range(4):
            make_gang(env, cluster, f"job{j}", learners=2,
                      gpus_per_learner=2)
        env.run(until=20)
        if cluster.idle_gpus_on_running_pods() > 0:
            deadlocked_any = True
            break
    assert deadlocked_any


def test_queued_gang_starts_when_resources_free():
    env, cluster = make_cluster(gang=True, nodes=2, gpus_per_node=2)
    running = make_gang(env, cluster, "first", learners=2,
                        gpus_per_learner=2, duration=50)
    queued = make_gang(env, cluster, "second", learners=2,
                       gpus_per_learner=2, duration=50)
    env.run(until=30)
    assert all(p.phase == RUNNING for p in running)
    assert all(p.phase == PENDING for p in queued)
    env.run(until=120)
    assert all(p.phase in (RUNNING, "Succeeded") for p in queued)


def test_a_replacement_under_a_queued_name_joins_its_gang_once():
    # g-1 waits for its claim, so the gang stays queued with both names;
    # g-0 is replaced under its own name before the next attempt.
    env, cluster = make_cluster(gang=True, nodes=2)
    api = cluster.api
    api.create_pod(make_pod(env, "g-0", gang_name="g", gang_size=2))
    api.create_pod(make_pod(env, "g-1", gang_name="g", gang_size=2,
                            volume_claims=["claim"]))
    env.run(until=1)
    api.delete_pod("g-0")
    api.create_pod(make_pod(env, "g-0", gang_name="g", gang_size=2))
    assert cluster.scheduler._units["g"].pod_names == ["g-0", "g-1"]
    api.create_pvc(PersistentVolumeClaim(ObjectMeta(name="claim"),
                                         bound=True))
    cluster.scheduler.kick()
    env.run(until=5)
    assert all(pod.phase == RUNNING for pod in api.list_pods())
    assert cluster.scheduler.pods_scheduled == 2
    assert cluster.allocated_gpus() == 2


def test_largest_gang_first_on_simultaneous_arrival():
    env, cluster = make_cluster(gang=True, nodes=2, gpus_per_node=4)
    small = make_gang(env, cluster, "small", learners=1, gpus_per_learner=4)
    large = make_gang(env, cluster, "large", learners=2, gpus_per_learner=4)
    env.run(until=10)
    # Demand is 12 GPUs against 8: the larger gang wins the same-instant
    # FCFS tie-break (Section 3.6) and the small one queues.
    assert all(p.phase == RUNNING for p in large)
    assert all(p.phase == PENDING for p in small)


def test_largest_gang_wins_tiebreak_under_scarcity():
    env, cluster = make_cluster(gang=True, nodes=1, gpus_per_node=4)
    small = make_gang(env, cluster, "small", learners=1, gpus_per_learner=2)
    large = make_gang(env, cluster, "large", learners=2, gpus_per_learner=2)
    env.run(until=10)
    assert all(p.phase == RUNNING for p in large)
    assert all(p.phase == PENDING for p in small)


# -- BSA unit tests -------------------------------------------------------------


def _bsa_pod(name, gpus, gang="g"):
    return Pod(meta=ObjectMeta(name=name),
               spec=PodSpec(resources=ResourceRequest(
                   cpus=1, memory_gb=1, gpus=gpus, gpu_type="K80"),
                   gang_name=gang, gang_size=2))


def _allocations(free_gpus_by_node):
    allocations = {}
    for name, (total, free) in free_gpus_by_node.items():
        alloc = NodeAllocation(NodeCapacity(cpus=64, memory_gb=512,
                                            gpus=total, gpu_type="K80"))
        alloc.free_gpus = free
        allocations[name] = alloc
    return allocations


def test_bsa_places_feasible_gang():
    pods = [_bsa_pod("a", 2), _bsa_pod("b", 2)]
    allocations = _allocations({"n1": (4, 4), "n2": (4, 4)})
    eligible = {"a": ["n1", "n2"], "b": ["n1", "n2"]}
    result = bsa_place(pods, allocations,
                       bsa_candidates(pods, allocations, eligible),
                       random.Random(0))
    assert result is not None
    assert set(result) == {"a", "b"}


def test_bsa_prefers_fewer_nodes():
    pods = [_bsa_pod("a", 1), _bsa_pod("b", 1)]
    allocations = _allocations({"n1": (4, 4), "n2": (4, 4)})
    eligible = {"a": ["n1", "n2"], "b": ["n1", "n2"]}
    result = bsa_place(pods, allocations,
                       bsa_candidates(pods, allocations, eligible),
                       random.Random(0), rounds=20)
    assert len(set(result.values())) == 1


def test_bsa_returns_none_when_infeasible():
    pods = [_bsa_pod("a", 4), _bsa_pod("b", 4)]
    allocations = _allocations({"n1": (4, 4), "n2": (4, 2)})
    eligible = {"a": ["n1", "n2"], "b": ["n1", "n2"]}
    result = bsa_place(pods, allocations,
                       bsa_candidates(pods, allocations, eligible),
                       random.Random(0))
    assert result is None


def test_bsa_respects_eligibility():
    pods = [_bsa_pod("a", 1)]
    allocations = _allocations({"n1": (4, 4), "n2": (4, 4)})
    eligible = {"a": ["n2"]}
    result = bsa_place(pods, allocations,
                       bsa_candidates(pods, allocations, eligible),
                       random.Random(0))
    assert result == {"a": "n2"}


def test_bsa_empty_gang_trivially_placed():
    assert bsa_place([], {}, {}, random.Random(0)) == {}


def test_bsa_biases_toward_packed_nodes():
    pods = [_bsa_pod("a", 1)]
    # n1 is nearly full (packed), n2 empty: pack bias should choose n1
    # almost always.
    allocations = _allocations({"n1": (4, 1), "n2": (4, 4)})
    eligible = {"a": ["n1", "n2"]}
    picks = [bsa_place(pods, allocations,
                       bsa_candidates(pods, allocations, eligible),
                       random.Random(s), rounds=1)["a"] for s in range(40)]
    assert picks.count("n1") > 25


def test_bsa_keeps_the_earlier_of_two_rounds_that_tie_exactly():
    # Five 3-GPU nodes with one GPU in use each: whichever node a round
    # takes, its score is the same rational number.  A sum over every
    # node's term (1/9 or 4/9, not dyadic) would round differently with
    # the taken node's position and rank the fourth round first; scored
    # on the taken node alone the tie stays a tie.
    pods = [_bsa_pod("a", 1)]
    allocations = _allocations({f"n{i}": (3, 2) for i in range(5)})
    candidates = bsa_candidates(pods, allocations,
                                {"a": list(allocations)})
    rng = random.Random(565)
    draws = [bsa_place(pods, allocations, candidates, rng, rounds=1)["a"]
             for _ in range(4)]
    assert draws == ["n4", "n4", "n2", "n1"]
    assert bsa_place(pods, allocations, candidates, random.Random(565),
                     rounds=4) == {"a": "n4"}


def test_bsa_rejects_a_node_listed_twice():
    # A fitting node named twice would weigh double in every draw.
    pods = [_bsa_pod("a", 1)]
    allocations = _allocations({"n1": (4, 4), "n2": (4, 0)})
    assert bsa_place(pods, allocations, bsa_candidates(
        pods, allocations, {"a": ["n1", "n2", "n2"]}),
        random.Random(0)) == {"a": "n1"}
    with pytest.raises(ValueError, match="eligible twice"):
        bsa_place(pods, allocations, bsa_candidates(
            pods, allocations, {"a": ["n1", "n2", "n1"]}),
            random.Random(0))


@pytest.mark.parametrize("objective", ["Pack", "packing", "", None])
def test_scheduler_config_rejects_an_unknown_bsa_objective(objective):
    # Anything but "balance" used to mean pack, silently.
    with pytest.raises(KubeError, match="bsa_objective"):
        SchedulerConfig(gang=True, bsa_objective=objective)


def test_scheduler_config_accepts_both_objectives():
    for objective in ("pack", "balance"):
        assert SchedulerConfig(
            bsa_objective=objective).bsa_objective == objective
