"""``bsa_place`` against the BSA every round of which rebuilt the cluster.

The reference is ``bsa_place`` as it stood while each sampling round
built a fresh ``_Tentative`` view of every node, filtered and weighted a
pod's candidates over those views, and scored the round over all of
them; it is kept verbatim below (``reference_bsa_place`` and its three
helpers).  Random gangs on random clusters - nodes with 0, 2, 4 or 8
GPUs of two types, some in use, fractional free CPU and scarce memory;
gangs of one to five mixed requests (CPU-only, typed and untyped GPU);
eligibility lists in any order that name nodes which no longer fit, or
that are missing for a pod; both objectives, one to eight rounds - are
placed by both from twin ``random.Random`` streams.  The assignment
(or ``None``) and the stream's ``getstate()`` afterwards must be equal
by ``==``, and neither may touch the allocations it was given.
"""

import random
from typing import Dict, List, Optional, Sequence

from hypothesis import given, settings, strategies as st

from repro.kube.objects import ObjectMeta, Pod, PodSpec
from repro.kube.resources import NodeAllocation, NodeCapacity, ResourceRequest
from repro.kube.scheduling.bsa import (
    OBJECTIVE_BALANCE,
    OBJECTIVE_PACK,
    bsa_place,
)

from tests.conftest import examples


class _Tentative:
    """Lightweight free-resource view used during a sampling round."""

    __slots__ = ("free_cpus", "free_memory_gb", "free_gpus", "capacity")

    def __init__(self, allocation: NodeAllocation):
        self.free_cpus = allocation.free_cpus
        self.free_memory_gb = allocation.free_memory_gb
        self.free_gpus = allocation.free_gpus
        self.capacity = allocation.capacity

    def fits(self, request: ResourceRequest) -> bool:
        if request.gpus > 0:
            if self.capacity.gpus == 0:
                return False
            if request.gpu_type not in (None, "any", self.capacity.gpu_type):
                return False
            if request.gpus > self.free_gpus:
                return False
        return (request.cpus <= self.free_cpus + 1e-9
                and request.memory_gb <= self.free_memory_gb + 1e-9)

    def take(self, request: ResourceRequest) -> None:
        self.free_cpus -= request.cpus
        self.free_memory_gb -= request.memory_gb
        self.free_gpus -= request.gpus

    def gpu_utilization(self) -> float:
        if self.capacity.gpus == 0:
            return 0.0
        return (self.capacity.gpus - self.free_gpus) / self.capacity.gpus


def _bias_weight(view: _Tentative, request: ResourceRequest,
                 alpha: float, objective: str) -> float:
    """Sampling bias toward nodes that improve the objective."""
    if objective == OBJECTIVE_BALANCE:
        if request.gpus > 0:
            return (1.0 + view.free_gpus) ** alpha
        return (1.0 + view.free_cpus) ** alpha
    if request.gpus > 0:
        return (1.0 + view.gpu_utilization() * view.capacity.gpus) ** alpha
    used_cpu = view.capacity.cpus - view.free_cpus
    return (1.0 + used_cpu) ** alpha


def _assignment_score(assignment: Dict[str, str],
                      views: Dict[str, _Tentative],
                      objective: str) -> float:
    if objective == OBJECTIVE_BALANCE:
        # Minimize the variance of GPU utilization across nodes.
        utils = [view.gpu_utilization() for view in views.values()]
        mean = sum(utils) / len(utils)
        variance = sum((u - mean) ** 2 for u in utils) / len(utils)
        return -variance
    # Pack: fewer distinct nodes, higher GPU packing.
    nodes_used = len(set(assignment.values()))
    packing = sum(view.gpu_utilization() ** 2
                  for view in views.values())
    return -float(nodes_used) + 0.01 * packing


def reference_bsa_place(
    pods: Sequence[Pod],
    allocations: Dict[str, NodeAllocation],
    eligible_nodes: Dict[str, List[str]],
    rng: random.Random,
    rounds: int = 8,
    alpha: float = 2.0,
    objective: str = OBJECTIVE_PACK,
) -> Optional[Dict[str, str]]:
    if not pods:
        return {}
    # Largest resource consumers first: standard bin-packing ordering that
    # BSA rounds all share.
    ordered = sorted(
        pods,
        key=lambda p: (p.spec.resources.gpus, p.spec.resources.cpus),
        reverse=True)
    best: Optional[Dict[str, str]] = None
    best_score = float("-inf")
    for _round in range(rounds):
        views = {name: _Tentative(alloc)
                 for name, alloc in allocations.items()}
        assignment: Dict[str, str] = {}
        feasible_round = True
        for pod in ordered:
            request = pod.spec.resources
            candidates = [n for n in eligible_nodes.get(pod.name, [])
                          if views[n].fits(request)]
            if not candidates:
                feasible_round = False
                break
            weights = [_bias_weight(views[n], request, alpha, objective)
                       for n in candidates]
            choice = rng.choices(candidates, weights=weights, k=1)[0]
            assignment[pod.name] = choice
            views[choice].take(request)
        if not feasible_round:
            continue
        score = _assignment_score(assignment, views, objective)
        if score > best_score:
            best_score = score
            best = assignment
    return best


#: (GPUs, GPU type, GPUs in use, free CPUs of 16, free memory of 64 GB).
_NODE = st.tuples(
    st.sampled_from([0, 2, 4, 4, 8, 8]),
    st.sampled_from(["K80", "V100"]),
    st.sampled_from([0, 0, 0, 1, 2, 3, 8]),
    st.one_of(st.sampled_from([0.0, 0.5, 16.0, 16.0]),
              st.floats(min_value=0.0, max_value=16.0)),
    st.sampled_from([64.0, 64.0, 8.0, 1.0]),
)
#: (GPUs, GPU type, CPUs, memory): repeated values give equal weights,
#: a typed request rules out the other type's nodes.
_REQUEST = st.tuples(
    st.sampled_from([0, 1, 1, 2, 4]),
    st.sampled_from([None, "any", "any", "K80", "V100"]),
    st.one_of(st.sampled_from([0.5, 1.0, 4.0]),
              st.floats(min_value=0.0, max_value=8.0)),
    st.sampled_from([0.0, 1.0, 8.0]),
)


@st.composite
def problems(draw):
    nodes = draw(st.lists(_NODE, min_size=1, max_size=12))
    allocations = {}
    for i, (gpus, gpu_type, in_use, free_cpus, free_memory) in \
            enumerate(nodes):
        allocation = NodeAllocation(NodeCapacity(
            cpus=16.0, memory_gb=64.0, gpus=gpus,
            gpu_type=gpu_type if gpus else None))
        allocation.free_gpus = gpus - min(in_use, gpus)
        allocation.free_cpus = free_cpus
        allocation.free_memory_gb = free_memory
        allocations[f"n{i}"] = allocation
    names = list(allocations)
    pods, eligible = [], {}
    for i, (gpus, gpu_type, cpus, memory) in enumerate(
            draw(st.lists(_REQUEST, min_size=1, max_size=5))):
        name = f"p{i}"
        pods.append(Pod(meta=ObjectMeta(name=name), spec=PodSpec(
            resources=ResourceRequest(cpus=cpus, memory_gb=memory,
                                      gpus=gpus, gpu_type=gpu_type))))
        # Any subset in any order, fitting or not; rarely no entry.
        order = draw(st.permutations(names))
        kept = draw(st.integers(1, len(order)) | st.just(len(order)))
        if draw(st.sampled_from([True] * 9 + [False])):
            eligible[name] = order[:kept]
    return pods, allocations, eligible


def free_state(allocations):
    return [(a.free_cpus, a.free_memory_gb, a.free_gpus)
            for a in allocations.values()]


def place(placer, problem, seed, rounds, alpha, objective):
    pods, allocations, eligible = problem
    before = free_state(allocations)
    rng = random.Random(seed)
    result = placer(pods, allocations, eligible, rng, rounds=rounds,
                    alpha=alpha, objective=objective)
    assert free_state(allocations) == before
    return result, rng.getstate()


@settings(max_examples=examples(300), deadline=None)
@given(problem=problems(), seed=st.integers(min_value=0, max_value=2 ** 16),
       rounds=st.integers(min_value=1, max_value=8),
       alpha=st.sampled_from([2.0, 2.0, 0.5]),
       objective=st.sampled_from([OBJECTIVE_PACK, OBJECTIVE_BALANCE]))
def test_bsa_draws_and_places_as_the_full_rebuild_did(problem, seed, rounds,
                                                      alpha, objective):
    args = (problem, seed, rounds, alpha, objective)
    assert place(bsa_place, *args) == place(reference_bsa_place, *args)


def test_a_cluster_sized_gang_draws_the_same():
    """Scheduler-shaped calls: a hundred nodes, eligibility in node
    order, gangs of four that fill nodes mid-round."""
    for seed in range(40):
        shape = random.Random(seed)
        allocations = {}
        for i in range(100):
            allocation = NodeAllocation(NodeCapacity(
                cpus=32.0, memory_gb=256.0, gpus=4,
                gpu_type="K80" if i % 3 else "V100"))
            allocation.free_gpus = shape.randint(0, 4)
            allocation.free_cpus = 32.0 - 4.0 * (4 - allocation.free_gpus)
            allocations[f"node-{i}"] = allocation
        gpus = shape.choice([1, 2, 4])
        pods = [Pod(meta=ObjectMeta(name=f"learner-{k}"), spec=PodSpec(
            resources=ResourceRequest(cpus=4.0, memory_gb=8.0, gpus=gpus,
                                      gpu_type="K80")))
                for k in range(4)]
        eligible = {pod.name: [name for name, a in allocations.items()
                               if a.fits(pod.spec.resources)]
                    for pod in pods}
        for objective in (OBJECTIVE_PACK, OBJECTIVE_BALANCE):
            args = ((pods, allocations, eligible), seed, 8, 2.0, objective)
            assert place(bsa_place, *args) == \
                place(reference_bsa_place, *args)
