"""``Placement.plan``, the scheduler's one decision, with no ``Environment``.

Random clusters - nodes of 0, 2, 4 or 8 GPUs of two types in two pools,
some cordoned, some partly in use - take a run of random scheduling
units: one pod (gang scheduling off, so its class key is scored) or a
gang of one to four pods with mixed requests, selectors and owners
(unscored keys), under either policy and either BSA objective.  Each
unit is planned, and its assignment applied to the allocations and the
owner counts as the scheduler's bind does.  Then:

* applying it never over-allocates a node, every node it names is ready
  and matches its pod's selector, and ``plan`` itself changed nothing;
* a gang is placed whole or not at all, and the pods reported as
  unschedulable are none, the pods with no feasible node, or all of them;
* a twin built from the same inputs, handed a twin ``random.Random``,
  gives the same answers and leaves its stream in the same state;
* a one-pod unit gets ``best_node``'s answer, asked of a twin that added
  its nodes in another order.
"""

import random

from hypothesis import example, given, settings, strategies as st

from repro.kube.objects import Node, ObjectMeta, Pod, PodSpec
from repro.kube.resources import NodeAllocation, NodeCapacity, ResourceRequest
from repro.kube.scheduling.bsa import OBJECTIVE_BALANCE, OBJECTIVE_PACK
from repro.kube.scheduling.placement import Placement, class_key
from repro.kube.scheduling.policies import PACK, SPREAD

from tests.conftest import examples

CAPACITIES = [NodeCapacity(cpus=8, memory_gb=32, gpus=gpus, gpu_type=kind)
              for gpus in (0, 2, 4, 8) for kind in ("K80", "V100")]
REQUESTS = [ResourceRequest(cpus=cpus, memory_gb=memory, gpus=gpus,
                            gpu_type=kind)
            for cpus, memory, gpus, kind in (
                (1, 4, 0, None), (2.5, 8, 0, None), (1, 4, 1, None),
                (2, 8, 2, None), (1, 4, 1, "K80"), (4, 16, 4, "V100"),
                (0.5, 30, 1, None))]
SELECTORS = [{}, {"pool": "a"}, {"pool": "b"}]
OWNERS = [None, "set-a", "set-b"]

NODES = st.lists(st.tuples(st.integers(0, len(CAPACITIES) - 1),
                           st.sampled_from("ab"),       # pool label
                           st.booleans(),               # cordoned
                           st.lists(st.integers(0, len(REQUESTS) - 1),
                                    max_size=3)),       # in use
                 min_size=1, max_size=8)
UNITS = st.lists(st.tuples(
    st.booleans(),                                      # a gang?
    st.lists(st.tuples(st.integers(0, len(REQUESTS) - 1),
                       st.integers(0, len(SELECTORS) - 1),
                       st.integers(0, len(OWNERS) - 1)),
             min_size=1, max_size=4)),
    min_size=1, max_size=6)


def build(nodes, order, policy, objective):
    """A candidate index over ``nodes``, added in ``order``, with each
    node's in-use requests taken from its allocation where they fit."""
    allocations = {}
    placement = Placement(policy, allocations, objective)
    for i in order:
        shape, pool, cordoned, used = nodes[i]
        node = Node(meta=ObjectMeta(name=f"n{i}", labels={"pool": pool}),
                    capacity=CAPACITIES[shape], unschedulable=cordoned)
        allocation = allocations[node.name] = NodeAllocation(node.capacity)
        for request in used:
            if allocation.fits(REQUESTS[request]):
                allocation.allocate(REQUESTS[request])
        placement.add_node(node)
    return placement


def feasible(placement, pod):
    """The nodes a fresh scan finds ready, matching and fitting ``pod``."""
    return [name for name, node in placement._nodes.items()
            if node.is_ready and all(
                node.meta.labels.get(k) == v
                for k, v in pod.spec.node_selector.items())
            and placement.allocations[name].fits(pod.spec.resources)]


def free_state(placement):
    return {name: (a.free_cpus, a.free_memory_gb, a.free_gpus)
            for name, a in placement.allocations.items()}


def apply(placement, pods, assignment):
    """The bind: take each pod's request from its node, journal the node,
    count the pod's owner there."""
    for pod in pods:
        name = assignment[pod.name]
        placement.allocations[name].allocate(pod.spec.resources)
        placement.invalidate(name)
        if pod.meta.owner is not None:
            placement.count_owner(pod.meta.owner, name, 1)


@settings(max_examples=examples(60), deadline=None)
@given(nodes=NODES, units=UNITS, seed=st.integers(0, 2 ** 16),
       policy=st.sampled_from([PACK, SPREAD]),
       objective=st.sampled_from([OBJECTIVE_PACK, OBJECTIVE_BALANCE]),
       shuffle=st.randoms(use_true_random=False))
# Under Spread the owner's second pod leaves the emptier node it already
# occupies for a busier one: ``best_node`` must be asked for the owner.
@example(nodes=[(6, "a", False, []), (6, "a", False, [3])],
         units=[(False, [(2, 0, 1)])] * 2, seed=0, policy=SPREAD,
         objective=OBJECTIVE_PACK, shuffle=random.Random(0))
def test_plan_places_whole_units_within_capacity(nodes, units, seed, policy,
                                                 objective, shuffle):
    order = list(range(len(nodes)))
    placement, twin = (build(nodes, order, policy, objective)
                       for _ in range(2))
    shuffle.shuffle(order)
    reordered = build(nodes, order, policy, objective)
    rng, twin_rng = random.Random(seed), random.Random(seed)
    for u, (gang, members) in enumerate(units):
        if not gang:
            members = members[:1]
        pods = [Pod(meta=ObjectMeta(name=f"u{u}-{m}", owner=OWNERS[owner]),
                    spec=PodSpec(resources=REQUESTS[request],
                                 node_selector=SELECTORS[selector]))
                for m, (request, selector, owner) in enumerate(members)]
        keys = [class_key(pod.spec.resources, pod.spec.node_selector,
                          not gang) for pod in pods]
        before = free_state(placement)
        expected = None if gang else reordered.best_node(
            pods[0].spec.resources, pods[0].spec.node_selector,
            pods[0].meta.owner, keys[0])

        assignment, unplaced = placement.plan(pods, keys, rng)

        assert free_state(placement) == before
        assert (assignment, unplaced) == twin.plan(pods, keys, twin_rng)
        assert rng.getstate() == twin_rng.getstate()
        if not gang:
            assert assignment == (None if expected is None
                                  else {pods[0].name: expected})
        empty = [pod for pod in pods if not feasible(placement, pod)]
        if assignment is None:
            assert unplaced == (empty or pods)
            continue
        assert empty == unplaced == [] and sorted(assignment) == sorted(
            pod.name for pod in pods)
        for pod in pods:
            assert assignment[pod.name] in feasible(placement, pod)
        for each in (placement, twin, reordered):
            apply(each, pods, assignment)  # raises on over-allocation
        for allocation in placement.allocations.values():
            assert allocation.free_gpus >= 0
            assert allocation.free_cpus >= -1e-9
            assert allocation.free_memory_gb >= -1e-9
