"""``Placement`` against the exhaustive loop, on random programs.

The reference (``reference_best`` and ``reference_feasible``, kept
verbatim below) is the loop the candidate index replaced: every node
in order through the predicates - ready, selector, fit - and, for the
best node, ``score_node`` with the owner's count on that node, keeping
the highest ``(score, name)``.  It reads the same node records and
allocations as the index but keeps its own (owner, node) counts.

A program starts with 3 to 6 nodes of three shapes in two label pools
and mixes node additions, allocations and releases (each followed by
``invalidate``, as every caller does), ``count_owner`` +1 / -1 (never
below zero), readiness flips, and the two questions for four request
shapes, three selectors and four owners (one of them none).  Under both
policies, and with the patch-or-re-sort share forced to each of its
extremes, every answer must equal the reference's, each scored class
read must hold its nodes in ascending ``(score, name)`` order, and a
gang class's draw lists must hold the feasible nodes in node order with
their BSA bias weights.
The journal of a cluster this small is cut after 22 to 32 entries, so
classes retire and are rebuilt inside one program.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.kube.objects import Node, ObjectMeta
from repro.kube.resources import NodeAllocation, NodeCapacity, ResourceRequest
from repro.kube.scheduling import placement as placement_module
from repro.kube.scheduling.bsa import ALPHA, OBJECTIVE_PACK, bias_weight
from repro.kube.scheduling.placement import Placement
from repro.kube.scheduling.policies import PACK, SPREAD, score_node

from tests.conftest import examples

CAPACITIES = (NodeCapacity(cpus=16, memory_gb=64, gpus=4, gpu_type="K80"),
              NodeCapacity(cpus=8, memory_gb=32, gpus=2, gpu_type="V100"),
              NodeCapacity(cpus=32, memory_gb=128))
POOLS = ("a", "b")
REQUESTS = (ResourceRequest(cpus=1.0, memory_gb=4.0),
            ResourceRequest(cpus=2.5, memory_gb=8.0, gpus=1),
            ResourceRequest(cpus=4.0, memory_gb=8.0, gpus=2,
                            gpu_type="K80"),
            ResourceRequest(cpus=1.0, memory_gb=16.0, gpus=4))
SELECTORS = ({}, {"pool": "a"}, {"pool": "b"})
OWNERS = (None, "set-a", "set-b", "set-c")


def reference_feasible(nodes, allocations, request, selector):
    names = []
    for node in nodes:
        if not node.is_ready:
            continue
        if any(node.meta.labels.get(k) != v for k, v in selector.items()):
            continue
        if allocations[node.name].fits(request):
            names.append(node.name)
    return names


def reference_best(policy, nodes, allocations, counts, request, selector,
                   owner):
    best = None
    for name in reference_feasible(nodes, allocations, request, selector):
        key = (score_node(policy, request, allocations[name],
                          counts.get((owner, name), 0)), name)
        if best is None or key > best:
            best = key
    return best and best[1]


NODE = st.integers(min_value=0, max_value=7)
STEP = st.one_of(
    st.tuples(st.just("add"), st.integers(0, len(CAPACITIES) - 1),
              st.sampled_from(POOLS)),
    st.tuples(st.just("allocate"), NODE,
              st.integers(0, len(REQUESTS) - 1)),
    st.tuples(st.just("release"), st.integers(0, 20)),
    st.tuples(st.just("own"), st.sampled_from(OWNERS[1:]), NODE,
              st.sampled_from((1, 1, -1))),
    st.tuples(st.just("flip"), NODE),
    st.tuples(st.just("best"), st.integers(0, len(REQUESTS) - 1),
              st.integers(0, len(SELECTORS) - 1), st.sampled_from(OWNERS)),
    st.tuples(st.just("feasible"), st.integers(0, len(REQUESTS) - 1),
              st.integers(0, len(SELECTORS) - 1)),
)
#: The read share forced onto the patch-or-re-sort switch: always
#: re-sort, the shipped share, and always patch.
SHARES = (0.0, placement_module.PATCH_SHARE, math.inf)


class Program:
    """One ``Placement`` and the reference's view beside it."""

    def __init__(self, policy, shapes):
        self.policy = policy
        self.allocations = {}
        self.placement = Placement(policy, self.allocations)
        self.nodes = []
        self.counts = {}
        self.held = []
        for shape, pool in shapes:
            self.add(shape, pool)

    def add(self, shape, pool):
        name = f"node-{len(self.nodes)}"
        capacity = CAPACITIES[shape]
        node = Node(meta=ObjectMeta(name=name, uid=name,
                                    labels={"pool": pool}),
                    capacity=capacity)
        self.allocations[name] = NodeAllocation(capacity)
        self.nodes.append(node)
        self.placement.add_node(node)

    def step(self, op, *args):
        nodes, placement = self.nodes, self.placement
        if op == "add":
            if len(nodes) < 8:
                self.add(*args)
        elif op == "allocate":
            node, request = nodes[args[0] % len(nodes)], REQUESTS[args[1]]
            allocation = self.allocations[node.name]
            if allocation.fits(request):
                allocation.allocate(request)
                placement.invalidate(node.name)
                self.held.append((node.name, request))
        elif op == "release":
            if self.held:
                name, request = self.held.pop(args[0] % len(self.held))
                self.allocations[name].release(request)
                placement.invalidate(name)
        elif op == "own":
            owner, name, delta = args[0], nodes[args[1] % len(nodes)].name, \
                args[2]
            count = self.counts.get((owner, name), 0) + delta
            if count >= 0:
                placement.count_owner(owner, name, delta)
                if count:
                    self.counts[(owner, name)] = count
                else:
                    del self.counts[(owner, name)]
        elif op == "flip":
            node = nodes[args[0] % len(nodes)]
            node.unschedulable = not node.unschedulable
            placement.invalidate(node.name)
        elif op == "best":
            request, selector = REQUESTS[args[0]], SELECTORS[args[1]]
            reads = placement.filter_evals + placement.filter_cache_hits
            got = placement.best_node(request, selector, args[2])
            assert got == reference_best(self.policy, nodes,
                                         self.allocations, self.counts,
                                         request, selector, args[2])
            assert placement.filter_evals + placement.filter_cache_hits \
                == reads + len(nodes)
            entry = placement._pod_class(request, selector, scored=True)
            assert entry.order == sorted(entry.ranked.values())
        else:
            request, selector = REQUESTS[args[0]], SELECTORS[args[1]]
            names, weights, slot = placement._gang_lists(
                placement._feasible_candidates(request, selector, False))
            assert names == reference_feasible(nodes, self.allocations,
                                               request, selector)
            assert weights == [bias_weight(self.allocations[name], request,
                                           ALPHA, OBJECTIVE_PACK)
                               for name in names]
            assert slot == {name: i for i, name in enumerate(names)}


SHAPES = st.lists(st.tuples(st.integers(0, len(CAPACITIES) - 1),
                            st.sampled_from(POOLS)),
                  min_size=3, max_size=6)
# The owner on the top node, then on every node: Spread steps past it,
# then scores the owner's nodes with their counts (fewest pods first).
CROWDED = [("own", "set-a", 2, 1), ("best", 0, 0, "set-a")] + \
    [("own", "set-a", i, 1) for i in range(3)] + \
    [("best", 0, 0, "set-a"), ("allocate", 1, 1), ("best", 0, 0, "set-a"),
     ("best", 0, 0, None), ("own", "set-a", 2, -1), ("best", 0, 0, "set-a")]
# One class read between single changes (patched), then thirty changes
# between two reads of another (retired and rebuilt).
PATCHED = [("best", 1, 0, None), ("allocate", 5, 1), ("best", 1, 0, None),
           ("flip", 4), ("best", 1, 0, None), ("release", 0),
           ("best", 1, 0, None), ("flip", 4), ("best", 1, 0, None)] + \
    [("allocate", i, 0) for i in range(8)] * 2 + \
    [("release", 0)] * 14 + [("best", 0, 0, None), ("best", 1, 0, None)]


@settings(max_examples=examples(100), deadline=None)
@given(policy=st.sampled_from((PACK, SPREAD)), shapes=SHAPES,
       share=st.sampled_from(SHARES),
       steps=st.lists(STEP, min_size=20, max_size=80))
@example(policy=SPREAD, shapes=[(0, "a")] * 3, share=SHARES[1],
         steps=CROWDED)
@example(policy=PACK, shapes=[(0, "a")] * 6, share=math.inf, steps=PATCHED)
@example(policy=SPREAD, shapes=[(0, "a")] * 6, share=math.inf,
         steps=PATCHED)
def test_placement_answers_as_the_exhaustive_loop(policy, shapes, share,
                                                  steps):
    shipped = placement_module.PATCH_SHARE
    placement_module.PATCH_SHARE = share
    try:
        program = Program(policy, shapes)
        for op in steps:
            program.step(*op)
    finally:
        placement_module.PATCH_SHARE = shipped
