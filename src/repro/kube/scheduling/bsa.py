"""Biased Sampling Algorithm (BSA) for gang placement.

The paper adapts Tantawi's BSA [43, 44] as the K8S gang scheduler: the
logical entities are all pods in a gang, the physical entities are the
nodes, and "since in a DL platform, GPU is typically a scarce resource, the
objective is to pack GPU resources".  At production scale the assignment
space is combinatorially explosive, so BSA importance-samples node choices
biased toward nodes that satisfy the constraints and improve the packing
objective, keeping the best feasible assignment over a bounded number of
sampling rounds.

This module is a self-contained implementation of that heuristic: it never
mutates the real allocations — callers apply the returned assignment.

The caller hands each pod its candidates as they stand — names, bias
weights, positions — kept current in the scheduler's candidate index
(``placement``), so a call costs what it draws, not the cluster.  A
round keeps views only of the nodes it takes from and patches their
entries, so ``rng.choices`` sees the lists and floats a rebuild of every
node would give.  Every round of a call starts from the same cluster, so
rounds differ only on the nodes they took, and pack scores a round on
those alone.  DESIGN.md, "What a gang attempt costs".
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.kube.objects import Pod
from repro.kube.resources import NodeAllocation, ResourceRequest


class _Tentative(NodeAllocation):
    """A sampling round's copy of one node's allocation, taken from with
    ``allocate``; the real allocation is never touched."""

    __slots__ = ()

    def __init__(self, allocation: NodeAllocation):
        self.capacity = allocation.capacity
        self.free_cpus = allocation.free_cpus
        self.free_memory_gb = allocation.free_memory_gb
        self.free_gpus = allocation.free_gpus


#: BSA objectives: pack GPUs onto few nodes (FfDL's choice, GPUs being the
#: scarce resource) or balance load across nodes (the alternative objective
#: the paper mentions the framework supports).
OBJECTIVE_PACK = "pack"
OBJECTIVE_BALANCE = "balance"
#: The bias weights' exponent.
ALPHA = 2.0

#: A pod's candidates: names in draw order, their bias weights, and
#: name -> position in both lists.
Candidates = Tuple[List[str], List[float], Dict[str, int]]
_NO_CANDIDATES: Candidates = ([], [], {})


def bias_weight(view: NodeAllocation, request: ResourceRequest,
                alpha: float, objective: str) -> float:
    """Sampling bias toward nodes that improve the objective.  A fresh
    view copies its allocation's fields, so the allocation itself gives
    the same float."""
    if objective == OBJECTIVE_BALANCE:
        if request.gpus > 0:
            return (1.0 + view.free_gpus) ** alpha
        return (1.0 + view.free_cpus) ** alpha
    if request.gpus > 0:
        return (1.0 + view.gpu_utilization * view.capacity.gpus) ** alpha
    used_cpu = view.capacity.cpus - view.free_cpus
    return (1.0 + used_cpu) ** alpha


def _round_score(allocations: Mapping[str, NodeAllocation],
                touched: Dict[str, _Tentative], objective: str) -> float:
    """A fitting round's score; ``touched`` holds the views of the nodes
    it took from, every other node is as ``allocations`` has it."""
    if objective == OBJECTIVE_BALANCE:
        # Minimize the variance of GPU utilization across nodes.
        utils = [touched.get(name, allocation).gpu_utilization
                 for name, allocation in allocations.items()]
        mean = sum(utils) / len(utils)
        variance = sum((u - mean) ** 2 for u in utils) / len(utils)
        return -variance
    # Pack: fewer distinct nodes, higher GPU packing.  The untouched
    # nodes add the same to every round, so only the taken ones count.
    return -float(len(touched)) + 0.01 * sum(
        view.gpu_utilization ** 2 - allocations[name].gpu_utilization ** 2
        for name, view in touched.items())


class _Draw:
    """One pod's candidates as they stand, shared by every round."""

    __slots__ = ("name", "request", "candidates", "weights", "slot", "cum")

    def __init__(self, pod: Pod, candidates: Candidates):
        self.name = pod.name
        self.request = pod.spec.resources
        self.candidates, self.weights, self.slot = candidates
        if len(self.slot) < len(self.candidates):
            raise ValueError(f"pod {pod.name}: a node is eligible twice")
        #: The weights' running sums, once per call: the list
        #: ``rng.choices`` builds from ``weights=``.
        self.cum = list(accumulate(self.weights))

    def choose(self, touched: Dict[str, _Tentative], rng: random.Random,
               alpha: float, objective: str) -> Optional[str]:
        """This round's draw, over its views: a touched candidate is
        re-weighted, or dropped once it no longer fits.  Taking never
        makes a node fit, so no other entry moves.  None when nothing
        fits."""
        candidates, slot = self.candidates, self.slot
        hits = [(slot[n], view) for n, view in touched.items()
                if n in slot]
        if not hits:
            if not candidates:
                return None
            return rng.choices(candidates, cum_weights=self.cum, k=1)[0]
        weights = list(self.weights)
        gone = []
        for i, view in hits:
            if view.fits(self.request):
                weights[i] = bias_weight(view, self.request, alpha,
                                         objective)
            else:
                gone.append(i)
        if gone:
            candidates = list(candidates)
            for i in sorted(gone, reverse=True):
                del candidates[i], weights[i]
            if not candidates:
                return None
        return rng.choices(candidates, weights=weights, k=1)[0]


def bsa_place(
    pods: Sequence[Pod],
    allocations: Dict[str, NodeAllocation],
    candidates: Mapping[str, Candidates],
    rng: random.Random,
    rounds: int = 8,
    alpha: float = ALPHA,
    objective: str = OBJECTIVE_PACK,
) -> Optional[Dict[str, str]]:
    """Find an all-or-nothing placement for the gang.

    ``candidates`` maps each pod name to the nodes that pass its
    predicate filter (selector, readiness) and fit it against *current*
    state, with their bias weights (``bias_weight`` of the allocation)
    and positions; resource feasibility is re-evaluated against the
    tentative view inside each sampling round.  A pod with no entry has
    no candidate; a list naming a node twice raises ``ValueError``.
    Returns pod-name -> node-name of the best-scoring round (the earliest
    of equal scores), or None if no feasible assignment was sampled.
    """
    if not pods:
        return {}
    # Largest resource consumers first: standard bin-packing ordering that
    # BSA rounds all share.
    ordered = sorted(
        pods,
        key=lambda p: (p.spec.resources.gpus, p.spec.resources.cpus),
        reverse=True)
    draws = [_Draw(pod, candidates.get(pod.name, _NO_CANDIDATES))
             for pod in ordered]
    best: Optional[Dict[str, str]] = None
    best_score = float("-inf")
    for _round in range(rounds):
        touched: Dict[str, _Tentative] = {}
        assignment: Dict[str, str] = {}
        for draw in draws:
            choice = draw.choose(touched, rng, alpha, objective)
            if choice is None:
                break
            assignment[draw.name] = choice
            view = touched.get(choice)
            if view is None:
                view = touched[choice] = _Tentative(allocations[choice])
            view.allocate(draw.request)
        else:
            score = _round_score(allocations, touched, objective)
            if score > best_score:
                best_score = score
                best = assignment
    return best
