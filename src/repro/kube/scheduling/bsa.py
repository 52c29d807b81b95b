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

Every round starts from the same fresh cluster, so what a fresh node
contributes (its fit and bias weight per pod, its score term) is computed
once per call; a round keeps views only of the nodes it takes from and
patches their entries.  It costs what it draws, not the cluster, and
``rng.choices`` and ``sum`` see the lists and floats a rebuild of every
node would give.  DESIGN.md, "What a gang attempt costs".
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

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


def _bias_weight(view: _Tentative, request: ResourceRequest,
                 alpha: float, objective: str) -> float:
    """Sampling bias toward nodes that improve the objective."""
    if objective == OBJECTIVE_BALANCE:
        if request.gpus > 0:
            return (1.0 + view.free_gpus) ** alpha
        return (1.0 + view.free_cpus) ** alpha
    if request.gpus > 0:
        return (1.0 + view.gpu_utilization * view.capacity.gpus) ** alpha
    used_cpu = view.capacity.cpus - view.free_cpus
    return (1.0 + used_cpu) ** alpha


def _score_term(utilization: float, objective: str) -> float:
    """One node's entry in the round's score: its GPU utilization
    (balance) or that squared (pack)."""
    if objective == OBJECTIVE_BALANCE:
        return utilization
    return utilization ** 2


def _assignment_score(terms: List[float], touched: Dict[str, _Tentative],
                      objective: str) -> float:
    """``terms`` has every node's entry in allocation order, those of
    the ``touched`` nodes (the ones the round took from) patched."""
    if objective == OBJECTIVE_BALANCE:
        # Minimize the variance of GPU utilization across nodes.
        mean = sum(terms) / len(terms)
        variance = sum((u - mean) ** 2 for u in terms) / len(terms)
        return -variance
    # Pack: fewer distinct nodes, higher GPU packing.
    return -float(len(touched)) + 0.01 * sum(terms)


class _Draw:
    """One pod's candidates over the fresh views, shared by every round."""

    __slots__ = ("name", "request", "candidates", "weights", "slot")

    def __init__(self, pod: Pod, eligible: List[str],
                 fresh: Dict[str, _Tentative], alpha: float,
                 objective: str):
        self.name = pod.name
        self.request = request = pod.spec.resources
        self.candidates = [n for n in eligible if fresh[n].fits(request)]
        self.weights = [_bias_weight(fresh[n], request, alpha, objective)
                        for n in self.candidates]
        #: Candidate -> its position in both lists.
        self.slot = {n: i for i, n in enumerate(self.candidates)}
        if len(self.slot) < len(self.candidates):
            raise ValueError(f"pod {pod.name}: a node is eligible twice")

    def patched(self, touched: Dict[str, _Tentative], alpha: float,
                objective: str) -> tuple:
        """``(candidates, weights)`` over this round's views: a touched
        candidate is re-weighted in place, or dropped once it no longer
        fits.  Taking never makes a node fit, so no other entry moves."""
        candidates, weights = self.candidates, self.weights
        hits = [(self.slot[n], view) for n, view in touched.items()
                if n in self.slot]
        if not hits:
            return candidates, weights
        weights = list(weights)
        gone = []
        for i, view in hits:
            if view.fits(self.request):
                weights[i] = _bias_weight(view, self.request, alpha,
                                          objective)
            else:
                gone.append(i)
        if gone:
            candidates = list(candidates)
            for i in sorted(gone, reverse=True):
                del candidates[i], weights[i]
        return candidates, weights


def bsa_place(
    pods: Sequence[Pod],
    allocations: Dict[str, NodeAllocation],
    eligible_nodes: Dict[str, List[str]],
    rng: random.Random,
    rounds: int = 8,
    alpha: float = 2.0,
    objective: str = OBJECTIVE_PACK,
) -> Optional[Dict[str, str]]:
    """Find an all-or-nothing placement for the gang.

    ``eligible_nodes`` maps each pod name to the node names that pass its
    predicate filter (selector, readiness) against *current* state; resource
    feasibility is re-evaluated against the tentative view inside each
    sampling round.  Each list names a node at most once among those that
    fit (``ValueError`` otherwise).  Returns pod-name -> node-name, or
    None if no feasible assignment was sampled.
    """
    if not pods:
        return {}
    # Largest resource consumers first: standard bin-packing ordering that
    # BSA rounds all share.
    ordered = sorted(
        pods,
        key=lambda p: (p.spec.resources.gpus, p.spec.resources.cpus),
        reverse=True)
    fresh: Dict[str, _Tentative] = {}
    for pod in ordered:
        for name in eligible_nodes.get(pod.name, []):
            if name not in fresh:
                fresh[name] = _Tentative(allocations[name])
    draws = [_Draw(pod, eligible_nodes.get(pod.name, []), fresh, alpha,
                   objective) for pod in ordered]
    fresh_terms: Optional[List[float]] = None  # first feasible round
    best: Optional[Dict[str, str]] = None
    best_score = float("-inf")
    for _round in range(rounds):
        touched: Dict[str, _Tentative] = {}
        assignment: Dict[str, str] = {}
        for draw in draws:
            candidates, weights = draw.patched(touched, alpha, objective)
            if not candidates:
                break
            choice = rng.choices(candidates, weights=weights, k=1)[0]
            assignment[draw.name] = choice
            view = touched.get(choice)
            if view is None:
                view = touched[choice] = _Tentative(allocations[choice])
            view.allocate(draw.request)
        else:
            if fresh_terms is None:
                fresh_terms = [_score_term(a.gpu_utilization, objective)
                               for a in allocations.values()]
                position = {name: i for i, name in enumerate(allocations)}
            terms = list(fresh_terms)
            for name, view in touched.items():
                terms[position[name]] = _score_term(view.gpu_utilization,
                                                    objective)
            score = _assignment_score(terms, touched, objective)
            if score > best_score:
                best_score = score
                best = assignment
    return best
