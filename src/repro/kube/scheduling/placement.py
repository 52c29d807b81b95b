"""The candidate index: one placement rule for every caller.

Filter and score (steps 1 and 2 of the pipeline in ``framework``) are
answered per pod class — everything they read of a pod but its owner:
request and node selector — from a table of feasible nodes and scores,
patched before each read by re-evaluating only the nodes the
invalidation journal names, so an attempt considers every node, as the
paper's pipeline does (there is no sampling), yet costs O(changed
nodes).  A scored class keeps its nodes in ``(score, name)`` order, so
step (3) reads the top; under Spread, whose score penalises the nodes
the pod's owner already occupies, it reads down to the first node the
owner does not occupy.  A gang class keeps each node's BSA bias weight
and the draw lists BSA takes; beside the classes, the same journal
keeps the FailedScheduling counts per ``(selector, GPUs)`` current.
``plan`` decides one scheduling unit from them.  The index knows
nothing of queues or time: the scheduler (``framework.Scheduler``, a
subclass) and the Figure 3 replayer (``repro.analysis.schedreplay``)
drive it.  DESIGN.md, "Scheduler candidate index" and "What a gang
attempt costs".
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.kube.objects import Pod
from repro.kube.resources import NodeAllocation, ResourceRequest
from repro.kube.scheduling.bsa import (
    ALPHA,
    OBJECTIVE_PACK,
    Candidates,
    bias_weight,
    bsa_place,
)
from repro.kube.scheduling.policies import score_node, score_reads_owner


@dataclass
class _PodClass:
    """The candidate index's view of the cluster for one pod class."""

    #: Nodes to re-evaluate before ``ranked`` is read.  A dict, not a
    #: set: iteration order must not depend on the hash seed.
    stale: Dict[str, None]
    #: Journal position (absolute) already folded into ``stale``.
    seen: int
    #: Feasible node -> ``(score, name)``, or its BSA bias weight in an
    #: unscored (gang) class.  Correct for every node not in ``stale``.
    ranked: Dict[str, object] = field(default_factory=dict)
    #: A scored class's ``ranked.values()``, ascending: the best node is
    #: last.  None in a gang class, and in a scored one until its first
    #: read.
    order: Optional[List[tuple]] = None
    #: A gang class's draw lists, as ``bsa_place`` takes them: feasible
    #: names in node order, their weights, name -> position.  None until
    #: read and after a node enters or leaves; a changed weight is
    #: patched in place.
    draws: Optional[Candidates] = None


@dataclass
class _PredicateCounts:
    """The FailedScheduling counts of one ``(selector, GPUs)`` shape."""

    stale: Dict[str, None]
    seen: int
    #: Node -> whether it is short of GPUs, missed by the selector,
    #: unready (0 or 1 each); correct for every node not in ``stale``.
    misses: Dict[str, tuple] = field(default_factory=dict)
    #: Those summed over the nodes.
    counts: tuple = (0, 0, 0)


#: A read patches a class's order node by node (a ``bisect`` delete and
#: an ``insort`` each) while its stale nodes are at most this share of
#: its feasible ones, and re-sorts the order otherwise: one patch costs
#: what a ``sorted()`` of 15–24 % of the class does, for classes of 8 to
#: 4 000 nodes.
PATCH_SHARE = 1 / 6


class Placement:
    """Best and feasible nodes for a ``(request, selector, owner)``.
    ``allocations`` maps node names to the :class:`NodeAllocation` the
    caller mutates and reports with :meth:`invalidate`."""

    def __init__(self, policy: str, allocations: Dict[str, NodeAllocation],
                 objective: str = OBJECTIVE_PACK):
        self.policy = policy
        #: The BSA objective a gang class weighs and scores nodes for.
        self.objective = objective
        self.allocations = allocations
        #: Nodes by name, in the order they were added.
        self._nodes: Dict[str, object] = {}
        #: The candidate index: pod class (``class_key``) -> its
        #: feasible nodes.
        self._classes: Dict[tuple, _PodClass] = {}
        #: ``(sorted selector items, wanted GPUs)`` -> its
        #: FailedScheduling counts.
        self._shapes: Dict[tuple, _PredicateCounts] = {}
        #: Invalidation journal: the names of changed nodes, in order;
        #: ``_journal[0]`` sits at absolute position ``_journal_start``.
        self._journal: List[str] = []
        self._journal_start = 0
        #: owner -> {node name: placed count}, kept by the caller with
        #: :meth:`count_owner`, so ``best_node`` never scans anything.
        #: An owner with no placed pod has no entry.
        self._owner_nodes: Dict[str, Dict[str, int]] = {}
        #: Full predicate evaluations vs verdicts taken from the index:
        #: per attempt they add up to the cluster.
        self.filter_evals = 0
        self.filter_cache_hits = 0
        #: Full score computations vs scores taken from the index, over
        #: the nodes an attempt chose among.
        self.score_evals = 0
        self.score_cache_hits = 0
        #: Per-node re-evaluations beside the filter: a node's
        #: FailedScheduling predicate misses.
        self.refresh_evals = 0
        #: Gang draw lists built (in node order), as against patched.
        self.lists_built = 0

    @property
    def _owner_node_counts(self) -> Dict[tuple, int]:
        """``(owner, node name) -> count``: ``_owner_nodes`` flattened."""
        return {(owner, name): count
                for owner, nodes in self._owner_nodes.items()
                for name, count in nodes.items()}

    @property
    def nodes_examined(self) -> int:
        """Nodes the attempts visited one by one: the re-evaluated ones,
        so ``filter_evals`` under the name the e2e layer report reads."""
        return self.filter_evals

    def add_node(self, node) -> None:
        self._nodes[node.name] = node
        self.invalidate(node.name)

    def invalidate(self, node_name: str) -> None:
        """Journal that something a predicate or a score reads of one
        node changed: its allocation or its record (readiness).  O(1);
        classes re-evaluate the node when next read.

        Past two clusters' worth of entries (and 16, for clusters of a
        handful of nodes) the older half goes, and with it every class
        and shape whose position fell off: one not read for a cluster's
        worth of changes is cheaper to rebuild than to patch, and neither
        journal nor index grows with the owners and shapes a long run has
        seen.
        """
        journal = self._journal
        journal.append(node_name)
        if len(journal) > 2 * len(self._nodes) + 16:
            dropped = len(journal) // 2
            del journal[:dropped]
            self._journal_start = start = self._journal_start + dropped
            self._classes = {key: entry
                             for key, entry in self._classes.items()
                             if entry.seen >= start}
            self._shapes = {key: shape
                            for key, shape in self._shapes.items()
                            if shape.seen >= start}

    def count_owner(self, owner: str, node_name: str, delta: int) -> None:
        """Move the (owner, node) count.  No class table reads it (only
        :meth:`best_node` does), so nothing is journalled."""
        nodes = self._owner_nodes.setdefault(owner, {})
        count = nodes.get(node_name, 0) + delta
        if count > 0:
            nodes[node_name] = count
        else:
            nodes.pop(node_name, None)
            if not nodes:
                del self._owner_nodes[owner]

    # -- the decision and the two questions it asks --------------------------

    def plan(self, pods: Sequence[Pod], keys: Sequence[tuple],
             rng: random.Random) -> Tuple[Optional[Dict[str, str]],
                                          List[Pod]]:
        """A unit's pod name -> node name, or None, and the pods to
        report as unschedulable.  Scored ``keys`` (``class_key``, gangs
        off) are one pod, sent to its :meth:`best_node`; unscored, a gang
        BSA places whole: its pods with no feasible node are reported
        (BSA is not called), or all when no sampled round fitted.  Reads
        the index, the allocations and ``rng`` only."""
        if keys[0][5]:  # ``class_key``'s layout: scored
            pod, = pods
            name = self.best_node(pod.spec.resources, pod.spec.node_selector,
                                  pod.meta.owner, keys[0])
            return (None, [pod]) if name is None else ({pod.name: name}, [])
        classes = [self._feasible_candidates(
            pod.spec.resources, pod.spec.node_selector, False, key)
            for pod, key in zip(pods, keys)]
        empty = [pod for pod, entry in zip(pods, classes) if not entry.ranked]
        if empty:
            return None, empty
        assignment = bsa_place(
            pods, self.allocations,
            {pod.name: self._gang_lists(entry)
             for pod, entry in zip(pods, classes)},
            rng, objective=self.objective)
        return assignment, pods if assignment is None else []

    def best_node(self, request: ResourceRequest, selector: Mapping,
                  owner: Optional[str] = None,
                  key: Optional[tuple] = None) -> Optional[str]:
        """The feasible node of highest ``(score, name)`` — node names are
        unique, so the order is total — or None.

        The class scores every node as if ``owner`` had no pod on it.
        Where the score reads the same-owner count (Spread: ``-100·k −
        load``, the load in [0, 1]), every node the owner does not
        occupy outscores every node it does, so the first such node down
        from the class's top is the best; only when the owner occupies
        every feasible node are the nodes holding the fewest of its pods
        scored with that count (the penalty rules out every other).
        ``key`` is the class's ``class_key``, when the caller keeps it."""
        order = self._feasible_candidates(request, selector, True,
                                          key).order
        if not order:
            return None
        occupied = self._owner_nodes.get(owner) \
            if score_reads_owner(self.policy) else None
        if occupied:
            for _score, name in reversed(order):
                if name not in occupied:
                    return name
            fewest = min(occupied[name] for _score, name in order)
            names = [name for _score, name in order
                     if occupied[name] == fewest]
            self.score_evals += len(names)
            return max((score_node(self.policy, request,
                                   self.allocations[name], fewest), name)
                       for name in names)[1]
        return order[-1][1]

    def predicate_counts(self, selector: Mapping,
                         key: tuple) -> Tuple[int, int, int]:
        """For a pod of class ``key`` (``class_key``) and this selector:
        the ready nodes its selector matches that are short of its GPUs,
        the nodes its selector misses, and the unready nodes — what
        FailedScheduling says.  Readiness, free GPUs and the node list
        are journalled, and labels are fixed at creation, so only the
        journalled nodes are re-evaluated."""
        gpus, items = key[2], key[4]  # ``class_key``'s layout
        shape = self._read(self._shapes, (items, gpus), _PredicateCounts)
        misses = shape.misses
        for name in shape.stale:
            self.refresh_evals += 1
            node = self._nodes[name]
            matches = not selector or selector_matches(selector, node)
            ready = node.is_ready
            new = (int(ready and matches and gpus > 0 and
                       self.allocations[name].free_gpus < gpus),
                   int(not matches), int(not ready))
            old = misses.get(name, (0, 0, 0))
            if new != old:
                misses[name] = new
                shape.counts = tuple(count + n - o for count, n, o
                                     in zip(shape.counts, new, old))
        shape.stale.clear()
        return shape.counts

    # -- the index ------------------------------------------------------------

    def _read(self, table: Dict[tuple, object], key: tuple, make):
        """``table[key]`` with every journalled change since its last read
        folded into ``stale``.  An entry never read (or retired) is
        ``make(stale=every node, seen=journal end)``."""
        end = self._journal_start + len(self._journal)
        entry = table.get(key)
        if entry is None:
            entry = table[key] = make(dict.fromkeys(self._nodes), end)
        elif entry.seen < end:
            entry.stale.update(dict.fromkeys(
                self._journal[entry.seen - self._journal_start:]))
            entry.seen = end
        return entry

    def _gang_lists(self, entry: _PodClass) -> Candidates:
        """A gang class's ``(names, weights, slot)``, brought up to date by
        ``_feasible_candidates``; built here when a node entered or left
        the class.  Read-only to the caller."""
        draws = entry.draws
        if draws is None:
            ranked = entry.ranked
            names = [name for name in self._nodes if name in ranked]
            draws = entry.draws = (
                names, [ranked[name] for name in names],
                {name: i for i, name in enumerate(names)})
            self.lists_built += 1
        return draws

    def _pod_class(self, request: ResourceRequest, selector: Mapping,
                   scored: bool, key: Optional[tuple] = None) -> _PodClass:
        """The class in the candidate index, every journalled change
        since its last read folded into ``stale``.  A class never read
        (or retired) starts with every node stale."""
        return self._read(self._classes,
                          key or class_key(request, selector, scored),
                          _PodClass)

    def _feasible_candidates(self, request: ResourceRequest,
                             selector: Mapping, scored: bool,
                             key: Optional[tuple] = None) -> _PodClass:
        """The class brought up to date: every stale node of the class
        re-evaluated, every other verdict taken as it stands, a scored
        class's order patched or, past ``PATCH_SHARE``, re-sorted, and a
        gang class's weights patched or its lists dropped."""
        entry = self._pod_class(request, selector, scored, key)
        ranked, stale, order = entry.ranked, entry.stale, entry.order
        patch = order is not None and \
            len(stale) <= PATCH_SHARE * len(ranked)
        draws = entry.draws
        rescored = 0
        for name in stale:
            old = ranked.get(name)
            allocation = self._node_fits(request, selector, name)
            if allocation is None:
                if old is None:
                    continue
                new = None
                del ranked[name]
            else:
                rescored += 1
                new = ranked[name] = (
                    (self._score(request, allocation), name) if scored
                    else bias_weight(allocation, request, ALPHA,
                                     self.objective))
            if new == old:
                continue
            if patch:
                if old is not None:
                    del order[bisect_left(order, old)]
                if new is not None:
                    insort(order, new)
            elif draws is not None:
                if old is None or new is None:
                    draws = entry.draws = None
                else:
                    draws[1][draws[2][name]] = new
        self.filter_cache_hits += len(self._nodes) - len(stale)
        if scored:
            self.score_cache_hits += len(ranked) - rescored
            if not patch:
                entry.order = sorted(ranked.values())
        stale.clear()
        return entry

    def _node_fits(self, request: ResourceRequest, selector: Mapping,
                   name: str) -> Optional[NodeAllocation]:
        """One full predicate evaluation: the allocation on fit (the
        score reuses the lookup), ``None`` otherwise."""
        self.filter_evals += 1
        node = self._nodes[name]
        if not node.is_ready or \
                selector and not selector_matches(selector, node):
            return None
        allocation = self.allocations[name]
        return allocation if allocation.fits(request) else None

    def _score(self, request: ResourceRequest,
               allocation: NodeAllocation) -> float:
        """Priority of one candidate node for a pod whose owner has no
        pod on it (one full computation)."""
        self.score_evals += 1
        return score_node(self.policy, request, allocation, 0)


def class_key(request: ResourceRequest, selector: Mapping,
              scored: bool) -> tuple:
    """A pod class: what filter and score read of a pod but its owner.
    Flat, so a lookup hashes numbers and strings, not a dataclass."""
    return (request.cpus, request.memory_gb, request.gpus, request.gpu_type,
            tuple(sorted(selector.items())), scored)


def selector_matches(selector: Mapping, node) -> bool:
    return all(node.meta.labels.get(k) == v for k, v in selector.items())
