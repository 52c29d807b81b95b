"""The candidate index: one placement rule for every caller.

Filter and score (steps 1 and 2 of the pipeline in ``framework``) are
answered per pod class — everything they read: request, node selector,
owner — from a table of feasible nodes and scores, patched before each
read by re-evaluating only the nodes the invalidation journal names, so
an attempt considers every node, as the paper's pipeline does (there is
no sampling), yet costs O(changed nodes), and step (3) is one ``max()``.
The index knows nothing of pods, queues or time: the scheduler
(``framework.Scheduler``, a subclass) and the Figure 3 replayer
(``repro.analysis.schedreplay``) drive it.  DESIGN.md, "Scheduler
candidate index".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.kube.resources import NodeAllocation, ResourceRequest
from repro.kube.scheduling.policies import score_node, score_reads_owner


@dataclass
class _PodClass:
    """The candidate index's view of the cluster for one pod class."""

    #: Feasible node -> ``(score, name)``, or ``True`` in an unscored
    #: (gang) class.  Correct for every node not in ``stale``.
    ranked: Dict[str, object]
    #: Nodes to re-evaluate before ``ranked`` is read.  A dict, not a
    #: set: iteration order must not depend on the hash seed.
    stale: Dict[str, None]
    #: Journal position (absolute) already folded into ``stale``.
    seen: int


class Placement:
    """Best and feasible nodes for a ``(request, selector, owner)``.
    ``allocations`` maps node names to the :class:`NodeAllocation` the
    caller mutates and reports with :meth:`invalidate`."""

    def __init__(self, policy: str, allocations: Dict[str, NodeAllocation]):
        self.policy = policy
        self.allocations = allocations
        #: Nodes by name, in the order they were added.
        self._nodes: Dict[str, object] = {}
        #: The candidate index: pod class -> its feasible nodes.  A class
        #: is ``(request, sorted selector items, scored?, owner)``.
        self._classes: Dict[tuple, _PodClass] = {}
        #: Invalidation journal: the names of changed nodes, in order;
        #: ``_journal[0]`` sits at absolute position ``_journal_start``.
        self._journal: List[str] = []
        self._journal_start = 0
        #: (owner, node name) -> placed count, kept by the caller with
        #: :meth:`count_owner`, so ``_score`` never scans anything.
        self._owner_node_counts: Dict[tuple, int] = {}
        #: Full predicate evaluations vs verdicts taken from the index:
        #: per attempt they add up to the cluster.
        self.filter_evals = 0
        self.filter_cache_hits = 0
        #: Full score computations vs scores taken from the index, over
        #: the nodes an attempt chose among.
        self.score_evals = 0
        self.score_cache_hits = 0

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
        node changed: its allocation, its record (readiness) or the
        owned pods placed on it.  O(1); classes re-evaluate the node
        when next read.

        Past two clusters' worth of entries (and 16, for clusters of a
        handful of nodes) the older half goes, and with it every class
        whose position fell off: one not read for a cluster's worth of
        changes is cheaper to rebuild than to patch, and neither journal
        nor index grows with the owners and shapes a long run has seen.
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

    def count_owner(self, owner: str, node_name: str, delta: int) -> None:
        """Move the (owner, node) count, and journal the node where the
        policy's score reads the count."""
        counts, key = self._owner_node_counts, (owner, node_name)
        count = counts.get(key, 0) + delta
        if count > 0:
            counts[key] = count
        else:
            counts.pop(key, None)
        if score_reads_owner(self.policy):
            self.invalidate(node_name)

    # -- the two questions ----------------------------------------------------

    def best_node(self, request: ResourceRequest, selector: Mapping,
                  owner: Optional[str] = None) -> Optional[str]:
        """The feasible node of highest ``(score, name)`` — node names are
        unique, so the order is total — or None."""
        ranked = self._feasible_candidates(request, selector, owner,
                                           scored=True)
        return max(ranked.values())[1] if ranked else None

    def feasible_nodes(self, request: ResourceRequest,
                       selector: Mapping) -> List[str]:
        """Feasible node names in node order (BSA draws by position)."""
        ranked = self._feasible_candidates(request, selector, None,
                                           scored=False)
        return [name for name in self._nodes if name in ranked]

    # -- the index ------------------------------------------------------------

    def _pod_class(self, request: ResourceRequest, selector: Mapping,
                   owner: Optional[str], scored: bool) -> _PodClass:
        """The class in the candidate index, every journalled change
        since its last read folded into ``stale``.  A class never read
        (or retired) starts with every node stale."""
        if not (scored and score_reads_owner(self.policy)):
            owner = None
        key = (request, tuple(sorted(selector.items())), scored, owner)
        end = self._journal_start + len(self._journal)
        entry = self._classes.get(key)
        if entry is None:
            entry = self._classes[key] = _PodClass(
                {}, dict.fromkeys(self._nodes), end)
        elif entry.seen < end:
            entry.stale.update(dict.fromkeys(
                self._journal[entry.seen - self._journal_start:]))
            entry.seen = end
        return entry

    def _feasible_candidates(self, request: ResourceRequest,
                             selector: Mapping, owner: Optional[str],
                             scored: bool) -> Dict[str, object]:
        """The class table brought up to date: every stale node of the
        class re-evaluated, every other verdict taken as it stands."""
        entry = self._pod_class(request, selector, owner, scored)
        ranked, stale = entry.ranked, entry.stale
        rescored = 0
        for name in stale:
            rescored += self._refresh(ranked, request, selector, owner,
                                      name, scored)
        self.filter_cache_hits += len(self._nodes) - len(stale)
        if scored:
            self.score_cache_hits += len(ranked) - rescored
        stale.clear()
        return ranked

    def _refresh(self, ranked: dict, request: ResourceRequest,
                 selector: Mapping, owner: Optional[str], name: str,
                 scored: bool) -> bool:
        """Re-evaluate one node for one class; whether it fits."""
        allocation = self._node_fits(request, selector, name)
        if allocation is None:
            ranked.pop(name, None)
            return False
        ranked[name] = (self._score(request, owner, name, allocation),
                        name) if scored else True
        return True

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

    def _score(self, request: ResourceRequest, owner: Optional[str],
               node_name: str, allocation: NodeAllocation) -> float:
        """Priority of one candidate node (one full computation)."""
        self.score_evals += 1
        same_owner = self._owner_node_counts.get((owner, node_name), 0)
        return score_node(self.policy, request, allocation, same_owner)


def selector_matches(selector: Mapping, node) -> bool:
    return all(node.meta.labels.get(k) == v for k, v in selector.items())
