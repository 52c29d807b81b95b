"""Runtime invariant checkers for live simulations.

Static rules cannot prove protocol-level properties, so two monitors
watch running substrates:

* :class:`RaftInvariantChecker` — attaches to a
  :class:`repro.raft.cluster.RaftCluster` via the node tracer hooks and
  asserts the Raft paper's safety properties: **Election Safety** (at
  most one leader per term), **Log Matching** (logs agreeing on the term
  at an index agree on every prior entry), **Leader Completeness** (a
  newly elected leader holds every entry known committed), and **State
  Machine Safety** (no node applies a different command at an index).
* :class:`KubeStateMachineChecker` — subscribes to the pod watch stream
  of a :class:`repro.kube.api.KubeAPI` and validates the pod phase state
  machine: Pending → Running → Succeeded/Failed, with no transition out
  of a terminal phase and no resurrection of a deleted uid.

Both collect violations in ``.violations`` and, in the default strict
mode, raise :class:`repro.errors.InvariantViolation` at the faulty event
so the failing trace points at the exact simulated moment.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

from repro.errors import InvariantViolation

#: Legal pod phase transitions (self-loops are status refreshes).
_POD_PHASES = ("Pending", "Running", "Succeeded", "Failed")
_ALLOWED_TRANSITIONS = {
    "Pending": {"Pending", "Running", "Succeeded", "Failed"},
    "Running": {"Running", "Succeeded", "Failed"},
    "Succeeded": {"Succeeded"},
    "Failed": {"Failed"},
}


class _CheckerBase:
    def __init__(self, strict: bool = True):
        self.strict = strict
        self.violations: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def _violation(self, invariant: str, message: str) -> None:
        record = f"{invariant}: {message}"
        self.violations.append(record)
        if self.strict:
            raise InvariantViolation(record)


class RaftInvariantChecker(_CheckerBase):
    """Observes a Raft group and asserts the paper's safety properties."""

    def __init__(self, strict: bool = True):
        super().__init__(strict)
        #: term -> node_id of the unique leader elected for that term.
        self.leaders_by_term: Dict[int, str] = {}
        #: raft index -> (term, command) once known committed anywhere.
        self.committed: Dict[int, Tuple[int, Any]] = {}
        self.elections_observed = 0
        self.applies_observed = 0

    def attach(self, cluster) -> "RaftInvariantChecker":
        """Install this checker as the tracer of every node."""
        for node in cluster.nodes.values():
            node.tracer = self
        return self

    # -- tracer interface (called by RaftNode) ---------------------------

    def on_leader_elected(self, node) -> None:
        self.elections_observed += 1
        term = node.current_term
        previous = self.leaders_by_term.get(term)
        if previous is not None and previous != node.node_id:
            self._violation(
                "ElectionSafety",
                f"term {term} has two leaders: {previous} and "
                f"{node.node_id}")
        self.leaders_by_term[term] = node.node_id
        for index in sorted(self.committed):
            committed_term, _command = self.committed[index]
            if index > len(node.log):
                self._violation(
                    "LeaderCompleteness",
                    f"leader {node.node_id} (term {term}) is missing "
                    f"committed index {index}")
            elif node.log[index - 1].term != committed_term:
                self._violation(
                    "LeaderCompleteness",
                    f"leader {node.node_id} (term {term}) holds term "
                    f"{node.log[index - 1].term} at committed index "
                    f"{index}, expected {committed_term}")

    def on_apply(self, node, index: int, entry) -> None:
        self.applies_observed += 1
        known = self.committed.get(index)
        if known is None:
            self.committed[index] = (entry.term, entry.command)
            return
        if known != (entry.term, entry.command):
            self._violation(
                "StateMachineSafety",
                f"node {node.node_id} applied {entry.command!r} (term "
                f"{entry.term}) at index {index}; previously applied "
                f"{known[1]!r} (term {known[0]})")

    # -- whole-cluster scans ---------------------------------------------

    def check_log_matching(self, nodes: Iterable) -> None:
        """Pairwise Log Matching over current node logs."""
        nodes = list(nodes)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                self._check_pair(a, b)

    def _check_pair(self, a, b) -> None:
        common = min(len(a.log), len(b.log))
        agree_at = 0
        for index in range(common, 0, -1):
            if a.log[index - 1].term == b.log[index - 1].term:
                agree_at = index
                break
        for index in range(1, agree_at + 1):
            ea, eb = a.log[index - 1], b.log[index - 1]
            if (ea.term, ea.command) != (eb.term, eb.command):
                self._violation(
                    "LogMatching",
                    f"{a.node_id} and {b.node_id} agree on the term at "
                    f"index {agree_at} but diverge at index {index}: "
                    f"{(ea.term, ea.command)!r} vs "
                    f"{(eb.term, eb.command)!r}")

    def check(self, cluster) -> None:
        """Full sweep: log matching now, plus accumulated violations."""
        self.check_log_matching(cluster.nodes.values())


class KubeStateMachineChecker(_CheckerBase):
    """Validates pod phase transitions on a live API server."""

    def __init__(self, api=None):
        super().__init__()
        #: pod uid -> last observed phase.
        self._phase: Dict[str, str] = {}
        #: uids that have been DELETED and must never reappear.
        self._gone: Dict[str, str] = {}
        self.transitions_observed = 0
        if api is not None:
            self.attach(api)

    def attach(self, api) -> "KubeStateMachineChecker":
        api.subscribe("pods", self._on_pod_change)
        return self

    def _on_pod_change(self, verb: str, pod) -> None:
        uid = pod.meta.uid
        phase = pod.phase
        self.transitions_observed += 1
        if uid in self._gone:
            self._violation(
                "NoResurrection",
                f"pod {pod.name} (uid {uid}) observed via {verb} after "
                f"deletion in phase {self._gone[uid]}")
            return
        if verb == "DELETED":
            self._gone[uid] = phase
            self._phase.pop(uid, None)
            return
        if phase not in _POD_PHASES:
            self._violation(
                "KnownPhase",
                f"pod {pod.name} reports unknown phase {phase!r}")
            return
        previous = self._phase.get(uid)
        if verb == "ADDED":
            if previous is not None:
                self._violation(
                    "UniqueUid",
                    f"pod {pod.name} (uid {uid}) ADDED twice")
            elif phase != "Pending":
                self._violation(
                    "StartsPending",
                    f"pod {pod.name} created in phase {phase}, "
                    f"expected Pending")
            self._phase[uid] = phase
            return
        # MODIFIED: first sight (late subscription) just records.
        if previous is not None and \
                phase not in _ALLOWED_TRANSITIONS[previous]:
            self._violation(
                "PhaseTransition",
                f"pod {pod.name} moved {previous} -> {phase}")
        self._phase[uid] = phase
