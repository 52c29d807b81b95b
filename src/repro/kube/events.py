"""Kubernetes event records, including the FailedScheduling taxonomy.

Table 8 of the paper classifies four months of scheduler log messages; the
constants here carry both the short reason and the exact message template so
the failure-analysis benchmarks can regenerate the same classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

FAILED_SCHEDULING = "FailedScheduling"
SCHEDULED = "Scheduled"
PULLED = "Pulled"
STARTED = "Started"
KILLED = "Killed"
EVICTED = "Evicted"
NODE_NOT_READY_EVENT = "NodeNotReady"

# FailedScheduling reasons, mirroring Table 8.
REASON_NO_NODES = "No nodes available"
REASON_BINDING_REJECTED = "Binding Rejected"
REASON_SKIP_DELETING = "skip deleting pods"
REASON_PVC_NOT_FOUND = "persistentvolumeclaim"
REASON_POD_NOT_FOUND = "pods not found"
REASON_TIMEOUT = "Timeout"
REASON_ASSUME_FAILED = "Assume Pod failed"

MESSAGE_TEMPLATES = {
    REASON_NO_NODES: ("No nodes are available that match all of the "
                      "predicates: {predicates}"),
    REASON_BINDING_REJECTED: ('Operation cannot be fulfilled on pods/binding '
                              '"{pod}": pod {pod} is being deleted, cannot '
                              'be assigned to a host'),
    REASON_SKIP_DELETING: "skip schedule deleting pod: {pod}",
    REASON_PVC_NOT_FOUND: ('persistentvolumeclaim "{claim}" not found '
                           "(repeated {n} times)"),
    REASON_POD_NOT_FOUND: 'pods "{pod}" not found',
    REASON_TIMEOUT: ("Timeout: request did not complete within allowed "
                     "duration"),
    REASON_ASSUME_FAILED: ("pod {pod} state wasn't initial but get assumed"),
}

# Common scheduling predicates referenced by REASON_NO_NODES messages.
PREDICATE_INSUFFICIENT_GPU = "Insufficient alpha.kubernetes.io/nvidia-gpu"
PREDICATE_MATCH_NODE_SELECTOR = "MatchNodeSelector"
PREDICATE_NODE_UNSCHEDULABLE = "NodeUnschedulable"
PREDICATE_INSUFFICIENT_CPU = "Insufficient cpu"
PREDICATE_INSUFFICIENT_MEMORY = "Insufficient memory"


@dataclass
class KubeEvent:
    """One recorded cluster event."""

    time: float
    kind: str  # e.g. FailedScheduling, Scheduled, Evicted
    object_kind: str  # Pod, Node, ...
    object_name: str
    reason: str = ""
    message: str = ""
    #: Pod-type label (learner, lhelper, jobmonitor, ...) for Figure 6.
    pod_type: Optional[str] = None


class EventLog:
    """Append-only event sink with simple query helpers."""

    def __init__(self):
        self.events: List[KubeEvent] = []

    def record(self, event: KubeEvent) -> None:
        self.events.append(event)

    def of_kind(self, kind: str) -> List[KubeEvent]:
        return [e for e in self.events if e.kind == kind]

    def failed_scheduling(self) -> List[KubeEvent]:
        return self.of_kind(FAILED_SCHEDULING)
