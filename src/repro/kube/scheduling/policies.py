"""Node-scoring policies: Spread (Kubernetes default) and Pack (FfDL).

Section 3.4: Spread "distributes pods over the cluster, and avoids placing
two pods which are replicas of the same workload on the same physical
machine", which fragments GPU capacity; FfDL's Pack extension "crams" a DL
job into as few machines as possible, keeping whole machines free for large
jobs.
"""

from __future__ import annotations

from repro.errors import KubeError
from repro.kube.resources import NodeAllocation, ResourceRequest

SPREAD = "spread"
PACK = "pack"


def check_policy(policy: str) -> None:
    """Reject a policy ``score_node`` does not know when it is configured,
    not at the first score, deep inside the scheduler or the replayer."""
    if policy not in (SPREAD, PACK):
        raise KubeError(f"policy must be {SPREAD!r} or {PACK!r}, not "
                        f"{policy!r}")


def score_reads_owner(policy: str) -> bool:
    """Whether ``score_node`` reads ``same_owner_pods`` under ``policy``.
    Pack never does.  Spread does, as a penalty of 100 per pod that no
    load difference (at most 1) outweighs, so the candidate index keeps
    one set of scores per pod class for every owner and
    ``Placement.best_node`` steps past the owner's nodes.  A policy that
    starts reading the count must say so here, with a penalty that
    dominates the rest of its score the same way."""
    return policy == SPREAD


def score_node(policy: str, request: ResourceRequest,
               allocation: NodeAllocation, same_owner_pods: int) -> float:
    """Higher is better.  ``same_owner_pods`` counts pods of the same owner
    already bound to this node (Spread penalizes these; see
    ``score_reads_owner``)."""
    if policy == SPREAD:
        # Prefer nodes without replicas of the same workload, then the
        # least-loaded node.
        load = _load_fraction(allocation)
        return -100.0 * same_owner_pods - load
    if policy == PACK:
        # Prefer the fullest node that still fits: best-fit packing on the
        # scarce resource (GPUs when the pod wants them, CPUs otherwise).
        if request.gpus > 0 and allocation.capacity.gpus > 0:
            return allocation.gpu_utilization
        return _load_fraction(allocation)
    raise ValueError(f"unknown policy {policy!r}")


def _load_fraction(allocation: NodeAllocation) -> float:
    cap = allocation.capacity
    cpu_frac = 1.0 - allocation.free_cpus / cap.cpus if cap.cpus else 0.0
    gpu_frac = allocation.gpu_utilization
    return max(cpu_frac, gpu_frac)
