"""Resource vectors for pods and nodes.

A node carries CPUs, memory and GPUs of a single type (matching the paper's
clusters: K80, P100 and V100 machines).  Pods request a
:class:`ResourceRequest`; the scheduler matches requests against free node
capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import KubeError


@dataclass(frozen=True)
class ResourceRequest:
    """What one pod asks for."""

    cpus: float = 1.0
    memory_gb: float = 4.0
    gpus: int = 0
    gpu_type: Optional[str] = None

    def __post_init__(self) -> None:
        if self.cpus < 0 or self.memory_gb < 0 or self.gpus < 0:
            raise KubeError("resource quantities must be non-negative")
        if self.gpus > 0 and self.gpu_type is None:
            object.__setattr__(self, "gpu_type", "any")


@dataclass
class NodeCapacity:
    """Total resources of a node."""

    cpus: float
    memory_gb: float
    gpus: int = 0
    gpu_type: Optional[str] = None


def node_names(count: int, gpu_type: Optional[str],
               prefix: str = "node") -> Tuple[str, ...]:
    """The names of ``count`` nodes provisioned together:
    ``<prefix>-<gpu type, or cpu>-<index>``."""
    return tuple(f"{prefix}-{gpu_type or 'cpu'}-{index}"
                 for index in range(count))


@dataclass(frozen=True)
class NodeGroup:
    """``count`` identical GPU nodes of one type."""

    count: int
    gpus_per_node: int
    gpu_type: str
    cpus: float = 64.0
    memory_gb: float = 512.0

    @property
    def capacity(self) -> NodeCapacity:
        return NodeCapacity(cpus=self.cpus, memory_gb=self.memory_gb,
                            gpus=self.gpus_per_node, gpu_type=self.gpu_type)

    def node_names(self) -> Tuple[str, ...]:
        """The names ``Cluster.add_nodes`` gives this group's nodes."""
        return node_names(self.count, self.gpu_type)


class NodeAllocation:
    """Mutable free-resource tracker for one node.  ``fits`` is the one
    fit rule: the scheduler's filter, BSA's tentative views and the
    Figure 3 replayer all ask it."""

    __slots__ = ("capacity", "free_cpus", "free_memory_gb", "free_gpus")

    def __init__(self, capacity: NodeCapacity):
        self.capacity = capacity
        self.free_cpus = capacity.cpus
        self.free_memory_gb = capacity.memory_gb
        self.free_gpus = capacity.gpus

    def fits(self, request: ResourceRequest) -> bool:
        if request.gpus > 0:
            if self.capacity.gpus == 0:
                return False
            if request.gpu_type not in (None, "any",
                                        self.capacity.gpu_type):
                return False
            if request.gpus > self.free_gpus:
                return False
        return (request.cpus <= self.free_cpus + 1e-9
                and request.memory_gb <= self.free_memory_gb + 1e-9)

    def allocate(self, request: ResourceRequest) -> None:
        if not self.fits(request):
            raise KubeError("allocation does not fit")
        self.free_cpus -= request.cpus
        self.free_memory_gb -= request.memory_gb
        if request.gpus:
            self.free_gpus -= request.gpus

    def release(self, request: ResourceRequest) -> None:
        self.free_cpus = min(self.capacity.cpus,
                             self.free_cpus + request.cpus)
        self.free_memory_gb = min(self.capacity.memory_gb,
                                  self.free_memory_gb + request.memory_gb)
        if request.gpus:
            self.free_gpus = min(self.capacity.gpus,
                                 self.free_gpus + request.gpus)

    @property
    def allocated_gpus(self) -> int:
        return self.capacity.gpus - self.free_gpus

    @property
    def gpu_utilization(self) -> float:
        if self.capacity.gpus == 0:
            return 0.0
        return self.allocated_gpus / self.capacity.gpus
