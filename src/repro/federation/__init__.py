"""Multi-cell federation: N independent FfDL cells under one dispatcher.

Each :class:`~repro.federation.cell.Cell` is a full FfDL installation
(its own etcd, Kubernetes cluster, MongoDB, object store, scheduler and
lifecycle manager) built from the existing
:class:`~repro.core.platform.FfDLPlatform`; the
:class:`~repro.federation.dispatcher.FederationDispatcher` above them
does per-tenant quota accounting, locality-aware cell selection,
cross-cell spillover, and brownout/blackout-driven migration with a
durable intent log.  All cross-cell traffic rides the
:class:`~repro.federation.bus.FederationBus`, whose per-destination
deterministic merge keeps the whole federation byte-reproducible.
"""

from repro.federation.bus import FederationBus
from repro.federation.cell import Cell, CellSpec
from repro.federation.dispatcher import (
    FederationDispatcher,
    Intent,
    INTENT_QUEUED,
    INTENT_DISPATCHING,
    INTENT_DISPATCHED,
)
from repro.federation.health import (
    BLACKOUT,
    BROWNOUT,
    HEALTHY,
    CellHealthMonitor,
)

__all__ = [
    "BLACKOUT",
    "BROWNOUT",
    "Cell",
    "CellHealthMonitor",
    "CellSpec",
    "FederationBus",
    "FederationDispatcher",
    "HEALTHY",
    "Intent",
    "INTENT_DISPATCHED",
    "INTENT_DISPATCHING",
    "INTENT_QUEUED",
]
