"""One federation cell: a full FfDL installation plus its failure modes.

A cell wraps an :class:`~repro.core.platform.FfDLPlatform` (its own
etcd, Kubernetes cluster, MongoDB, object store, scheduler, LCM) and
adds the two whole-cell failure modes the federation reacts to:

* **Blackout** — the cell goes dark: every core-service replica is held
  down, every node dies, MongoDB becomes unreachable.  Ingress raises
  :class:`~repro.errors.CellUnavailableError` immediately.  The cell's
  :class:`~repro.resilience.BufferedJobWriter` keeps buffering status
  records through the outage and flushes them on recovery, so no
  per-cell job record is ever lost.

* **Brownout** — the cell is alive but degraded: API/LCM request
  latency is inflated by a factor, which the federation's health probes
  observe as elevated latency and classify without any explicit signal
  from the cell.

Each cell forks its own child RNG registry (``cell:<name>``) so cells
are statistically independent and adding a cell never perturbs the
draws of another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core import statuses as st
from repro.core.manifest import JobManifest
from repro.core.platform import FfDLPlatform, PlatformConfig
from repro.errors import CellUnavailableError, ReproError
from repro.resilience import CircuitBreaker
from repro.sim.core import Environment, Event, OBSERVER
from repro.sim.rng import RngRegistry

#: Effectively-unlimited per-cell quota: global quota accounting lives
#: in the dispatcher; cells must never reject on local quota grounds.
_CELL_LOCAL_QUOTA = 10 ** 9


def default_cell_config() -> PlatformConfig:
    """Platform knobs tuned for federation members: service breakers on
    (the health probes trip and read them) and node-failure detection
    fast enough that a post-blackout cell converges within the
    federation's fencing window."""
    return PlatformConfig(
        service_breakers=True,
        node_detection_latency_s=10.0,
        pod_eviction_timeout_s=10.0,
    )


@dataclass
class CellSpec:
    """Declarative shape of one cell."""

    name: str
    zone: str = "zone-a"
    gpu_nodes: int = 4
    gpus_per_node: int = 4
    gpu_type: str = "K80"
    #: None -> sized so CPU never starves the GPUs (t-shirt sizing puts
    #: up to 26 CPUs behind one V100).
    cpus_per_node: Optional[float] = None
    memory_gb_per_node: Optional[float] = None
    config: Optional[PlatformConfig] = None
    tags: Dict[str, str] = field(default_factory=dict)

    @property
    def effective_cpus_per_node(self) -> float:
        if self.cpus_per_node is not None:
            return self.cpus_per_node
        return max(64.0, 28.0 * self.gpus_per_node)

    @property
    def effective_memory_gb_per_node(self) -> float:
        if self.memory_gb_per_node is not None:
            return self.memory_gb_per_node
        return max(512.0, 48.0 * self.gpus_per_node)


class Cell:
    """A federation member and its ingress surface.

    Everything the dispatcher invokes on a cell goes through the small
    ingress API below (``submit_and_watch``, ``preempt``, ``probe``,
    ``job_status``) — always via the
    :class:`~repro.federation.bus.FederationBus`, never by reaching
    into the platform directly.
    """

    def __init__(self, env: Environment, rng: RngRegistry, spec: CellSpec,
                 breaker_failure_threshold: int = 3,
                 breaker_reset_timeout_s: float = 20.0):
        self.env = env
        self.spec = spec
        self.name = spec.name
        self.zone = spec.zone
        self.rng = rng.fork(f"cell:{spec.name}")
        self.platform = FfDLPlatform(env, self.rng,
                                     spec.config or default_cell_config())
        self.platform.add_gpu_nodes(
            spec.gpu_nodes, spec.gpus_per_node, spec.gpu_type,
            cpus=spec.effective_cpus_per_node,
            memory_gb=spec.effective_memory_gb_per_node)
        #: Per-cell breaker, fed by the federation health probes; the
        #: dispatcher reads its state (never allow(), which mutates).
        self.breaker = CircuitBreaker(
            env, failure_threshold=breaker_failure_threshold,
            reset_timeout_s=breaker_reset_timeout_s,
            name=f"cell:{spec.name}")
        self.blacked_out = False
        self.browned_out = False
        self.blackouts = 0
        self.brownouts = 0
        self._base_latency: Dict[str, float] = {}
        #: One-way completion notifications to post over the bus; wired
        #: by the dispatcher (cell -> dispatcher direction).
        self.notify: Optional[Callable[[str, int, str, str], None]] = None

    # -- capacity ----------------------------------------------------------

    @property
    def total_gpus(self) -> int:
        return self.platform.cluster.total_gpus()

    def register_tenant(self, user: str) -> None:
        """Cells never enforce quota locally (the dispatcher does)."""
        self.platform.admission.register(user, gpu_quota=_CELL_LOCAL_QUOTA)

    # -- ingress (dispatcher-facing, always via the bus) -------------------

    def _check_reachable(self) -> None:
        if self.blacked_out:
            raise CellUnavailableError(f"cell {self.name!r} is blacked out")

    def probe(self, deadline_s: float) -> Event:
        """Health probe: a no-op API request under a deadline.  During a
        blackout it fails fast; during a brownout it pays the inflated
        request latency the monitor is looking for."""
        self._check_reachable()
        return self.platform.api_service.call(lambda: "ok",
                                              deadline_s=deadline_s)

    def submit_and_watch(self, manifest: JobManifest, intent_id: str,
                         generation: int) -> Event:
        """Submit a job and register the terminal watch that reports the
        outcome back over the bus; resolves with the cell-local job id."""
        self._check_reachable()
        done = self.env.event()

        def run():
            try:
                job_id = yield self.platform.submit_job(manifest)
            except ReproError as err:
                # Propagate instead of wedging the cell's serialized
                # inbox behind an event that never fires.
                done.fail(err)
                return
            self.env.process(self._watch(job_id, intent_id, generation),
                             name=f"cell-watch:{self.name}:{job_id}")
            done.succeed(job_id)

        self.env.process(run(), name=f"cell-submit:{self.name}:{intent_id}")
        return done

    def _watch(self, job_id: str, intent_id: str, generation: int):
        status = yield self.platform.wait_for_terminal(job_id)
        # A dark cell cannot speak: hold the notification until the
        # blackout lifts (by then the dispatcher has migrated the intent
        # and the stale generation makes this a no-op on arrival).
        while self.blacked_out:
            yield self.env.timeout(1.0, priority=OBSERVER)
        if self.notify is not None:
            self.notify(intent_id, generation, job_id, status)

    def preempt(self, job_id: str, reason: str = "preempted") -> None:
        """Tear a cell job down (migration fencing); no-op if the job is
        already terminal or unknown."""
        self._check_reachable()
        job = self.platform.jobs.get(job_id)
        if job is None:
            return
        if job.status.current in (st.COMPLETED, st.FAILED, st.HALTED):
            return
        self.platform.preempt_job(job_id, reason=reason)

    # -- whole-cell failure modes ------------------------------------------

    def begin_blackout(self) -> None:
        """The entire cell goes dark: services held down, nodes dead,
        MongoDB unreachable (status records buffer in the writer)."""
        if self.blacked_out:
            return
        self.blacked_out = True
        self.blackouts += 1
        for service in (self.platform.api_service, self.platform.lcm,
                        self.platform.metrics_service):
            service.take_down()
        for node_name in sorted(self.platform.cluster.allocations):
            self.platform.cluster.fail_node(node_name)
        self.platform.mongo_client.set_available(False)

    def end_blackout(self) -> None:
        """Power restored: nodes and services come back, MongoDB becomes
        reachable and the buffered writer flushes — zero lost records."""
        if not self.blacked_out:
            return
        self.blacked_out = False
        self.platform.mongo_client.set_available(True)
        for node_name in sorted(self.platform.cluster.allocations):
            self.platform.cluster.recover_node(node_name)
        for service in (self.platform.api_service, self.platform.lcm,
                        self.platform.metrics_service):
            service.restore()

    def begin_brownout(self, latency_factor: float = 100.0) -> None:
        """Degrade, don't die: API/LCM latency inflates by ``factor``."""
        if self.browned_out:
            return
        self.browned_out = True
        self.brownouts += 1
        for service in (self.platform.api_service, self.platform.lcm):
            self._base_latency[service.name] = service.request_latency_s
            service.request_latency_s *= latency_factor

    def end_brownout(self) -> None:
        if not self.browned_out:
            return
        self.browned_out = False
        for service in (self.platform.api_service, self.platform.lcm):
            service.request_latency_s = self._base_latency.pop(
                service.name, service.request_latency_s)

    # -- introspection -----------------------------------------------------

    def running_job_ids(self) -> List[str]:
        return sorted(
            job_id for job_id, job in self.platform.jobs.items()
            if job.status.current not in (st.COMPLETED, st.FAILED, st.HALTED))
