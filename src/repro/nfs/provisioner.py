"""Dynamic NFS volume provisioning.

The paper's "lessons learned" (Section 4) records that "provisioning NFS
volumes was slow and often failed under high load" and that a
pre-allocating pool microservice "only increased the complexity of the
system".  :class:`NFSProvisioner` reproduces the load-dependent latency and
failure curve; :class:`VolumePool` is the pool workaround, kept for the
storage ablation.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.errors import ProvisioningError
from repro.nfs.volume import NFSVolume
from repro.sim.core import Environment, Event
from repro.sim.rng import RngRegistry


class NFSProvisioner:
    """Creates volumes on demand; degrades under concurrent load.

    Latency grows linearly with in-flight provisioning requests, and beyond
    ``overload_threshold`` concurrent requests each has ``overload_failure_
    probability`` of failing — the behaviour the paper observed in
    production.
    """

    def __init__(self, env: Environment, rng: RngRegistry,
                 base_latency_s: float = 4.0,
                 per_request_penalty_s: float = 2.0,
                 overload_threshold: int = 10,
                 overload_failure_probability: float = 0.3):
        self.env = env
        self.rng = rng.stream("nfs-provisioner")
        self.base_latency_s = base_latency_s
        self.per_request_penalty_s = per_request_penalty_s
        self.overload_threshold = overload_threshold
        self.overload_failure_probability = overload_failure_probability
        self.in_flight = 0
        self.provisioned = 0
        self.failures = 0
        self._counter = itertools.count(1)

    def provision(self, name: Optional[str] = None) -> Event:
        """Provision a volume; resolves with :class:`NFSVolume` or fails
        with :class:`ProvisioningError` under overload."""
        volume_name = name or f"nfs-vol-{next(self._counter)}"
        self.in_flight += 1
        latency = (self.base_latency_s +
                   self.per_request_penalty_s * (self.in_flight - 1))
        overloaded = self.in_flight > self.overload_threshold

        def create():
            try:
                yield self.env.timeout(latency)
                if overloaded and (self.rng.random() <
                                   self.overload_failure_probability):
                    self.failures += 1
                    raise ProvisioningError(
                        f"NFS provisioning of {volume_name!r} failed "
                        f"under load ({self.in_flight} in flight)")
                self.provisioned += 1
                return NFSVolume(volume_name)
            finally:
                self.in_flight -= 1

        return self.env.process(create(), name=f"nfs-prov:{volume_name}")


class VolumePool:
    """Pre-allocated pool of NFS volumes (the workaround the paper tried).

    Acquiring from a warm pool is fast; when the pool is drained, requests
    fall back to the slow dynamic provisioner — keeping the pool filled is
    itself a background process, which is exactly the added complexity the
    paper complains about.
    """

    def __init__(self, env: Environment, provisioner: NFSProvisioner,
                 target_size: int = 8, refill_interval_s: float = 30.0,
                 acquire_latency_s: float = 0.5):
        self.env = env
        self.provisioner = provisioner
        self.target_size = target_size
        self.acquire_latency_s = acquire_latency_s
        self.refill_interval_s = refill_interval_s
        self._pool: List[NFSVolume] = []
        self.pool_hits = 0
        self.pool_misses = 0
        self._refiller = env.process(self._refill_loop(), name="nfs-pool")

    @property
    def available(self) -> int:
        return len(self._pool)

    def acquire(self) -> Event:
        """Take a volume from the pool, or fall back to slow provisioning."""
        if self._pool:
            self.pool_hits += 1
            return self.env.timeout(self.acquire_latency_s, self._pool.pop())
        self.pool_misses += 1
        return self.provisioner.provision()

    def _refill_loop(self):
        while True:
            yield self.env.timeout(self.refill_interval_s)
            while len(self._pool) < self.target_size:
                try:
                    volume = yield self.provisioner.provision()
                except ProvisioningError:
                    break  # try again next cycle
                self._pool.append(volume)
