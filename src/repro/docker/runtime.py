"""Docker-like container runtime.

FfDL only depends on the lifecycle semantics of containers — create, start,
observe exit code, kill — plus image pulls with node-local caching.  The
workload inside a container is an arbitrary simulation process supplied by
the creator (a learner training loop, a helper sidecar, an FfDL
microservice).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.errors import ContainerError, ImageNotFoundError
from repro.sim.core import Environment, Event, Process

CREATED = "created"
RUNNING = "running"
EXITED = "exited"

#: Exit code recorded when a container is killed.
SIGKILL_EXIT_CODE = 137


@dataclass(frozen=True)
class Image:
    """A container image; framework images carry the DL stack."""

    name: str
    tag: str = "latest"
    framework: Optional[str] = None
    size_bytes: float = 2e9

    @property
    def reference(self) -> str:
        return f"{self.name}:{self.tag}"


class Registry:
    """An image registry with per-node pull caching."""

    def __init__(self, env: Environment, pull_bandwidth_bps: float = 2.5e8):
        self.env = env
        self.pull_bandwidth_bps = pull_bandwidth_bps
        self._images: Dict[str, Image] = {}
        self._node_caches: Dict[str, set] = {}
        self.pulls = 0
        self.cache_hits = 0

    def push(self, image: Image) -> None:
        self._images[image.reference] = image

    def get(self, reference: str) -> Image:
        image = self._images.get(reference)
        if image is None:
            raise ImageNotFoundError(reference)
        return image

    def pull(self, node_name: str, reference: str) -> Event:
        """Pull an image onto a node: an event resolving with the image,
        near-instant when the node has it cached."""
        image = self.get(reference)
        cache = self._node_caches.setdefault(node_name, set())
        self.pulls += 1
        if reference in cache:
            self.cache_hits += 1
            return self.env.timeout(0.1, image)  # docker inspect overhead
        done = self.env.timeout(image.size_bytes / self.pull_bandwidth_bps,
                                image)
        done.callbacks.append(lambda _done: cache.add(reference))
        return done


class Container:
    """One container instance executing a workload process."""

    _ids = itertools.count(1)

    def __init__(self, env: Environment, image: Image, name: str,
                 workload: Optional[Callable[["Container"],
                                             Generator]] = None):
        self.env = env
        self.image = image
        self.name = name
        self.container_id = f"c{next(Container._ids):08d}"
        self.state = CREATED
        self.exit_code: Optional[int] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.logs: List[Tuple[float, str]] = []
        self._workload = workload
        self._workload_process: Optional[Process] = None
        self._exit_event: Event = env.event()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self.state != CREATED:
            raise ContainerError(
                f"container {self.name!r} already {self.state}")
        self.state = RUNNING
        self.started_at = self.env.now
        if self._workload is None:
            # An idle container (e.g. a sidecar waiting for kill).
            return
        self._workload_process = self.env.process(
            self._workload(self), name=f"workload:{self.name}")

        # A closure, not a bound method: the profiler books a bound
        # method under its owner's ``name``, one site per container.
        # ``_finish`` keeps the exit of a container killed while its
        # workload was winding down.
        def exited(workload: Process) -> None:
            if not workload.ok:  # the user workload crashed
                self.log(f"workload crashed: {workload.value!r}")
                self._finish(1)
                return
            code = workload.value
            self._finish(code if isinstance(code, int) else 0)

        self._workload_process.callbacks.append(exited)

    def _finish(self, code: int) -> None:
        if self.state == EXITED:
            return
        self.state = EXITED
        self.exit_code = code
        self.finished_at = self.env.now
        if not self._exit_event.triggered:
            self._exit_event.succeed(code)

    def kill(self) -> None:
        """SIGKILL the container (node crash, eviction, user stop)."""
        if self.state != RUNNING:
            return
        self._finish(SIGKILL_EXIT_CODE)
        if self._workload_process is not None \
                and self._workload_process.is_alive:
            self._workload_process.interrupt("killed")

    def wait(self) -> Event:
        """Event resolving with the exit code once the container exits."""
        if self.state == EXITED:
            done = self.env.event()
            done.succeed(self.exit_code)
            return done
        return self._exit_event

    # -- introspection -----------------------------------------------------------

    def log(self, line: str) -> None:
        self.logs.append((self.env.now, line))

    @property
    def is_running(self) -> bool:
        return self.state == RUNNING

    @property
    def runtime_s(self) -> Optional[float]:
        if self.started_at is None:
            return None
        end = self.finished_at if self.finished_at is not None \
            else self.env.now
        return end - self.started_at
