"""``Container`` as it was when a second ``container:`` process waited
on the workload to record its exit: ``start`` and ``_run`` kept
verbatim.  The pod-lifecycle oracle
(``tests/kube/test_pod_lifecycle_oracle.py``) runs it as its
reference; it lives apart because its ``RUNNING`` is the container
state, not the pod phase."""

from repro.docker import runtime
from repro.docker.runtime import (
    CREATED,
    EXITED,
    RUNNING,
    SIGKILL_EXIT_CODE,
)
from repro.errors import ContainerError
from repro.sim.core import Interrupt


class Container(runtime.Container):
    """``start`` and ``_run`` as they were."""

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
        self._process = self.env.process(self._run(),
                                         name=f"container:{self.name}")

    def _run(self):
        try:
            result = yield self._workload_process
        except Interrupt:
            # Crash injection against the container itself: record the
            # kill and re-raise — the Interrupt must stay observable.
            self._finish(SIGKILL_EXIT_CODE)
            raise
        except Exception as err:  # noqa: BLE001 - user workload crash
            self.log(f"workload crashed: {err!r}")
            self._finish(1)
            return
        if self.state == EXITED:
            return  # killed while the workload was winding down
        code = result if isinstance(result, int) else 0
        self._finish(code)
