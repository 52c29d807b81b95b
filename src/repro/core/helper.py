"""The helper pod: controller, load-data, store-results, log-collector.

"For each DL job, the Guardian also creates a separate helper K8S pod ...
which contains a number of 'helper' containers: load-data and store-results
to load and store data, log-collector to process logs, and controller to
orchestrate the job.  The helper pod remains isolated from the learner
pods, but both share a common NFS filesystem" (Section 3.8).

The controller reads learner status/exit files from NFS and records
per-learner status in etcd (under a lease, so stale state self-erases if
the whole job vanishes); the Guardian aggregates from etcd.  It wakes
only for those two files: a learner's ``iterations`` and ``log`` writes
never resume it.  Its lease keepalive is a chain of its own, as an
etcd client's background KeepAlive is, not a step of the relay loop;
while nothing can fail a keepalive the chain is float arithmetic that
moves the lease's deadline, not kernel events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.core.manifest import JobManifest
from repro.errors import LeaseExpiredError
from repro.etcd.client import EtcdClient
from repro.etcd.kv import Lease
from repro.nfs.volume import NFSVolume
from repro.sim.core import Environment, Event

#: etcd layout for one job.
def job_prefix(job_id: str) -> str:
    return f"/jobs/{job_id}/"


def learner_status_key(job_id: str, index: int) -> str:
    return f"/jobs/{job_id}/learners/{index}/status"


def learner_exit_key(job_id: str, index: int) -> str:
    return f"/jobs/{job_id}/learners/{index}/exit"


def halt_key(job_id: str) -> str:
    return f"/jobs/{job_id}/halt"


#: The controller's poll interval over NFS: a status or exit file is
#: relayed this long after its own write (plus one etcd round trip).
CONTROLLER_POLL_S = 0.5
#: Lease TTL on controller-written keys; a keepalive goes out a third of
#: it after the previous one completed, so keys vanish soon after the
#: whole job does.
CONTROLLER_LEASE_TTL_S = 60.0
KEEPALIVE_PERIOD_S = CONTROLLER_LEASE_TTL_S / 3


def _relayed_index(path: str) -> Optional[int]:
    """Learner index of a file the controller relays into etcd
    (``learners/<i>/status`` or ``learners/<i>/exit``), else None."""
    parts = path.split("/")
    if len(parts) == 3 and parts[0] == "learners" \
            and parts[2] in ("status", "exit"):
        return int(parts[1])
    return None


@dataclass
class ControllerState:
    """Observable state of one job's controller (tests/benches read it)."""

    statuses: Dict[int, str] = field(default_factory=dict)
    exits: Dict[int, str] = field(default_factory=dict)
    updates_written: int = 0
    lease_id: Optional[int] = None


class LeaseKeepalive:
    """Keep one lease alive: a keepalive ``KEEPALIVE_PERIOD_S`` after the
    chain starts, and again that long after each reply.

    A keepalive that fails (the client's retry budget is spent) ends the
    chain and hands the error to ``on_error``; so does one that finds the
    lease revoked or expired, with :class:`LeaseExpiredError`, as etcd's
    client closes its KeepAlive stream on ``ErrLeaseNotFound``.
    :meth:`stop` ends it too; a keepalive already in flight still lands.

    While nothing can fail a keepalive or see one - the client is
    available, its breaker counts no failure, no race detector is
    attached - the chain is arithmetic, not events (DESIGN.md, "A
    healthy lease is a deadline").  Send *k* goes out a period after
    reply *k-1*, its reply lands one client latency later and moves the
    deadline to that instant plus the TTL: chained float additions that
    :meth:`settle` applies.  :meth:`fall_back` turns the chain back
    into timers at the first instant that could change a keepalive's
    outcome (``set_available``, a breaker failure, a revoke, a stop); the
    next successful reply resumes the arithmetic.
    """

    #: Profiler family: booked with the etcd client ops it issues.
    name = "etcd-op"

    def __init__(self, env: Environment, etcd: EtcdClient, lease: Lease,
                 on_error: Callable[[BaseException], None]):
        self.env = env
        self.etcd = etcd
        self.lease = lease
        self.on_error = on_error
        self.stopped = False
        #: Arithmetic form: the next send's instant, and whether it has
        #: gone out (and been counted) with its reply still to land.
        self._send_at = env.now + KEEPALIVE_PERIOD_S
        self._sent = False
        self._arm()

    def stop(self) -> None:
        self.stopped = True
        if self.lease.keeper is self:
            self.fall_back()

    def settle(self, now: float) -> None:
        """Apply the chain's sends and replies before ``now``: count each
        send in the client's ``ops_issued``, and set the deadline from
        the last reply."""
        latency = self.etcd.latency_s
        send, sent = self._send_at, self._sent
        sends, replied = 0, None
        while send < now:
            if not sent:
                sends += 1
            reply = send + latency
            if reply >= now:
                sent = True
                break
            replied, send, sent = reply, reply + KEEPALIVE_PERIOD_S, False
        self._send_at, self._sent = send, sent
        self.etcd._ops_issued += sends
        if replied is not None:
            self.lease._deadline = replied + self.lease.ttl_s

    def fall_back(self) -> None:
        """Leave the arithmetic: queue what is due as the timer chain."""
        self.settle(self.env.now)
        del self.env.chains[self]
        self.lease.release()
        if self._sent:
            self.etcd.keepalive(
                self.lease.lease_id,
                lands_at=self._send_at + self.etcd.latency_s,
            ).callbacks.append(self._done)
        elif not self.stopped:
            self.env.timeout_at(self._send_at).callbacks.append(self._send)

    def _arm(self) -> None:
        etcd, lease = self.etcd, self.lease
        if etcd.available and not lease.revoked \
                and (etcd.breaker is None
                     or etcd.breaker.consecutive_failures == 0) \
                and self.env.race_detector is None \
                and KEEPALIVE_PERIOD_S + etcd.latency_s < lease.ttl_s:
            # Nothing can fail the next keepalive, and each reply lands
            # before the deadline the previous one set.  A keepalive
            # writes lease/<id>, a store the race detector watches, so
            # under it the chain stays events (DESIGN.md, "Arithmetic
            # until something could change it").
            self._send_at = self.env.now + KEEPALIVE_PERIOD_S
            self._sent = False
            lease.keeper = self
            self.env.chains[self] = etcd
        else:
            self.env.timeout(KEEPALIVE_PERIOD_S).callbacks.append(
                self._send)

    def _send(self, _timer: Event) -> None:
        if not self.stopped:
            self.etcd.keepalive(self.lease.lease_id).callbacks.append(
                self._done)

    def _done(self, reply: Event) -> None:
        if self.stopped:
            return
        if not reply.ok:
            error = reply.value
        elif not reply.value:  # revoked or expired: etcd ends the stream
            error = LeaseExpiredError(
                f"lease {self.lease.lease_id} not alive")
        else:
            self._arm()
            return
        self.stopped = True
        self.on_error(error)


def make_controller_workload(env: Environment, manifest: JobManifest,
                             job_id: str, volume: NFSVolume,
                             etcd: EtcdClient, state: ControllerState):
    """Controller container: NFS -> etcd status relay.

    Idle, it waits on one ``wake`` event that only a status or exit
    write succeeds.  Woken, it sleeps ``CONTROLLER_POLL_S`` and relays
    every such file written meanwhile, each at its latest content.  A
    failed lease keepalive fails the container with the etcd error: at
    once if the controller is idle, else before it waits again.  A
    volume the Guardian has released ends it cleanly (exit 0).
    """

    def workload(container):
        lease = yield etcd.grant_lease(CONTROLLER_LEASE_TTL_S)
        state.lease_id = lease.lease_id
        dirty = set()
        wake = env.event()
        failure = []

        def on_change(path: str) -> None:
            if _relayed_index(path) is not None:
                dirty.add(path)
                if not wake.triggered:
                    wake.succeed()

        def on_keepalive_error(err: BaseException) -> None:
            failure.append(err)
            if not wake.triggered:
                wake.fail(err)

        keepalive = LeaseKeepalive(env, etcd, lease, on_keepalive_error)
        volume.subscribe(on_change)
        try:
            # Pick up anything written before we subscribed (controller
            # can start after learners under unfortunate scheduling).
            dirty.update(path for path in volume.listdir("learners/")
                         if _relayed_index(path) is not None)
            while True:
                if failure:
                    raise failure[0]
                if not dirty:
                    wake = env.event()
                    yield wake
                # React within the poll interval.
                yield env.timeout(CONTROLLER_POLL_S)
                paths, dirty = sorted(dirty), set()
                for path in paths:
                    if volume.released:
                        return 0  # the Guardian garbage-collected the job
                    yield from _relay(path)
        finally:
            keepalive.stop()
            volume.unsubscribe(on_change)

    def _relay(path: str):
        index = _relayed_index(path)
        content = volume.read(path)
        if content is None:
            return
        if path.endswith("/status"):
            state.statuses[index] = content
            state.updates_written += 1
            yield etcd.put(learner_status_key(job_id, index), content,
                           lease_id=state.lease_id)
        else:
            state.exits[index] = content
            state.updates_written += 1
            yield etcd.put(learner_exit_key(job_id, index), content,
                           lease_id=state.lease_id)

    return workload


def make_log_collector_workload(env: Environment, job_id: str,
                                volume: NFSVolume, log_sink):
    """Log-collector container: tails learner logs into the log service."""

    def workload(container):
        shipped: Dict[str, int] = {}
        wake = [env.event()]
        pending = {"dirty": set()}

        def on_change(path: str) -> None:
            if path.endswith("/log"):
                pending["dirty"].add(path)
                if not wake[0].triggered:
                    wake[0].succeed()

        volume.subscribe(on_change)
        try:
            while True:
                if not pending["dirty"]:
                    wake[0] = env.event()
                    yield wake[0]
                yield env.timeout(1.0)  # shipping batch latency
                paths, pending["dirty"] = pending["dirty"], set()
                for path in sorted(paths):
                    content = volume.read(path) or ""
                    start = shipped.get(path, 0)
                    for line in content[start:].splitlines():
                        log_sink.ingest(job_id, path, line, env.now)
                    shipped[path] = len(content)
        finally:
            volume.unsubscribe(on_change)

    return workload


def make_idle_sidecar_workload(env: Environment):
    """load-data / store-results containers: on-demand transfer sidecars.

    In this reproduction the learners drive their own mounts, so these
    sidecars idle; they exist so the helper pod has the paper's container
    inventory and so their crash/restart behaviour can be exercised.
    """

    def workload(container):
        yield env.event()  # sleep forever (until killed)

    return workload
