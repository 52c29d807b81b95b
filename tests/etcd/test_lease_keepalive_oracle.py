"""The arithmetic keepalive chain against the timer chain it replaces.

The reference is the helper controller's ``LeaseKeepalive`` and
``EtcdStore``'s lease watchdog as they stood while every keepalive was
kernel events, kept verbatim below: ``EventLeaseKeepalive``, and
``ProcessLeaseStore``'s ``grant_lease``, ``keepalive``, ``revoke`` and
``_expiry_watchdog`` over the ``Lease`` dataclass of then
(``EventLease``); ``ProcessReplicatedEtcd`` puts such a store under the
Raft group as its hub.  Both forms run the real controller container
(``make_controller_workload``) over one ``EtcdClient``, standalone or
Raft-replicated, with or without a jittered ``RetryPolicy`` and a
``CircuitBreaker``.

Random programs start controllers, relay statuses, grant leases that no
chain keeps and keep them by hand, revoke leases, kill controllers or
let them finish, take the client down and up, count breaker failures
for other operations, crash and restart Raft replicas, and read the
client's ``ops_issued``, a lease's ``deadline`` and ``lease_alive`` -
all from outside the kernel, between ``run()`` calls.  Both forms play
the program as drawn; then both play it again with a read just before
and just after each instant at which the reference sent a keepalive or
took its reply, so that every send (``ops_issued``) and every reply
(``deadline``) must fall on the same float.  Every read,
every watch event under ``/jobs/`` (the instant each attached key is
put and deleted), each controller's exit code, exit instant and last
log line, ``retries``, the client stream's next draw, the breaker's
transitions, each lease's end state and ``env.now`` must be equal by
``==``.

One class of same-float tie is discarded: a program step at the exact
instant of a keepalive send or reply.  From outside the kernel such a
step runs after the event form's event at that instant and before the
arithmetic form's, which counts only what happened strictly before
now.
"""

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.core import helper
from repro.core.helper import (
    CONTROLLER_LEASE_TTL_S,
    ControllerState,
    make_controller_workload,
)
from repro.core.manifest import JobManifest
from repro.docker import Container, Image
from repro.errors import LeaseExpiredError, StoreError
from repro.etcd import EtcdClient, EtcdStore
from repro.etcd.client import DEFAULT_ETCD_LATENCY_S
from repro.etcd.replicated import ReplicatedEtcd
from repro.nfs import NFSVolume
from repro.resilience import CircuitBreaker, RetryPolicy
from repro.sim import Environment, RngRegistry
from repro.sim.core import Event
from repro.sim.race import RaceDetector, note_write

from tests.conftest import examples


class EventLeaseKeepalive:
    """Keep one lease alive from a timer chain, not from a process.

    ``CONTROLLER_LEASE_TTL_S / 3`` after the chain starts, and again that
    long after each keepalive completes, it sends ``etcd.keepalive``.  A
    keepalive that fails (the client's retry budget is spent) ends the
    chain and hands the error to ``on_error``; so does one that finds the
    lease revoked or expired, with :class:`LeaseExpiredError`, as etcd's
    client closes its KeepAlive stream on ``ErrLeaseNotFound``.  :meth:`stop` ends it
    too: a timer or reply already in flight then fires dead.
    """

    #: Profiler family: booked with the etcd client ops it issues.
    name = "etcd-op"

    def __init__(self, env: Environment, etcd: EtcdClient, lease_id: int,
                 on_error: Callable[[BaseException], None]):
        self.env = env
        self.etcd = etcd
        self.lease_id = lease_id
        self.on_error = on_error
        self.stopped = False
        self._arm()

    def stop(self) -> None:
        self.stopped = True

    def _arm(self) -> None:
        self.env.timeout(CONTROLLER_LEASE_TTL_S / 3).callbacks.append(
            self._send)

    def _send(self, _timer: Event) -> None:
        if not self.stopped:
            self.etcd.keepalive(self.lease_id).callbacks.append(self._done)

    def _done(self, reply: Event) -> None:
        if self.stopped:
            return
        if not reply.ok:
            error = reply.value
        elif not reply.value:  # revoked or expired: etcd ends the stream
            error = LeaseExpiredError(f"lease {self.lease_id} not alive")
        else:
            self._arm()
            return
        self.stopped = True
        self.on_error(error)


@dataclass
class EventLease:
    """A TTL lease; keys attached to it are deleted when it expires."""

    lease_id: int
    ttl_s: float
    deadline: float
    keys: set = field(default_factory=set)
    revoked: bool = False


class ProcessLeaseStore(EtcdStore):
    """``EtcdStore`` whose leases are as they were: a watchdog each."""

    def grant_lease(self, ttl_s: float) -> EventLease:
        """Grant a lease; an expiry process deletes its keys at the deadline."""
        if ttl_s <= 0:
            raise StoreError("lease ttl must be positive")
        lease = EventLease(self._next_lease_id, ttl_s, self.env.now + ttl_s)
        self._next_lease_id += 1
        self._leases[lease.lease_id] = lease
        self.env.process(self._expiry_watchdog(lease),
                         name=f"lease:{lease.lease_id}")
        return lease

    def keepalive(self, lease_id: int) -> bool:
        """Extend a lease by its TTL; False if it is already gone."""
        lease = self._leases.get(lease_id)
        if lease is None or lease.revoked:
            return False
        if self.env.race_detector is not None:
            note_write(self.env, self._race_label, f"lease/{lease_id}",
                       "EtcdStore.keepalive")
        lease.deadline = self.env.now + lease.ttl_s
        return True

    def revoke(self, lease_id: int) -> bool:
        """Revoke a lease, deleting all attached keys."""
        lease = self._leases.pop(lease_id, None)
        if lease is None or lease.revoked:
            return False
        if self.env.race_detector is not None:
            note_write(self.env, self._race_label, f"lease/{lease_id}",
                       "EtcdStore.revoke")
        lease.revoked = True
        for key in list(lease.keys):
            self.delete(key)
        return True

    def _expiry_watchdog(self, lease: EventLease):
        while not lease.revoked:
            remaining = lease.deadline - self.env.now
            if remaining <= 0:
                if self.on_lease_expired is not None:
                    self.on_lease_expired(lease)
                    if lease.revoked:
                        return
                self.revoke(lease.lease_id)
                return
            yield self.env.timeout(remaining)


class ProcessReplicatedEtcd(ReplicatedEtcd):
    """``ReplicatedEtcd`` over a ``ProcessLeaseStore`` hub."""

    def __init__(self, env: Environment, rng: RngRegistry):
        super().__init__(env, rng)
        self.hub = ProcessLeaseStore(env)
        self.hub.on_lease_expired = self._on_lease_expired


HORIZON = 240.0
END = 420.0
VERBS = ("start", "start", "start", "status", "status", "finish", "kill",
         "kill", "grant", "put", "keepalive", "keepalive", "revoke",
         "outage", "fail", "crash", "restart", "read", "read")
#: How long an ``outage`` step keeps the client down.
OUTAGES = (0.05, 0.7, 4.0, 25.0)
_STEP = st.tuples(st.floats(min_value=0.0, max_value=HORIZON),
                  st.sampled_from(VERBS), st.integers(0, 3))
_POLICY = st.sampled_from([None, RetryPolicy(),
                           RetryPolicy(max_attempts=3, jitter=False)])


def play(form, config, program, probes=()):
    """Run ``program`` under ``form`` ("reference" or "settled"); return
    what it observed and the instants of the reference's sends and
    replies (empty for the settled form)."""
    env = Environment()
    rng = RngRegistry(3)
    reference = form == "reference"
    if config["backend"] == "replicated":
        backend = (ProcessReplicatedEtcd(env, rng) if reference
                   else ReplicatedEtcd(env, rng))
        store = backend.hub
    else:
        backend = store = ProcessLeaseStore(env) if reference \
            else EtcdStore(env)
    breaker = CircuitBreaker(env, *config["breaker"]) \
        if config["breaker"] is not None else None
    client = EtcdClient(env, backend, latency_s=config["latency"], rng=rng,
                        retry=config["policy"], breaker=breaker)
    leases, replies, seen = [], [], []
    grant, keepalive = store.grant_lease, store.keepalive

    def granting(ttl_s):
        leases.append(grant(ttl_s))
        return leases[-1]

    def keeping(lease_id):
        replies.append(env.now)
        return keepalive(lease_id)

    store.grant_lease = granting
    if reference:
        store.keepalive = keeping
    sends = []

    class Recording(EventLeaseKeepalive):
        """The reference chain, noting each send's instant."""

        def _send(self, _timer: Event) -> None:
            if not self.stopped:
                sends.append(self.env.now)
            super()._send(_timer)

    def watch():
        with store.watch_prefix("/jobs/") as watcher:
            while True:
                event = yield watcher.get()
                seen.append(("watch", env.now, event.type, event.key,
                             event.value))

    env.process(watch(), name="watch")
    controllers = []

    def outcome(what, index):
        def record(event):
            value = event.value
            if not event.ok:
                value = (type(value).__name__, str(value))
            elif what == "grant":
                value = value.lease_id
            else:
                value = repr(value)
            seen.append((what, index, env.now, event.ok, value))
        return record

    def read(tag):
        lease_view = [(lease.deadline, client.lease_alive(lease.lease_id))
                      for lease in leases]
        seen.append(("read", tag, env.now, client.ops_issued, lease_view))

    def act(verb, arg):
        if verb == "read":
            read(arg)
            return
        lease = leases[arg % len(leases)] if leases else None
        nodes = sorted(backend.cluster.nodes) \
            if config["backend"] == "replicated" else []
        if verb == "start":
            volume = NFSVolume(f"v{len(controllers)}")
            manifest = JobManifest(name="j", user="u",
                                   framework="tensorflow", model="resnet50")
            container = Container(env, Image("helper"), "h/controller",
                                  make_controller_workload(
                                      env, manifest, f"job-{len(controllers)}",
                                      volume, client, ControllerState()))
            controllers.append((container, volume))
            container.start()
        elif verb in ("status", "finish", "kill") and controllers:
            container, volume = controllers[arg % len(controllers)]
            if verb == "kill":
                container.kill()
            elif not volume.released:
                volume.write(f"learners/{arg % 2}/status", f"s{len(seen)}")
                if verb == "finish":  # ends the controller at its relay
                    volume.release()
        elif verb == "grant":
            client.grant_lease((5.0, 30.0, 60.0, 25.0)[arg]).callbacks.append(
                outcome("grant", arg))
        elif verb == "put" and lease is not None:
            client.put(f"/jobs/free/{arg}", len(seen),
                       lease_id=lease.lease_id).callbacks.append(
                outcome("put", arg))
        elif verb == "keepalive" and lease is not None:
            client.keepalive(lease.lease_id).callbacks.append(
                outcome("keepalive", arg))
        elif verb == "revoke" and lease is not None:
            client.revoke(lease.lease_id).callbacks.append(
                outcome("revoke", arg))
        elif verb in ("down", "up"):
            client.set_available(verb == "up")
        elif verb == "fail" and breaker is not None:
            breaker.record_failure()  # another operation's failure
        elif verb == "crash" and nodes:
            backend.crash_replica(nodes[arg % len(nodes)])
        elif verb == "restart" and nodes:
            backend.restart_replica(nodes[arg % len(nodes)])

    steps = sorted([(at, 0, verb, arg) for at, verb, arg in program
                    if verb != "outage"]
                   + [step for at, verb, arg in program if verb == "outage"
                      for step in ((at, 0, "down", arg),
                                   (at + OUTAGES[arg], 0, "up", arg))]
                   + [(at, 1, "read", "probe") for at in probes])
    keeper = Recording if reference else helper.LeaseKeepalive
    saved = helper.LeaseKeepalive, helper.CONTROLLER_LEASE_TTL_S
    helper.CONTROLLER_LEASE_TTL_S = config["ttl"]
    helper.LeaseKeepalive = (
        (lambda env, etcd, lease, on_error:
         keeper(env, etcd, lease.lease_id, on_error))
        if reference else keeper)
    try:
        for at, _probe, verb, arg in steps:
            env.run(until=at)
            act(verb, arg)
        env.run(until=END)
    finally:
        helper.LeaseKeepalive, helper.CONTROLLER_LEASE_TTL_S = saved
    read("end")
    peek = random.Random(0)
    peek.setstate(rng.stream("resilience:etcd-client").getstate())
    ends = [(container.exit_code, container.finished_at,
             container.logs[-1][1] if container.logs else None)
            for container, _volume in controllers]
    leases_at_end = [(lease.lease_id, lease.deadline, lease.revoked,
                      sorted(lease.keys)) for lease in leases]
    observed = {
        "seen": seen, "controllers": ends, "leases": leases_at_end,
        "ops": client.ops_issued, "retries": client.retries,
        "next_draw": peek.random(), "now": env.now,
        "breaker": breaker and (breaker.state, breaker.transitions,
                                breaker.consecutive_failures)}
    chain = sorted(set(sends + replies)) if reference else []
    return observed, chain


def around(instants):
    """A read just before and just after each instant."""
    return [x for instant in instants
            for x in (math.nextafter(instant, -math.inf),
                      math.nextafter(instant, math.inf))]


CONFIG = st.fixed_dictionaries({
    "backend": st.sampled_from(["standalone", "standalone", "replicated"]),
    "latency": st.sampled_from([DEFAULT_ETCD_LATENCY_S, 0.0137, 0.3]),
    "policy": _POLICY,
    "breaker": st.one_of(st.none(), st.tuples(
        st.integers(1, 3), st.sampled_from([0.5, 5.0]))),
    "ttl": st.sampled_from([CONTROLLER_LEASE_TTL_S] * 3
                           + [30.0, 20.001, 15.0]),
})


PLAIN = {"backend": "standalone", "latency": DEFAULT_ETCD_LATENCY_S,
         "policy": RetryPolicy(), "breaker": None,
         "ttl": CONTROLLER_LEASE_TTL_S}


@settings(max_examples=examples(80), deadline=None)
@given(config=CONFIG, program=st.lists(_STEP, min_size=1, max_size=25))
# An outage mid-chain, with the breaker counting the failed keepalive.
@example(config=dict(PLAIN, breaker=(2, 5.0)),
         program=[(0.0, "start", 0), (31.5, "outage", 3),
                  (70.0, "read", 0), (100.0, "kill", 0)])
# A revoke with a keepalive in flight, on a replicated store.
@example(config=dict(PLAIN, backend="replicated", latency=0.3, policy=None),
         program=[(0.0, "start", 0), (1.0, "status", 0),
                  (40.5, "revoke", 0), (90.0, "read", 0)])
# Another operation's failure: the next keepalive resets the count.
@example(config=dict(PLAIN, breaker=(3, 5.0)),
         program=[(0.0, "start", 0), (30.5, "fail", 0), (50.5, "read", 0)])
# A chain that starts while the breaker counts a failure.
@example(config=dict(PLAIN, breaker=(3, 5.0)),
         program=[(0.0, "fail", 0), (1.0, "start", 0), (50.5, "read", 0)])
# A kill after the expiry timer found the lease kept: the timer is
# re-armed at the deadline the chain leaves, and the key goes then.
@example(config=PLAIN,
         program=[(0.0, "start", 0), (1.0, "status", 0), (130.5, "kill", 0),
                  (300.5, "read", 0)])
# Someone else's keepalive on a kept lease, read before the chain's next.
@example(config=PLAIN,
         program=[(0.0, "start", 0), (45.5, "keepalive", 0),
                  (50.5, "read", 0)])
def test_the_settled_chain_is_the_timer_chain(config, program):
    reference, chain = play("reference", config, program)
    steps = {at for at, _verb, _arg in program} | {
        at + OUTAGES[arg] for at, verb, arg in program if verb == "outage"}
    assume(not steps & set(chain))
    # Reads only where the program makes them, so a chain may go long
    # unsettled ...
    assert play("settled", config, program)[0] == reference
    # ... and around every keepalive instant.
    probes = around(chain)
    assert play("settled", config, program, probes)[0] == \
        play("reference", config, program, probes)[0]


def chain_start(form, condition):
    """Start one chain where ``condition`` could fail its first keepalive;
    return what it did by the second keepalive's instant."""
    env = Environment()
    writes = []
    if condition == "race detector":
        detector = RaceDetector(env)
        record_write = detector.record_write
        detector.record_write = lambda *access: (
            writes.append((env.now, *access)), record_write(*access))
    breaker = CircuitBreaker(env, failure_threshold=3)
    client = EtcdClient(env, EtcdStore(env), breaker=breaker)
    lease = client.backend.grant_lease(
        20.001 if condition == "short ttl" else CONTROLLER_LEASE_TTL_S)
    if condition == "breaker failure":
        breaker.record_failure()
    elif condition == "outage":
        client.set_available(False)
    elif condition == "revoked lease":
        client.backend.revoke(lease.lease_id)
    errors = []
    if form == "reference":
        EventLeaseKeepalive(env, client, lease.lease_id, errors.append)
    else:
        helper.LeaseKeepalive(env, client, lease, errors.append)
    env.run(until=45.0)
    return (client.ops_issued, breaker.consecutive_failures,
            breaker.transitions, [repr(error) for error in errors],
            lease.deadline, lease.revoked, writes)


@pytest.mark.parametrize("condition", ["breaker failure", "outage",
                                       "race detector", "revoked lease",
                                       "short ttl"])
def test_a_chain_that_could_fail_starts_as_timers(condition):
    # Each condition only arises in the same instant as the reply the
    # chain re-arms on, which a program played from outside cannot reach.
    assert chain_start("settled", condition) == \
        chain_start("reference", condition)
