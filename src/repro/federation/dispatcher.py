"""The global federation dispatcher.

One dispatcher fronts N cells.  It owns:

* **The durable intent log** — every accepted submission becomes an
  *intent* (``fed-%06d``) written through a
  :class:`~repro.resilience.BufferedJobWriter` to the dispatcher's own
  MongoDB before the caller is acknowledged, mirroring the per-cell
  FfDL contract ("store all the metadata ... before acknowledging").
  Intents survive cell loss: the per-cell job is disposable, the
  intent is not.

* **Per-tenant federation-wide quota accounting.**  Cells run with
  effectively-unlimited local quotas; the only quota gate is here.

* **Cell selection** — filter to live cells (breaker not OPEN, monitor
  HEALTHY, GPU type matches, uncommitted capacity fits), prefer the
  tenant's zone, then most free GPUs, then cell name.  Choosing a cell
  outside the preferred zone is *spillover*.

* **Migration** — on a BROWNOUT or BLACKOUT transition every
  non-terminal intent leaves the cell: its generation is bumped (so
  in-flight completions from the old cell arrive stale and are
  ignored), the old cell job is preempted if the cell is reachable, or
  queued for *fencing* at recovery if not, and the intent re-enters
  dispatch on the surviving cells.

* **Idempotent re-submission.**  Every side effect is guarded by the
  intent's generation, recorded durably *before* the cell submit: a
  dispatcher retry or a racing migration observes a stale generation
  and fences the orphan cell job instead of letting it count.  A job is
  never *executed* twice — a stale-generation COMPLETED is tracked as a
  ``double_executions`` violation, which the chaos hypotheses pin at 0.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import statuses as st
from repro.core.manifest import JobManifest
from repro.errors import QuotaExceededError, ReproError
from repro.federation.bus import FederationBus
from repro.federation.cell import Cell
from repro.federation.health import (
    BLACKOUT,
    BROWNOUT,
    CellHealthMonitor,
    HEALTHY,
)
from repro.mongo.client import MongoClient
from repro.mongo.database import MongoDatabase
from repro.resilience import BufferedJobWriter
from repro.sim.core import Environment, Event, OBSERVER
from repro.sim.rng import RngRegistry

INTENT_QUEUED = "QUEUED"
INTENT_DISPATCHING = "DISPATCHING"
INTENT_DISPATCHED = "DISPATCHED"

_TERMINAL = (st.COMPLETED, st.FAILED, st.HALTED)
#: Cadence of the loop that re-kicks QUEUED intents.
RECONCILE_INTERVAL_S = 10.0
#: What the dispatcher counts (``FederationDispatcher.counters``).
COUNTERS = ("submitted", "rejected_quota", "dispatched", "spillovers",
            "migrations", "fenced", "stale_notifications",
            "double_executions", "completed", "failed")


@dataclass
class Intent:
    """One durable unit of federated work (the job *as the user sees
    it*, independent of which cell happens to run it)."""

    intent_id: str
    manifest: JobManifest
    preferred_zone: Optional[str]
    submitted_at: float
    state: str = INTENT_QUEUED
    #: Bumped before every (re-)dispatch; the fencing token.  Cell-side
    #: outcomes carry the generation they were submitted under and are
    #: ignored when stale.
    generation: int = 0
    cell: Optional[str] = None
    cell_job: Optional[str] = None
    migrations: int = 0
    completions: int = 0
    history: List[Tuple[float, str]] = field(default_factory=list)

    @property
    def demand(self) -> int:
        return self.manifest.total_gpus

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL


class FederationDispatcher:
    """Global dispatch, quota, migration and fencing over N cells."""

    #: Give up on a cell submit RPC after this long (a wedged cell must
    #: not wedge the control loop); generous next to the bus round trip.
    SUBMIT_TIMEOUT_S = 60.0

    def __init__(self, env: Environment, rng: RngRegistry,
                 bus: FederationBus, cells: List[Cell],
                 audit: Optional[Callable[[str], None]] = None):
        self.env = env
        self.bus = bus
        self.name = "dispatcher"
        self.cells: Dict[str, Cell] = {c.name: c for c in cells}
        self.audit = audit

        # Durable intent log: the dispatcher's own control-plane store,
        # buffered so a store outage degrades instead of rejecting.
        self.mongo = MongoDatabase()
        self.mongo_client = MongoClient(env, self.mongo, rng=rng)
        self.intent_log = BufferedJobWriter(
            env, self.mongo_client,
            stream=rng.stream("federation:intent-log"))

        self._intents: Dict[str, Intent] = {}
        self._intent_seq = itertools.count(1)
        self._quotas: Dict[str, int] = {}
        #: GPUs held per tenant by non-terminal intents.
        self._quota_used: Dict[str, int] = defaultdict(int)
        #: Ids of QUEUED intents: what the reconcile loop re-kicks.
        self._queued: set = set()
        #: GPUs committed per cell by non-terminal intents; dispatch
        #: accounting, deliberately independent of the cells' own lagging
        #: allocation view.
        self._committed: Dict[str, int] = {c.name: 0 for c in cells}
        #: (cell_name, cell_job_id) orphans awaiting fencing once their
        #: blacked-out cell returns.
        self._fence_queue: List[Tuple[str, str]] = []
        #: Pending control work — ("dispatch", intent_id, "", "") and
        #: ("fence", cell, job, reason) items.  A single control loop
        #: drains the set in sorted order, so every dispatcher-originated
        #: bus message is issued by one process in one canonical order no
        #: matter which schedule permutation queued the work.
        self._work: set = set()
        self._wakeup = env.event()

        self.counters = dict.fromkeys(COUNTERS, 0)

        bus.register(self.name)
        self.monitors: Dict[str, CellHealthMonitor] = {}
        for cell in cells:
            bus.register(cell.name)
            cell.notify = self._make_notifier(cell)
            # Each monitor sends under its own bus identity: same-instant
            # sends from two processes sharing a sender would race for
            # sequence numbers, and the mailbox merge key is
            # (sender, seq).
            self.monitors[cell.name] = CellHealthMonitor(
                env, bus, cell, on_transition=self._on_health_transition,
                monitor_name=f"monitor:{cell.name}")
        env.process(self._control_loop(), name="fed-control")
        env.process(self._reconcile_loop(), name="fed-reconcile")

    # -- plumbing ----------------------------------------------------------

    def _log(self, text: str) -> None:
        if self.audit is not None:
            self.audit(text)

    def _make_notifier(self, cell: Cell):
        def notify(intent_id: str, generation: int, cell_job: str,
                   status: str) -> None:
            # Runs cell-side when a cell job reaches a terminal status:
            # report back over the bus (one-way, merged at the
            # dispatcher's mailbox).
            self.bus.send(cell.name, self.name,
                          lambda: self._on_cell_terminal(
                              cell.name, intent_id, generation, cell_job,
                              status))
        return notify

    def _write_intent(self, intent: Intent, event: str) -> None:
        """Append the intent's current state durably (never awaited on
        the hot path except at submit; the buffered writer orders and
        retries)."""
        intent.history.append((self.env.now, event))
        self.intent_log.update(
            "intents", {"_id": intent.intent_id},
            {"state": intent.state, "generation": intent.generation,
             "cell": intent.cell, "cell_job": intent.cell_job,
             "event": event, "updated_at": self.env.now})

    # -- tenancy -----------------------------------------------------------

    def register_tenant(self, user: str, gpu_quota: int) -> None:
        self._quotas[user] = gpu_quota
        for cell in self.cells.values():
            cell.register_tenant(user)

    def quota_usage(self, user: str) -> int:
        return self._quota_used[user]

    def _admit(self, intent: Intent) -> None:
        """Admit a new (QUEUED) intent: it holds its tenant's GPUs until
        ``_set_state`` sees it reach a terminal state."""
        self._intents[intent.intent_id] = intent
        self._queued.add(intent.intent_id)
        self._quota_used[intent.manifest.user] += intent.demand

    def _set_state(self, intent: Intent, state: str) -> None:
        """The one place an accepted intent changes state, so the QUEUED
        set and the tenant's held GPUs cannot drift from it."""
        intent.state = state
        if state == INTENT_QUEUED:
            self._queued.add(intent.intent_id)
        else:
            self._queued.discard(intent.intent_id)
            if intent.terminal:
                self._quota_used[intent.manifest.user] -= intent.demand

    # -- submission --------------------------------------------------------

    def submit(self, manifest: JobManifest,
               preferred_zone: Optional[str] = None) -> Event:
        """Accept a federated job; resolves with the intent id once the
        intent is durable (or the log is in degraded buffering mode)."""
        return self.env.process(self._submit(manifest, preferred_zone),
                                name="fed-submit")

    def _submit(self, manifest: JobManifest,
                preferred_zone: Optional[str]):
        manifest.validate()
        user = manifest.user
        if user not in self._quotas:
            raise QuotaExceededError(f"unknown federation tenant {user!r}")
        if self.quota_usage(user) + manifest.total_gpus \
                > self._quotas[user]:
            self.counters["rejected_quota"] += 1
            raise QuotaExceededError(
                f"user {user!r} federation quota "
                f"{self._quotas[user]} GPUs exceeded")
        intent_id = f"fed-{next(self._intent_seq):06d}"
        intent = Intent(intent_id, manifest, preferred_zone, self.env.now)
        self._admit(intent)
        self.counters["submitted"] += 1
        write = self.intent_log.insert("intents", {
            "_id": intent_id,
            "user": user,
            "name": manifest.name,
            "gpus": manifest.total_gpus,
            "gpu_type": manifest.gpu_type,
            "preferred_zone": preferred_zone,
            "state": INTENT_QUEUED,
            "generation": 0,
            "cell": None,
            "cell_job": None,
            "submitted_at": self.env.now,
        })
        # Ack once durable — or once the log is degraded (buffered in
        # order, flushed on recovery: the graceful-degradation contract).
        yield self.env.any_of([write, self.intent_log.degraded_event()])
        self._log(f"accepted {intent_id} user={user} "
                  f"gpus={manifest.total_gpus} zone={preferred_zone}")
        self._kick_dispatch(intent_id)
        return intent_id

    # -- cell selection ----------------------------------------------------

    def _selectable(self, cell: Cell) -> bool:
        return (not cell.blacked_out
                and cell.breaker.state != "OPEN"
                and self.monitors[cell.name].state == HEALTHY)

    def _select_cell(self, intent: Intent) -> Optional[Cell]:
        candidates = []
        for name in sorted(self.cells):
            cell = self.cells[name]
            if not self._selectable(cell):
                continue
            if cell.spec.gpu_type != intent.manifest.gpu_type:
                continue
            free = cell.total_gpus - self._committed[name]
            if free < intent.demand:
                continue
            in_zone = (intent.preferred_zone is not None
                       and cell.zone == intent.preferred_zone)
            candidates.append((0 if in_zone else 1, -free, name, cell))
        if not candidates:
            return None
        candidates.sort(key=lambda entry: entry[:3])
        return candidates[0][3]

    # -- the control loop --------------------------------------------------

    def _kick_dispatch(self, intent_id: str) -> None:
        self._work.add(("dispatch", intent_id, "", ""))
        self._trigger()

    def _kick_fence(self, cell_name: str, cell_job: str,
                    reason: str = "fenced") -> None:
        if self.cells[cell_name].blacked_out:
            # Cannot reach the cell to kill the orphan now; fence it the
            # moment the cell comes back.
            self._fence_queue.append((cell_name, cell_job))
            return
        self._work.add(("fence", cell_name, cell_job, reason))
        self._trigger()

    def _trigger(self) -> None:
        if not self._wakeup.triggered:
            self._wakeup.succeed()

    def _control_loop(self):
        """The single process that issues every dispatcher-side bus
        message (cell submits and fencing preempts).  Work queued by any
        number of concurrently scheduled handlers drains here in sorted
        order, so sequence numbers — and with them the cells' mailbox
        merge order — are identical under every tie-break permutation."""
        while True:
            if not self._work:
                self._wakeup = self.env.event()
                yield self._wakeup
            # Settle the instant: collect every same-tick kick before
            # choosing an order.
            yield self.env.timeout(0.0, priority=OBSERVER)
            batch = sorted(self._work)
            self._work.clear()
            for kind, first, second, third in batch:
                if kind == "dispatch":
                    intent = self._intents.get(first)
                    if intent is not None \
                            and intent.state == INTENT_QUEUED:
                        yield from self._dispatch(intent)
                else:
                    yield from self._preempt_remote(first, second, third)

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, intent: Intent):
        cell = self._select_cell(intent)
        if cell is None:
            return  # stays QUEUED; the reconcile loop retries
        generation = intent.generation + 1
        intent.generation = generation
        self._set_state(intent, INTENT_DISPATCHING)
        intent.cell = cell.name
        intent.cell_job = None
        self._committed[cell.name] += intent.demand
        if intent.preferred_zone is not None \
                and cell.zone != intent.preferred_zone:
            self.counters["spillovers"] += 1
            self._log(f"spillover {intent.intent_id} -> {cell.name} "
                      f"(zone {cell.zone} != {intent.preferred_zone})")
        # The assignment is durable *before* the cell hears about it: a
        # dispatcher retry after this point knows which cell may hold an
        # orphan for this generation and can fence it.
        self._write_intent(intent, f"dispatching:{cell.name}:g{generation}")
        manifest = intent.manifest
        intent_id = intent.intent_id
        reply = self.bus.call(
            self.name, cell.name,
            lambda: cell.submit_and_watch(manifest, intent_id, generation))
        cutoff = self.env.timeout(self.SUBMIT_TIMEOUT_S, priority=OBSERVER)
        try:
            yield self.env.any_of([reply, cutoff])
        except ReproError as err:
            # Committed-GPU rule: whoever moves the intent off this
            # generation owns the release.  If the generation is still
            # ours, nobody else has — release and requeue; if it is
            # stale, the migration that bumped it already released.
            if intent.generation == generation:
                self._committed[cell.name] -= intent.demand
                self._set_state(intent, INTENT_QUEUED)
                intent.cell = None
                self._write_intent(
                    intent, f"dispatch-failed:{type(err).__name__}")
                self._log(f"dispatch {intent_id} to {cell.name} failed: "
                          f"{err}; requeued")
            return
        if not reply.triggered:
            # The cell never answered inside the window; a wedged cell
            # must not wedge the control loop.  Invalidate the
            # generation so any eventual outcome arrives stale, and if
            # the submit does land late, fence the orphan it created.
            if intent.generation == generation:
                intent.generation += 1
                self._committed[cell.name] -= intent.demand
                self._set_state(intent, INTENT_QUEUED)
                intent.cell = None
                self._write_intent(intent, f"dispatch-timeout:{cell.name}")
                self._log(f"dispatch {intent_id} to {cell.name} timed "
                          f"out; requeued")

            def fence_late(event) -> None:
                if event.ok:
                    self._kick_fence(cell.name, event.value)

            reply.callbacks.append(fence_late)
            return
        cell_job = reply.value
        if intent.generation != generation:
            # A migration raced the in-flight submit: the cell accepted a
            # job this intent no longer wants.  Fence it (the migration
            # already released our committed GPUs).
            self._log(f"stale dispatch {intent_id} g{generation} "
                      f"-> fencing {cell.name}/{cell_job}")
            self._kick_fence(cell.name, cell_job)
            return
        self._set_state(intent, INTENT_DISPATCHED)
        intent.cell_job = cell_job
        self.counters["dispatched"] += 1
        self._write_intent(intent, f"dispatched:{cell.name}:{cell_job}")
        self._log(f"dispatched {intent_id} -> {cell.name}/{cell_job} "
                  f"g{generation}")

    def _reconcile_loop(self):
        """Periodically re-kick QUEUED intents (capacity freed, cells
        recovered, breakers closed)."""
        while True:
            yield self.env.timeout(RECONCILE_INTERVAL_S)
            for intent_id in sorted(self._queued):
                self._kick_dispatch(intent_id)

    # -- cell outcomes -----------------------------------------------------

    def _on_cell_terminal(self, cell_name: str, intent_id: str,
                          generation: int, cell_job: str,
                          status: str) -> None:
        intent = self._intents.get(intent_id)
        if intent is None:
            return
        if generation != intent.generation or intent.terminal:
            # Stale outcome from a pre-migration generation (or a zombie
            # revived by a recovered cell that escaped fencing).
            self.counters["stale_notifications"] += 1
            if status == st.COMPLETED:
                intent.completions += 1
                if intent.completions > 1:
                    # The job's work ran to completion twice — exactly
                    # what fencing exists to prevent.
                    self.counters["double_executions"] += 1
                elif not intent.terminal:
                    # The old cell finished the work in the narrow
                    # window between the terminal status and the
                    # migration decision.  The work is done: accept it
                    # and cancel the re-dispatch instead of running the
                    # job a second time.
                    self._accept_stale_completion(intent, cell_name,
                                                  cell_job)
                    return
            self._log(f"stale outcome {intent_id} g{generation} "
                      f"{cell_name}/{cell_job}: {status} (now "
                      f"g{intent.generation}, {intent.state})")
            return
        self._committed[cell_name] -= intent.demand
        if status == st.COMPLETED:
            intent.completions += 1
            if intent.completions > 1:
                self.counters["double_executions"] += 1
            self._finish_completed(intent, cell_name, cell_job)
            return
        cell = self.cells[cell_name]
        if status == st.FAILED and self._selectable(cell):
            # The job itself failed on a healthy cell: a real failure,
            # not collateral of cell trouble.
            self._set_state(intent, st.FAILED)
            self.counters["failed"] += 1
            self._write_intent(intent, f"failed:{cell_name}")
            self._log(f"failed {intent_id} on {cell_name}/{cell_job}")
            return
        # HALTED (in-cell preemption) or FAILED on an unhealthy cell:
        # the cell job is gone but the intent still owes the user a run.
        self._set_state(intent, INTENT_QUEUED)
        intent.cell = None
        intent.cell_job = None
        self._write_intent(intent, f"requeued:{status}:{cell_name}")
        self._log(f"requeued {intent_id} after {status} on {cell_name}")
        self._kick_dispatch(intent_id)

    def _finish_completed(self, intent: Intent, cell_name: str,
                          cell_job: Optional[str]) -> None:
        self._set_state(intent, st.COMPLETED)
        self.counters["completed"] += 1
        self._write_intent(intent, f"completed:{cell_name}")
        self._log(f"completed {intent.intent_id} on "
                  f"{cell_name}/{cell_job}")

    def _accept_stale_completion(self, intent: Intent, cell_name: str,
                                 cell_job: str) -> None:
        """The old cell finished the job after migration had already
        re-queued it: take the completed work, abort the re-run."""
        replacement_cell = intent.cell
        replacement_job = intent.cell_job
        if replacement_cell is not None:
            # A replacement dispatch is assigned or in flight; release
            # its committed GPUs and make its generation stale so it
            # fences itself (DISPATCHING) or gets fenced here
            # (DISPATCHED).
            self._committed[replacement_cell] -= intent.demand
            intent.generation += 1
            if replacement_job is not None:
                self._kick_fence(replacement_cell, replacement_job)
        self._log(f"accepted stale completion {intent.intent_id} from "
                  f"{cell_name}/{cell_job}")
        self._finish_completed(intent, cell_name, cell_job)

    # -- migration and fencing ---------------------------------------------

    def _on_health_transition(self, cell: Cell, old: str,
                              new: str) -> None:
        self._log(f"health {cell.name}: {old} -> {new}")
        if new in (BLACKOUT, BROWNOUT):
            self.migrate_from(cell.name, reason=new)
        if old == BLACKOUT and new != BLACKOUT:
            # Leaving BLACKOUT means probes answer again — the cell is
            # reachable, so the queued orphans can be fenced now, before
            # the revived schedulers run them to a second completion.
            self._fence_recovered(cell)

    def migrate_from(self, cell_name: str, reason: str = "manual") -> None:
        """Drain every non-terminal intent off a cell (also the manual
        drain entry point).  The bookkeeping — generation bumps, state,
        accounting — happens synchronously, so by the time this returns
        every outcome the old cell might still report is already stale;
        the preempts and re-dispatches drain through the control loop.
        Idempotent: re-running it when nothing is assigned is a no-op."""
        cell = self.cells[cell_name]
        assigned = sorted(
            intent_id for intent_id, intent in self._intents.items()
            if intent.cell == cell.name and not intent.terminal)
        if not assigned:
            return
        self._log(f"migrating {len(assigned)} intents off {cell.name} "
                  f"({reason})")
        for intent_id in assigned:
            intent = self._intents[intent_id]
            old_job = intent.cell_job
            # Invalidate the old generation FIRST: any outcome the old
            # cell reports from here on arrives stale.
            intent.generation += 1
            self._set_state(intent, INTENT_QUEUED)
            intent.cell = None
            intent.cell_job = None
            intent.migrations += 1
            self._committed[cell.name] -= intent.demand
            self.counters["migrations"] += 1
            self._write_intent(intent, f"migrating:{reason}:{cell.name}")
            if old_job is not None:
                self._kick_fence(cell.name, old_job, "migrated")
            self._kick_dispatch(intent_id)

    def _fence_recovered(self, cell: Cell) -> None:
        """Kill the orphan cell jobs a blacked-out cell would otherwise
        revive and run to (a second) completion after recovery."""
        pending = sorted(set(
            (name, job) for name, job in self._fence_queue
            if name == cell.name))
        self._fence_queue = [(name, job) for name, job in self._fence_queue
                             if name != cell.name]
        for cell_name, cell_job in pending:
            self._kick_fence(cell_name, cell_job)

    def _preempt_remote(self, cell_name: str, cell_job: str,
                        reason: str):
        cell = self.cells[cell_name]
        try:
            yield self.bus.call(
                self.name, cell_name,
                lambda: cell.preempt(cell_job, reason=reason))
        except ReproError as err:
            # The cell went dark mid-preempt: fence on recovery instead.
            self._log(f"preempt {cell_name}/{cell_job} failed ({err}); "
                      f"deferred to recovery fencing")
            self._fence_queue.append((cell_name, cell_job))
            return
        self.counters["fenced"] += 1
        self._log(f"{reason} {cell_name}/{cell_job}")

    # -- shutdown / verification ------------------------------------------

    def close(self) -> Event:
        """Stop monitors and drain the intent log (nothing buffered is
        dropped — the shutdown contract the tests pin)."""
        for monitor in self.monitors.values():
            monitor.stop()
        return self.intent_log.close()

    def intents(self) -> List[Intent]:
        return [self._intents[i] for i in sorted(self._intents)]

    def lost_intents(self) -> List[str]:
        """Accepted intents that are neither durable in MongoDB nor
        buffered in the intent log — must always be empty (the zero-
        lost-records property the chaos hypotheses pin)."""
        collection = self.mongo.collection("intents")
        buffered = set(self.intent_log.pending_ids("intents"))
        return [intent_id for intent_id in sorted(self._intents)
                if collection.find_one({"_id": intent_id}) is None
                and intent_id not in buffered]

    def end_state(self) -> Dict[str, object]:
        """Deterministic end-state witness for --check-determinism."""
        return {
            "intents": [(i.intent_id, i.state, i.generation, i.cell,
                         i.cell_job, i.migrations, i.completions)
                        for i in self.intents()],
            "counters": dict(sorted(self.counters.items())),
            "committed": dict(sorted(self._committed.items())),
        }
