"""Runtime schedule-sensitivity ("race") detection for the sim kernel.

The static layer (``repro.staticcheck``) reasons about one function at a
time; this module watches a *live* simulation.  The memory model is the
one DESIGN.md documents: processes are cooperatively scheduled and
**yields are the only preemption points**, so a data race in the OS
sense cannot happen — what can happen is *schedule sensitivity*: two
events at the same simulated timestamp whose relative order the kernel
is free to choose, both touching the same shared-store key, at least
one writing.  Such a pair makes the experiment's outcome depend on heap
tie-breaking rather than on modelled causality, which is exactly what
the determinism contract forbids.

Happens-before is tracked with per-process logical vector clocks:

* each :class:`~repro.sim.core.Process` (plus the synthetic ``main``
  actor, pid 0, for code running outside the event loop) owns a clock;
* triggering an event stamps it with the sender's clock (send edge);
* a process resuming on an event merges the event's clock (receive
  edge);
* callbacks running outside any process are one actor per firing
  event: they carry the event's clock if it was triggered at this
  instant (condition fan-in, watch fan-out) and a fresh one if it was
  scheduled earlier (a timeout callback, e.g. a Raft delivery applying
  etcd writes), as a process woken by that timeout would.

Two same-timestamp accesses to the same ``(store, key)`` by different
actors conflict when at least one is a write and neither clock is ≤ the
other.  Substrates (etcd stores, the Kubernetes object store, MongoDB
collections) register themselves with
:meth:`~repro.sim.core.Environment.register_shared_store` and report
accesses through :func:`note_read` / :func:`note_write`; with no
detector attached both are near-free no-ops.

Clocks are scoped to one simulated instant ("epoch") and reset when
time advances.  This is sound, not an approximation: only
same-timestamp accesses are ever compared, and a causal chain between
two accesses at time *t* can only pass through events that also fire
at *t* (an event scheduled with positive delay fires in the future and
causality cannot come back).  Scoping bounds each clock to the actors
active within a single tick, keeping the detector's overhead linear in
the number of events rather than quadratic in the process count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Environment, Event, Process

READ = "read"
WRITE = "write"

#: pid of the synthetic actor for code running outside the event loop.
MAIN_PID = 0
MAIN_NAME = "main"
#: Callbacks run outside any process: one actor (negative pid) per event.
CALLBACK_NAME = "callback"


class VectorClock:
    """A logical clock: pid -> count of local events observed."""

    __slots__ = ("_counts",)

    def __init__(self, counts: Optional[Dict[int, int]] = None):
        self._counts: Dict[int, int] = dict(counts or {})

    def tick(self, pid: int) -> None:
        self._counts[pid] = self._counts.get(pid, 0) + 1

    def merge(self, other: "VectorClock") -> None:
        for pid, count in other._counts.items():
            if count > self._counts.get(pid, 0):
                self._counts[pid] = count

    def copy(self) -> "VectorClock":
        return VectorClock(self._counts)

    def __le__(self, other: "VectorClock") -> bool:
        return all(count <= other._counts.get(pid, 0)
                   for pid, count in self._counts.items())

    def concurrent_with(self, other: "VectorClock") -> bool:
        return not (self <= other) and not (other <= self)


@dataclass(frozen=True)
class Access:
    """One recorded shared-store access."""

    store: str
    key: str
    kind: str  # READ or WRITE
    pid: int
    actor: str  # process name, "callback", or "main"
    site: str  # code location label, e.g. "EtcdStore.put"
    time: float
    clock: VectorClock


@dataclass(frozen=True)
class RaceReport:
    """Two unordered same-tick accesses, at least one a write."""

    store: str
    key: str
    time: float
    first: Access
    second: Access

    def render(self) -> str:
        return (f"schedule-sensitive conflict on "
                f"{self.store}[{self.key!r}] at t={self.time:g}: "
                f"{self.first.kind} by {self.first.actor!r} at "
                f"{self.first.site} vs {self.second.kind} by "
                f"{self.second.actor!r} at {self.second.site} "
                f"(no happens-before edge)")


class RaceError(AssertionError):
    """Raised by :meth:`RaceDetector.assert_race_free`."""


class RaceDetector:
    """Attachable vector-clock conflict monitor for one environment.

    Construction attaches the detector (``env.race_detector = self``);
    from then on the kernel maintains the clocks and registered
    substrates report their accesses.  Detach with :meth:`detach` to
    stop paying the bookkeeping cost mid-run.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self.races: List[RaceReport] = []
        #: Clocks for the current epoch only (see the module docstring).
        self._clocks: Dict[int, VectorClock] = {}
        self._epoch = 0
        self._epoch_time: Optional[float] = None
        self._current_event: Optional["Event"] = None
        #: pid of the current event's callbacks, allocated on first use.
        self._callback_pids = itertools.count(-1, -1)
        self._callback_pid: Optional[int] = None
        #: (store, key) -> same-timestamp access history.
        self._history: Dict[Tuple[str, str], List[Access]] = {}
        self._seen_pairs: Set[tuple] = set()
        env.race_detector = self

    def detach(self) -> None:
        if self.env.race_detector is self:
            self.env.race_detector = None

    # -- kernel hooks (called only while attached) ---------------------------

    def _roll_epoch(self) -> None:
        """Start a fresh clock epoch whenever simulated time advances."""
        now = self.env.now
        if now != self._epoch_time:
            self._epoch_time = now
            self._epoch += 1
            self._clocks = {}

    def _clock_of(self, pid: int) -> VectorClock:
        clock = self._clocks.get(pid)
        if clock is None:
            clock = self._clocks[pid] = VectorClock()
        return clock

    def _event_clock(self, event: Optional["Event"]) -> \
            Optional[VectorClock]:
        """The event's stamped clock, if it is from the current epoch."""
        if event is None or event._clock is None:
            return None
        epoch, clock = event._clock
        return clock if epoch == self._epoch else None

    def _actor(self) -> Tuple[int, str, VectorClock, bool]:
        """(pid, name, clock, owns_clock) of whoever is running now."""
        proc = self.env.active_process
        if proc is not None:
            return proc.pid, proc.name, self._clock_of(proc.pid), True
        event = self._current_event
        if event is None:
            return MAIN_PID, MAIN_NAME, self._clock_of(MAIN_PID), True
        if self._callback_pid is None:
            self._callback_pid = next(self._callback_pids)
        pid = self._callback_pid
        inherited = self._event_clock(event)
        if inherited is not None:
            return pid, CALLBACK_NAME, inherited, False
        # Scheduled at an earlier instant: nothing at this one
        # happened-before the callback, so it starts a clock of its own.
        clock = self._clocks.get(pid)
        if clock is None:
            clock = self._clocks[pid] = VectorClock({pid: 1})
        return pid, CALLBACK_NAME, clock, True

    def on_send(self, event: "Event") -> None:
        """An event was triggered: stamp it with the sender's clock."""
        self._roll_epoch()
        pid, _name, clock, owns_clock = self._actor()
        if owns_clock:
            clock.tick(pid)
        event._clock = (self._epoch, clock.copy())

    def on_step(self, event: Optional["Event"]) -> None:
        """The kernel is about to run (or just finished) callbacks."""
        self._current_event = event
        self._callback_pid = None

    def on_receive(self, process: "Process", event: "Event") -> None:
        """A process resumes on ``event``: merge its clock (HB edge)."""
        self._roll_epoch()
        clock = self._clock_of(process.pid)
        inherited = self._event_clock(event)
        if inherited is not None:
            clock.merge(inherited)
        clock.tick(process.pid)

    # -- access recording ----------------------------------------------------

    def record_read(self, store: str, key: str, site: str) -> None:
        self._record(READ, store, key, site)

    def record_write(self, store: str, key: str, site: str) -> None:
        self._record(WRITE, store, key, site)

    def _record(self, kind: str, store: str, key: str, site: str) -> None:
        self._roll_epoch()
        pid, actor, clock, _owns_clock = self._actor()
        now = self.env.now
        access = Access(store, key, kind, pid, actor, site, now,
                        clock.copy())
        bucket = self._history.setdefault((store, key), [])
        if bucket and bucket[0].time != now:
            # Accesses from earlier timestamps can no longer be reordered
            # against this one; drop them so memory stays bounded.
            bucket.clear()
        for prior in bucket:
            if prior.pid == pid:
                continue
            if prior.kind == READ and kind == READ:
                continue
            if not prior.clock.concurrent_with(access.clock):
                continue
            pair_key = (store, key, prior.actor, prior.site,
                        actor, site)
            if pair_key in self._seen_pairs:
                continue
            self._seen_pairs.add(pair_key)
            self.races.append(
                RaceReport(store, key, now, prior, access))
        bucket.append(access)

    # -- reporting -----------------------------------------------------------

    @property
    def stores(self) -> Dict[str, object]:
        """The shared stores registered with this environment."""
        return dict(self.env.shared_stores)

    def render(self) -> List[str]:
        return [race.render() for race in self.races]

    def assert_race_free(self) -> None:
        if self.races:
            raise RaceError(
                "schedule-sensitive conflicts detected:\n"
                + "\n".join(self.render()))


def note_read(env: Optional["Environment"], store: str, key: str,
              site: str) -> None:
    """Report a read if ``env`` has a detector attached (cheap no-op)."""
    if env is not None and env.race_detector is not None:
        env.race_detector.record_read(store, key, site)


def note_write(env: Optional["Environment"], store: str, key: str,
               site: str) -> None:
    """Report a write if ``env`` has a detector attached (cheap no-op)."""
    if env is not None and env.race_detector is not None:
        env.race_detector.record_write(store, key, site)
