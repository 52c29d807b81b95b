"""Discrete-event simulation kernel.

All substrates (Raft, etcd, Kubernetes, object storage) and the FfDL control
plane run as cooperating processes on this kernel, so month-long cluster
experiments replay deterministically in seconds of wall-clock time.

The API is deliberately close to SimPy's: an :class:`Environment` owns a
priority queue of events; a :class:`Process` wraps a generator that yields
events (:class:`Timeout`, other processes, :class:`AnyOf`, ...) and is resumed
when they fire.  Processes can be interrupted, which is how crash injection
is modelled.
"""

from __future__ import annotations

import gc
import itertools
from heapq import heappop, heappush
from math import inf
from opcode import opmap
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

#: Sentinel priority classes: urgent events (process resumption) fire before
#: normal events scheduled at the same timestamp; observer events fire after
#: every urgent/normal event of the same timestamp has settled, so pollers
#: that sample state (rather than drive it) observe a tick's final state
#: regardless of tie-breaking.
URGENT = 0
NORMAL = 1
OBSERVER = 2

#: The collector's thresholds while the event loop runs, each raised to
#: at least this and never lowered.  What the loop allocates is freed by
#: reference counting (a finished process leaves no cycle), so at the
#: default gen-0 threshold of 700 a collection would run every few
#: events only to re-traverse live objects (DESIGN.md, "What the
#: collector costs").
DISPATCH_GC_THRESHOLD = (50_000, 20, 10)


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that callbacks (usually processes) wait on."""

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered",
                 "_scheduled", "_processed", "_clock")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._scheduled = False
        self._processed = False
        #: ``(epoch, VectorClock)`` snapshot stamped at trigger time when
        #: a :class:`repro.sim.race.RaceDetector` is attached; else None.
        self._clock = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful and schedule its callbacks."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.env._schedule_event(self, URGENT, self.env._now)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event failed; waiters will see the exception raised."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule_event(self, URGENT, self.env._now)
        return self


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    ``priority`` defaults to :data:`NORMAL`; pass :data:`OBSERVER` for
    polling loops that must observe a timestamp's settled state.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 priority: int = NORMAL):
        if not delay >= 0:  # also catches NaN, which would stall run()
            raise SimulationError(f"negative timeout delay: {delay}")
        # Every Event slot, filled directly (a timeout is born triggered
        # and carries its value): this is the hottest constructor.  Keep
        # in step with Event.__init__.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._scheduled = False
        self._processed = False
        self._clock = None
        self.delay = delay
        env._schedule_event(self, priority, env._now + delay)


class _Condition(Event):
    """Base for AnyOf / AllOf composite events; each defines ``_done``."""

    __slots__ = ("events", "_n_fired")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._n_fired = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev._processed and self._fire(ev):
                return  # triggered before anything was attached
        fire = self._on_fire
        for ev in self.events:
            if not ev._processed:
                ev.callbacks.append(fire)

    def _fire(self, ev: Event) -> bool:
        """Count ``ev`` and trigger if it decides the condition; True
        once triggered."""
        if not ev.ok:
            self.fail(ev.value)
            return True
        self._n_fired += 1
        if self._done():
            self.succeed(self._collect())
            return True
        return False

    def _on_fire(self, ev: Event) -> None:
        if self._triggered or not self._fire(ev):
            return
        # Triggered: ``_on_fire`` would now return at once, so leaving it
        # on the constituents still pending would only keep this
        # condition, and its value, alive as long as they are -- and a
        # writer's ``degraded_event()`` may never fire (DESIGN.md, "What
        # each store and log keeps").  Each pending occurrence of an
        # event in ``events`` holds exactly one entry.
        fire = self._on_fire
        for other in self.events:
            if not other._processed:
                other.callbacks.remove(fire)

    def _collect(self) -> dict:
        return {ev: ev.value for ev in self.events if ev.triggered and ev.ok}


class AnyOf(_Condition):
    """Fires when any constituent event fires."""

    __slots__ = ()

    def _done(self) -> bool:
        return self._n_fired >= 1


class AllOf(_Condition):
    """Fires when all constituent events have fired."""

    __slots__ = ()

    def _done(self) -> bool:
        return self._n_fired == len(self.events)


class Process(Event):
    """Drives a generator; the process *is* an event firing at termination."""

    __slots__ = ("generator", "name", "pid", "_target", "_interrupts")

    def __init__(self, env: "Environment", generator: Generator,
                 name: str = "process"):
        if not hasattr(generator, "send"):
            raise SimulationError("Process requires a generator")
        super().__init__(env)
        self.generator = generator
        self.name = name
        self.pid = next(env._pids)
        self._target: Optional[Event] = None
        self._interrupts: list[Interrupt] = []
        init = Event(env)
        init.callbacks.append(self._resume)
        init.succeed()

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            return
        self._interrupts.append(Interrupt(cause))
        # Detach from whatever it was waiting on and resume immediately.
        wake = Event(self.env)
        wake.callbacks.append(self._resume)
        wake.succeed()

    def _resume(self, event: Event) -> None:
        if self._triggered:
            return
        if self._target is not None and event is not self._target \
                and not self._interrupts:
            # Stale wakeup (e.g. the event we abandoned on interrupt fires).
            return
        env = self.env
        if env.race_detector is not None:
            # Receive edge: the waker's clock happened-before this run.
            env.race_detector.on_receive(self, event)
        env._active_process = self
        carried = None
        try:
            while True:
                if self._interrupts:
                    thrown: BaseException = self._interrupts.pop(0)
                    self._target = None
                    target = self.generator.throw(thrown)
                elif event is not None and not event.ok:
                    thrown = event.value
                    carried = thrown.__traceback__
                    event = None
                    self._target = None
                    target = self.generator.throw(thrown)
                else:
                    value = event.value if event is not None else None
                    event = None
                    self._target = None
                    target = self.generator.send(value)
                if not isinstance(target, Event):
                    raise SimulationError(
                        f"process {self.name!r} yielded non-event {target!r}")
                if target._processed:
                    # Callbacks already ran: loop immediately with its value.
                    event = target
                    continue
                self._target = target
                target.callbacks.append(self._resume)
                return
        except StopIteration as stop:
            self.succeed(stop.value)
        except Interrupt as intr:  # staticcheck: ignore[SAF001] kernel edge
            # Interrupt escaped the generator: treat as normal termination.
            # This is the one place an Interrupt may stop propagating — the
            # process it targeted no longer exists past this point.
            self.succeed(intr.cause)
        except BaseException as err:  # noqa: BLE001 - propagate via event
            # The traceback starts at this frame, still running; its
            # ``f_back`` would keep the event loop's frame, and whatever
            # that frame last held, alive with the exception.
            err.__traceback__ = err.__traceback__.tb_next
            _clear_unwound(err.__traceback__, carried)
            self.fail(err)
        finally:
            env._active_process = None
            # An exception that left the generator holds this frame in
            # its traceback; with every local cleared the frame holds
            # neither the exception nor this process, so reference
            # counting frees both (DESIGN.md, "What the collector costs").
            self = event = thrown = value = target = carried = None


_RAISE = opmap["RAISE_VARARGS"]


def _clear_unwound(tb, carried) -> None:
    """Drop the locals of the frames an exception unwound on its way out
    of a process, keeping their file and line numbers for printing: a
    failed process keeps its exception as its value, and a generator
    frame's locals would reach the object that owns the process.

    ``tb`` starts at the process's generator frame.  The walk stops at
    ``carried`` (the traceback a failed event's exception brought along)
    and after a ``raise`` statement: past either lie frames of the
    exception's earlier life, where a generator may have caught it and
    still be suspended, and clearing a suspended generator's frame
    closes the generator (the bus's mailbox loop replies with the
    exceptions it catches).
    """
    while tb is not None and tb is not carried:
        frame = tb.tb_frame
        frame.clear()
        if frame.f_code.co_code[tb.tb_lasti] == _RAISE:
            return
        tb = tb.tb_next


class Environment:
    """The event queue and simulated clock.

    **Ordering contract**: events fire in ascending ``(time, priority,
    seq)`` order, where ``seq`` is a per-environment monotone counter
    assigned at scheduling time.  Nothing beyond that triple orders the
    queue — in particular, callers must never rely on object identity
    or hash order.  The ``seq`` component exists to make same-``(time,
    priority)`` ties *explicit and auditable*: with the default
    ``tiebreak_seed=0`` ties break in scheduling order (FIFO), and any
    other seed pushes ``seq`` through a seeded bijective mixer
    (xor-salt, odd multiply, xorshift — each step invertible on the
    61-bit ring) so that a perturbed run explores a different — but
    equally legal — interleaving of every tie.  A simulation whose
    observable results change under a perturbed seed depends on
    tie-breaking, which is a modelling bug; ``repro.chaos`` uses
    exactly this to assert schedule-independence (see ``--perturb``).

    **One queue.**  The queue is a plain binary heap of ``(time,
    priority, seq, event)`` tuples: scheduling is one ``heappush``,
    dispatch one ``heappop``, and :meth:`run`,
    :meth:`run_until_complete` and :meth:`step` are the same loop.
    Every scheduled event is either still queued or already fired, so
    ``events_scheduled == events_processed + len(_queue)`` always.
    """

    #: Permuted sequence numbers live in [0, 2**61).
    _SEQ_MODULUS = 2 ** 61
    _SEQ_MASK = _SEQ_MODULUS - 1

    def __init__(self, initial_time: float = 0.0,
                 tiebreak_seed: int = 0):
        if tiebreak_seed < 0:
            raise SimulationError("tiebreak_seed must be >= 0")
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._active_process: Optional[Process] = None
        self.tiebreak_seed = tiebreak_seed
        self._seq_salt = (tiebreak_seed * 0x9E3779B97F4A7C15) \
            & self._SEQ_MASK
        #: With the default seed the mixer is the identity; skip the
        #: call entirely on the scheduling hot path.
        self._seq_identity = tiebreak_seed == 0
        self._pids = itertools.count(1)
        #: Attached repro.sim.race.RaceDetector, or None (the fast path).
        self.race_detector = None
        #: Attached repro.perf.profiler.KernelProfiler, or None.
        self._profiler = None
        #: Kernel ops counters: always on (one integer increment each
        #: per event) and deterministic.
        self.events_scheduled = 0
        self.events_processed = 0
        #: label -> substrate; see :meth:`register_shared_store`.
        self.shared_stores: dict[str, object] = {}
        #: The chains now running as arithmetic, in start order, each
        #: mapped to the object it runs over.
        self.chains: dict[Any, Any] = {}

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    @property
    def heap_pushes(self) -> int:
        """Heap pushes so far: exactly one per scheduled event."""
        return self.events_scheduled

    def register_shared_store(self, name: str, store: object) -> str:
        """Register a shared substrate under a unique label.

        Substrates (etcd stores, the kube object store, mongo
        databases) call this at construction; the returned label is
        what they pass to :func:`repro.sim.race.note_read` /
        ``note_write`` so the race detector can attribute accesses.
        """
        label = name
        suffix = 2
        while label in self.shared_stores:
            label = f"{name}#{suffix}"
            suffix += 1
        self.shared_stores[label] = store
        return label

    def settle(self) -> None:
        """Apply each chain's steps strictly before now, so a report, a
        counter or an RNG position reads what the event form would
        (DESIGN.md, "Arithmetic until something could change it")."""
        for chain in self.chains:
            chain.settle(self._now)

    # -- scheduling ---------------------------------------------------------

    def _permute_seq(self, seq: int) -> int:
        """Seeded bijection on [0, 2**61), for a non-zero seed only
        (with seed 0 the caller skips the call: the identity).

        Every step (xor with a constant, multiplication by an odd
        number, xorshift-right) is invertible modulo 2**61, so distinct
        raw sequence numbers always map to distinct permuted ones and
        the heap order stays total.
        """
        mask = self._SEQ_MASK
        seq = (seq ^ self._seq_salt) & mask
        seq = (seq * 0x9E3779B97F4A7C15) & mask
        seq ^= seq >> 31
        seq = (seq * 0xBF58476D1CE4E5B9) & mask
        seq ^= seq >> 29
        return seq

    def _schedule_event(self, event: Event, priority: int, when: float) -> None:
        if event._scheduled:
            raise SimulationError("event already scheduled")
        event._scheduled = True
        seq = next(self._counter)
        if not self._seq_identity:
            seq = self._permute_seq(seq)
        if self.race_detector is not None:
            # Send edge: stamp the event with the sender's clock.
            self.race_detector.on_send(event)
        self.events_scheduled += 1
        heappush(self._queue, (when, priority, seq, event))
        if self._profiler is not None:
            # After the push: the profiler reads depth off the queue.
            self._profiler.on_schedule(event)

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                priority: int = NORMAL) -> Timeout:
        return Timeout(self, delay, value, priority=priority)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """A ``NORMAL`` :class:`Timeout` firing at exactly the absolute
        instant ``when`` - for a caller that computed the instant by its
        own float arithmetic (the end of a run of timed actions, see
        DESIGN.md): ``now + (when - now) == when`` only while
        ``when <= 2 * now``."""
        if not when >= self._now:
            raise SimulationError(f"timeout_at({when}): now is {self._now}")
        timer = Timeout.__new__(Timeout)
        Event.__init__(timer, self)
        timer._triggered = True
        timer._value = value
        timer.delay = when - self._now
        self._schedule_event(timer, NORMAL, when)
        return timer

    def process(self, generator: Generator, name: str = "process") -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- execution ----------------------------------------------------------

    def _dispatch(self, until: float, stop: Optional[Event] = None,
                  once: bool = False) -> None:
        """The one event loop: fire queued events in ``(time, priority,
        seq)`` order while the next one is due by ``until`` and ``stop``
        (if given) has not triggered; ``once`` returns after one."""
        saved = gc.get_threshold()
        if saved[0]:  # 0: the caller turned automatic collection off
            gc.set_threshold(*map(max, saved, DISPATCH_GC_THRESHOLD))
        queue = self._queue
        try:
            while queue and queue[0][0] <= until \
                    and (stop is None or not stop._triggered):
                when, _prio, _seq, event = heappop(queue)
                if when > self._now:
                    self._now = when
                elif when < self._now - 1e-12:
                    raise SimulationError("time went backwards")
                event._processed = True
                # A processed event never receives new callbacks (every
                # waiter checks _processed first); the fresh list only
                # keeps a late append harmless.
                callbacks, event.callbacks = event.callbacks, []
                self.events_processed += 1
                if self.race_detector is not None \
                        or self._profiler is not None:
                    self._step_instrumented(event, callbacks)
                else:
                    for callback in callbacks:
                        callback(event)
                if once:
                    return
        finally:
            gc.set_threshold(*saved)

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise SimulationError("no more events")
        self._dispatch(inf, once=True)

    def _step_instrumented(self, event: Event, callbacks: list) -> None:
        """The step callback loop with race/profiler hooks engaged."""
        detector = self.race_detector
        profiler = self._profiler
        if detector is not None:
            # Callbacks run on behalf of this event; anything they
            # trigger inherits its clock (fan-in/fan-out HB edges).
            detector.on_step(event)
        try:
            if profiler is not None:
                for callback in callbacks:
                    before = self.events_scheduled
                    callback(event)
                    profiler.on_callback(
                        callback, self.events_scheduled - before)
            else:
                for callback in callbacks:
                    callback(event)
        finally:
            if detector is not None:
                detector.on_step(None)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock passes ``until``."""
        if until is None:
            self._dispatch(inf)
            return
        if until < self._now:
            raise SimulationError(
                f"until={until} is in the past (now={self._now})")
        self._dispatch(until)
        self._now = until

    def run_until_complete(self, process: Process,
                           limit: float = 10**12) -> Any:
        """Run until ``process`` terminates; return its value or raise.

        Returns as soon as the process has *triggered*: its own
        termination event is still queued, so its waiters have not run
        yet (they do on the next :meth:`run`).
        """
        self._dispatch(limit, stop=process)
        if not process.triggered:
            if not self._queue:
                raise SimulationError(
                    f"deadlock: process {process.name!r} cannot complete")
            raise SimulationError(
                f"process {process.name!r} did not finish by t={limit}")
        if not process.ok:
            raise process.value
        return process.value
