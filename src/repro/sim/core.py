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

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError
from repro.perf.flags import optimizations_enabled

#: Sentinel priority classes: urgent events (process resumption) fire before
#: normal events scheduled at the same timestamp; observer events fire after
#: every urgent/normal event of the same timestamp has settled, so pollers
#: that sample state (rather than drive it) observe a tick's final state
#: regardless of tie-breaking.
URGENT = 0
NORMAL = 1
OBSERVER = 2


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
        # Callback lists are the kernel's highest-frequency allocation;
        # recycle processed events' (cleared) lists through a small
        # per-environment pool instead of allocating fresh ones.
        pool = env._cb_pool
        self.callbacks: list[Callable[["Event"], None]] = \
            pool.pop() if pool else []
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
        self.env._schedule_event(self, URGENT, 0.0)
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
        self.env._schedule_event(self, URGENT, 0.0)
        return self


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    ``priority`` defaults to :data:`NORMAL`; pass :data:`OBSERVER` for
    polling loops that must observe a timestamp's settled state.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 priority: int = NORMAL):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._triggered = True
        self._value = value
        env._schedule_event(self, priority, delay)


class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("events", "_n_fired")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._n_fired = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev._processed:
                self._on_fire(ev)
            else:
                ev.callbacks.append(self._on_fire)

    def _on_fire(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._n_fired += 1
        if self._done():
            self.succeed(self._collect())

    def _done(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

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
        if self.env.race_detector is not None:
            # Receive edge: the waker's clock happened-before this run.
            self.env.race_detector.on_receive(self, event)
        self.env._active_process = self
        try:
            while True:
                if self._interrupts:
                    exc: BaseException = self._interrupts.pop(0)
                    self._target = None
                    target = self.generator.throw(exc)
                elif event is not None and not event.ok:
                    err = event.value
                    event = None
                    self._target = None
                    target = self.generator.throw(err)
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
            self.fail(err)
        finally:
            self.env._active_process = None


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

    **Timer wheel (flag-gated fast path).**  Settle-then-drain patterns
    (the federation bus, barrier rounds, submission bursts) schedule
    hundreds of events at the *same* ``(time, priority)`` instant, so
    the main heap degenerates into K pushes of log N for one burst.
    The optimized queue is a *heap of buckets*: the outer heap holds
    one entry per distinct ``(time, priority)`` key, and each bucket
    is an inner heap of ``(seq, event)`` pairs.  A burst of K
    same-instant events costs one outer push plus K cheap inner pushes
    over a K-sized bucket.  Ordering is unchanged: the outer heap
    yields the minimal ``(time, priority)`` and the bucket heap yields
    its minimal ``seq`` — together exactly the global ``(time,
    priority, seq)`` order, mixer included (permuted ``seq`` values
    land in the same bucket and the inner heap sorts them).
    ``heap_pushes`` counts outer-heap pushes — the BENCH_kernel metric
    the wheel shrinks; under ``REPRO_PERF_DISABLE`` every event is its
    own outer entry and ``heap_pushes == events_scheduled``.
    """

    #: Permuted sequence numbers live in [0, 2**61).
    _SEQ_MODULUS = 2 ** 61
    _SEQ_MASK = _SEQ_MODULUS - 1

    #: Recycled callback lists kept per environment (see Event.__init__).
    _CB_POOL_CAP = 512

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
        #: Kernel ops counters: always on (two integer increments per
        #: event), deterministic, and the basis of BENCH_kernel.json.
        self.events_scheduled = 0
        self.events_processed = 0
        #: Outer-heap pushes; with the timer wheel on, same-instant
        #: bursts share one outer entry so this falls below
        #: ``events_scheduled``.
        self.heap_pushes = 0
        #: Scheduled-but-not-yet-processed events.  With the wheel on,
        #: ``len(_queue)`` counts buckets, so the profiler's peak-heap
        #: statistic reads this mode-independent counter instead.
        self._pending = 0
        #: (time, priority) -> bucket (inner heap of (seq, event));
        #: None when REPRO_PERF_DISABLE is set (plain one-event-per-
        #: entry heap).
        self._buckets: Optional[dict] = \
            {} if optimizations_enabled() else None
        #: Callback-list free pool; None when REPRO_PERF_DISABLE is set
        #: (Event.__init__ then always allocates fresh lists).
        self._cb_pool: Optional[list] = \
            [] if optimizations_enabled() else None
        #: label -> substrate; see :meth:`register_shared_store`.
        self.shared_stores: dict[str, object] = {}

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

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

    # -- scheduling ---------------------------------------------------------

    def _permute_seq(self, seq: int) -> int:
        """Seeded bijection on [0, 2**61); identity when the seed is 0.

        Every step (xor with a constant, multiplication by an odd
        number, xorshift-right) is invertible modulo 2**61, so distinct
        raw sequence numbers always map to distinct permuted ones and
        the heap order stays total.
        """
        if self.tiebreak_seed == 0:
            return seq
        mask = self._SEQ_MASK
        seq = (seq ^ self._seq_salt) & mask
        seq = (seq * 0x9E3779B97F4A7C15) & mask
        seq ^= seq >> 31
        seq = (seq * 0xBF58476D1CE4E5B9) & mask
        seq ^= seq >> 29
        return seq

    def _schedule_event(self, event: Event, priority: int, delay: float) -> None:
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
        self._pending += 1
        if self._profiler is not None:
            self._profiler.on_schedule(event)
        when = self._now + delay
        buckets = self._buckets
        if buckets is None:
            self.heap_pushes += 1
            heapq.heappush(self._queue, (when, priority, seq, event))
            return
        key = (when, priority)
        bucket = buckets.get(key)
        if bucket is None:
            # First event at this instant: open the bucket and push one
            # outer entry carrying it.  Later same-instant arrivals
            # join the bucket without touching the outer heap.
            buckets[key] = [(seq, event)]
            self.heap_pushes += 1
            heapq.heappush(self._queue, (when, priority, seq, buckets[key]))
        else:
            heapq.heappush(bucket, (seq, event))

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                priority: int = NORMAL) -> Timeout:
        return Timeout(self, delay, value, priority=priority)

    def process(self, generator: Generator, name: str = "process") -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- execution ----------------------------------------------------------

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise SimulationError("no more events")
        if self._buckets is None:
            when, _prio, _seq, event = heapq.heappop(self._queue)
        else:
            # The top outer entry's bucket holds every event at the
            # minimal (time, priority); its inner heap yields the
            # smallest seq — the exact (time, priority, seq) order.
            when, prio, _seq, bucket = self._queue[0]
            event = heapq.heappop(bucket)[1]
            if not bucket:
                heapq.heappop(self._queue)
                del self._buckets[(when, prio)]
        if when < self._now - 1e-12:
            raise SimulationError("time went backwards")
        self._now = max(self._now, when)
        self._pending -= 1
        event._processed = True
        callbacks, event.callbacks = event.callbacks, []
        self.events_processed += 1
        if self.race_detector is not None or self._profiler is not None:
            self._step_instrumented(event, callbacks)
        else:
            for callback in callbacks:
                callback(event)
        # A processed event never receives new callbacks (every waiter
        # checks _processed first), so its drained list can be reused.
        pool = self._cb_pool
        if pool is not None and len(pool) < self._CB_POOL_CAP:
            callbacks.clear()
            pool.append(callbacks)

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
        if until is not None and until < self._now:
            raise SimulationError(
                f"until={until} is in the past (now={self._now})")
        while self._queue:
            when = self._queue[0][0]
            if until is not None and when > until:
                self._now = until
                return
            self.step()
        if until is not None:
            self._now = until

    def run_until_complete(self, process: Process,
                           limit: float = 10**12) -> Any:
        """Run until ``process`` terminates; return its value or raise."""
        while not process.triggered:
            if not self._queue:
                raise SimulationError(
                    f"deadlock: process {process.name!r} cannot complete")
            if self._queue[0][0] > limit:
                raise SimulationError(
                    f"process {process.name!r} did not finish by t={limit}")
            self.step()
        # Drain the urgent callbacks of the completion event itself.
        if not process.ok:
            raise process.value
        return process.value
