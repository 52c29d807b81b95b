"""Deterministic kernel profiler.

Attachable to one :class:`~repro.sim.core.Environment`, like the race
detector.  Everything it reports is a pure function of the simulated
schedule — event counts, per-site callback activity, heap statistics —
so two runs with the same seed produce byte-identical reports and the
numbers can be committed as regression baselines (``BENCH_*.json``).
No wall-clock ever enters a report; hosts measure wall time around the
whole run if they want it (see ``benchmarks/e2e``).

When no profiler is attached the kernel pays a single attribute check
per event — the same zero-cost-when-off contract the race hooks follow.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Environment, Event


def _site_of(callback: Callable) -> str:
    """A stable, low-cardinality label for one callback.

    Process resumptions are attributed to the process *family* (the
    name up to the first ``:``, so ``kubelet:node-3:pod-7`` groups
    under ``kubelet``); everything else falls back to the function's
    qualified name.  Never uses ``repr`` — object addresses would make
    reports non-deterministic.
    """
    bound_self = getattr(callback, "__self__", None)
    name = getattr(bound_self, "name", None)
    if isinstance(name, str):
        return f"process:{name.split(':', 1)[0]}"
    return getattr(callback, "__qualname__", type(callback).__name__)


class SiteStats:
    """Accumulated activity of one callback site."""

    __slots__ = ("calls", "events_spawned")

    def __init__(self) -> None:
        self.calls = 0
        self.events_spawned = 0


class KernelProfiler:
    """Counts what the kernel does, deterministically.

    Construction attaches the profiler (``env._profiler = self``); call
    :meth:`detach` to stop the bookkeeping and :meth:`report` for the
    accumulated numbers.  ``events_spawned`` per site is the number of
    events scheduled *while that site's callbacks ran* — a
    schedule-deterministic cost proxy that plays the role wall-clock
    self-time would in a conventional profiler.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self._base_scheduled = env.events_scheduled
        self._base_processed = env.events_processed
        self.peak_heap = len(env._queue)
        self.event_types: Dict[str, int] = {}
        self.sites: Dict[str, SiteStats] = {}
        env._profiler = self

    def detach(self) -> None:
        if self.env._profiler is self:
            self.env._profiler = None

    # -- kernel hooks (called only while attached) ---------------------------

    def on_schedule(self, event: "Event") -> None:
        kind = type(event).__name__
        self.event_types[kind] = self.event_types.get(kind, 0) + 1
        # Called after the push, so the queue already holds ``event``:
        # its length is the number of scheduled-but-unprocessed events.
        depth = len(self.env._queue)
        if depth > self.peak_heap:
            self.peak_heap = depth

    def on_callback(self, callback: Callable, spawned: int) -> None:
        site = self.sites.get(_site_of(callback))
        if site is None:
            site = self.sites[_site_of(callback)] = SiteStats()
        site.calls += 1
        site.events_spawned += spawned

    # -- reporting -----------------------------------------------------------

    def report(self) -> dict:
        """Deterministic counters, sorted for stable serialization."""
        return {
            "events_scheduled":
                self.env.events_scheduled - self._base_scheduled,
            "events_processed":
                self.env.events_processed - self._base_processed,
            "peak_heap": self.peak_heap,
            "event_types": dict(sorted(self.event_types.items())),
            "callback_sites": {
                name: {"calls": stats.calls,
                       "events_spawned": stats.events_spawned}
                for name, stats in sorted(self.sites.items())
            },
        }


def profile(env: "Environment") -> KernelProfiler:
    """Attach and return a :class:`KernelProfiler` for ``env``."""
    existing: Optional[KernelProfiler] = env._profiler
    if existing is not None:
        return existing
    return KernelProfiler(env)
