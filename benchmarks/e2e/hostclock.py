"""Host-time measurement that survives a noisy shared box.

The sandbox this benchmark runs in flips between two host speeds every
few seconds (a fixed pure-Python loop takes 28 ms or 36 ms depending on
what the neighbours are doing), so a raw 10 s wall-clock reading has a
run-to-run spread of 15-20 % - wider than any bound worth gating on.

:class:`HostTimer` therefore interleaves a small fixed *reference
kernel* into the timed section (a ``SIGALRM`` interval timer; the
handler runs on the main thread between bytecodes, so there is still
exactly one thread) and reports two numbers:

``raw_s``
    ``perf_counter`` seconds of the section, minus the time spent inside
    the reference kernel itself.
``ref_s``
    the same section expressed at the *reference host speed*: every
    inter-tick interval is scaled by ``REFERENCE_KERNEL_S / kernel
    time measured at that tick``.  A host slow-down stretches the
    kernel and the workload alike and cancels; a change to the
    simulator does not touch the kernel and shows in full.

``REFERENCE_KERNEL_S`` is the kernel's time on this box when it is
quiet, so ``ref_s == raw_s`` on a quiet run.  On another machine the
constant is merely a unit: every ``ref_s`` scales by the same factor,
and comparisons between two commits on one machine are unaffected.

This module is the only place in the benchmark that reads a host clock.
"""

from __future__ import annotations

import contextlib
import heapq
import resource
import signal
import statistics
import time

#: Seconds the reference kernel takes on the calibration box when quiet.
REFERENCE_KERNEL_S = 0.0021
#: Interval between reference ticks inside a timed section (2 % duty).
TICK_PERIOD_S = 0.1
#: Ticks smoothed together (rolling median) to drop one-off stalls.
_SMOOTH = 5


class _Probe:
    """Attribute and method traffic for the reference kernel."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def bump(self, value: int) -> int:
        self.count += value & 1
        return self.count


def reference_kernel(rounds: int = 4600) -> int:
    """A fixed mix of what the simulator does: dict/list/heap traffic,
    attribute access, method calls and small allocations."""
    table: dict = {}
    heap: list = []
    probe = _Probe()
    total = 0
    for index in range(rounds):
        table[index & 127] = (index, total)
        total += probe.bump(index) + (index * 3) % 7
        heapq.heappush(heap, (total & 1023, index))
        if len(heap) > 32:
            total += heapq.heappop(heap)[1]
    return total


def now() -> float:
    """The host clock (seconds, monotonic)."""
    return time.perf_counter()  # staticcheck: ignore[DET001] harness-only wall clock; never read by sim code


def sample_kernel() -> float:
    """Seconds one reference kernel takes right now."""
    started = now()
    reference_kernel()
    return now() - started


def burst_kernel_s(samples: int = 9) -> float:
    """Median kernel time over a short back-to-back burst."""
    return statistics.median(sample_kernel() for _ in range(samples))


def host_speed() -> float:
    """Current host slow-down (1.0 = reference speed); used to scale
    sections too short for ticks."""
    return burst_kernel_s() / REFERENCE_KERNEL_S


class HostTimer:
    """Context manager timing one section; see the module docstring.

    ``interleave=False`` is for a section that runs under a profiler,
    which would slow the interleaved kernel too and so hide its own
    overhead: the host speed is then sampled only before and after the
    section, outside the profiler.
    """

    def __init__(self, interleave: bool = True) -> None:
        self._interleave = interleave
        self._ticks: list = []      # (started_at, kernel_seconds)
        self._inside = 0.0
        self._started = 0.0
        self._previous_handler = None
        self.raw_s = 0.0
        self.ref_s = 0.0

    def _tick(self, _signum=None, _frame=None) -> None:
        started = now()
        reference_kernel()
        took = now() - started
        self._ticks.append((started, took))
        self._inside += took

    def _end_tick(self) -> None:
        started = now()
        self._ticks.append((started, burst_kernel_s()))

    def __enter__(self) -> "HostTimer":
        self._end_tick()
        if self._interleave:
            self._previous_handler = signal.signal(signal.SIGALRM,
                                                   self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD_S,
                             TICK_PERIOD_S)
        self._started = now()
        return self

    def __exit__(self, *_exc) -> None:
        ended = now()
        if self._interleave:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler)
        self._end_tick()
        self.raw_s = ended - self._started - self._inside
        self.ref_s = self._normalise(ended)

    def _normalise(self, ended: float) -> float:
        kernel = [took for _at, took in self._ticks]
        half = _SMOOTH // 2
        smooth = [statistics.median(kernel[max(0, i - half): i + half + 1])
                  for i in range(len(kernel))]
        # Interval i runs from the end of tick i to the start of tick
        # i+1 (the last one to the end of the section) and is scaled by
        # the mean host speed seen at its two ends.
        total = 0.0
        for i in range(len(self._ticks) - 1):
            begin = self._ticks[i][0] + self._ticks[i][1]
            if i == 0:
                begin = self._started
            finish = self._ticks[i + 1][0]
            if i == len(self._ticks) - 2:
                finish = ended
            speed = 0.5 * (smooth[i] + smooth[i + 1]) / REFERENCE_KERNEL_S
            total += max(0.0, finish - begin) / speed
        return total

    @property
    def speed(self) -> float:
        """Mean host slow-down over the section (1.0 = reference)."""
        return self.raw_s / self.ref_s if self.ref_s else float("nan")


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Spans:
    """Harness phase spans (name, start, end, parent id), kept in
    memory and written out with the trace file when the run ends."""

    def __init__(self) -> None:
        self.records: list = []
        self._open: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.records), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": now(), "end": None}
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = now()
            self._open.pop()
