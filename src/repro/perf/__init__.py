"""Deterministic kernel profiler (see :mod:`repro.perf.profiler`)."""

from repro.perf.profiler import KernelProfiler, profile

__all__ = [
    "KernelProfiler",
    "profile",
]
