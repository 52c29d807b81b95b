"""Determinism & safety analyzer for the simulation substrate.

Every reproduced result — Spread-vs-Pack fragmentation (Figure 3), gang
scheduling deadlock avoidance (Figure 4), status-store resilience
(Table 3) — rests on two properties that nothing else enforces:

1. **Determinism**: the discrete-event kernel replays identically given
   the same master seed.  A stray ``time.time()``, an unseeded global
   ``random`` draw, or iteration over an unordered ``set`` feeding
   :meth:`Environment.schedule` silently corrupts experiments.
2. **Crash-injection fidelity**: faults are delivered as
   :class:`repro.sim.core.Interrupt`; a broad ``except Exception`` that
   swallows one turns an injected crash into an ordinary error path and
   invalidates the dependability numbers.

The analyzer has two halves:

* **Static rules** (:mod:`repro.staticcheck.rules`): AST passes over the
  source tree, run via ``python -m repro.staticcheck`` or the pytest
  suite under ``tests/staticcheck``.
* **Runtime checkers** (:mod:`repro.staticcheck.runtime`): invariant
  monitors hooked into live simulations — Raft safety properties and
  the Kubernetes pod phase state machine.

Findings can be suppressed per line with an explanation::

    risky_call()  # staticcheck: ignore[DET001] replay-safe: gated by ...

A suppression without a reason is itself reported (``SUP001``).
"""

from __future__ import annotations

from repro.staticcheck.engine import (
    ALL_RULES,
    AnalysisContext,
    analyze_paths,
    analyze_source,
    analyze_tree,
    default_target,
    iter_manifest_files,
    iter_python_files,
)
from repro.staticcheck.findings import Finding, RULE_CATALOG
from repro.staticcheck.manifest import (
    MANIFEST_RULES,
    analyze_manifest,
    analyze_manifest_source,
)
from repro.staticcheck.runtime import (
    KubeStateMachineChecker,
    RaftInvariantChecker,
)

__all__ = [
    "ALL_RULES",
    "AnalysisContext",
    "Finding",
    "KubeStateMachineChecker",
    "MANIFEST_RULES",
    "RULE_CATALOG",
    "RaftInvariantChecker",
    "analyze_manifest",
    "analyze_manifest_source",
    "analyze_paths",
    "analyze_source",
    "analyze_tree",
    "default_target",
    "iter_manifest_files",
    "iter_python_files",
]
