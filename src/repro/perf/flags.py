"""The kill switch for the etcd and kube fast paths.

``REPRO_PERF_DISABLE=1`` forces each optimized component back onto its
straightforward reference implementation: the etcd watch index degrades
to a linear watcher scan and the scheduler feasibility cache is
bypassed.  The simulation kernel (``repro.sim``) has one event path
and does not read the flag.  The two modes are
*observably identical* — same audit logs, same end states, same RNG
draws — which the equivalence suite (``tests/perf``) asserts; only the
ops counters (watchers visited, predicates evaluated) differ.

Components read the flag **once, at construction**, so a single Python
process can build an optimized environment, flip the variable, and
build a force-disabled one for an apples-to-apples comparison — that is
exactly what ``benchmarks/perf`` does to compute its reduction ratios.
"""

from __future__ import annotations

import os

#: Environment variable that force-disables the fast paths.
DISABLE_ENV_VAR = "REPRO_PERF_DISABLE"

_TRUTHY = ("1", "true", "yes", "on")


def optimizations_enabled() -> bool:
    """Whether the perf fast paths are active (the default)."""
    return os.environ.get(DISABLE_ENV_VAR, "").strip().lower() \
        not in _TRUTHY
