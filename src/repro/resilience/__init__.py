"""Client-side resilience: retries, deadlines, breakers, write-behind.

The paper's dependability story (Section 5.6, Table 3) assumes that every
FfDL component keeps retrying its backends across etcd leader elections,
MongoDB primary failovers and object-store brownouts.  This package is the
shared vocabulary those clients use:

* :class:`RetryPolicy` — bounded exponential backoff whose jitter is drawn
  from a named :class:`~repro.sim.rng.RngRegistry` stream, so retried
  schedules replay deterministically (the chaos draw goldens pin each
  stream's positions).
* :class:`Deadline` — a budget in simulated time for a
  :class:`~repro.core.services.Microservice` call's wait for a replica.
* :class:`CircuitBreaker` — fail-fast once a backend is clearly down, with
  half-open probing on a reset timeout.
* :func:`retry_call` — the retry loop itself, written as a *bounded*
  ``for``-loop over attempts, for a caller that is already a process.
  With :class:`TimedCall` it is the only retry loop in the tree.
* :class:`TimedCall` — the same loop for the store clients, whose
  attempt is "sleep the latency, then act": a state machine on two
  kernel events per attempt and no process at all.
* :class:`BufferedJobWriter` — write-behind buffering of MongoDB job
  records so the platform degrades gracefully instead of losing status
  updates while the store is down.
"""

from repro.resilience.buffer import BufferedJobWriter
from repro.resilience.policy import (
    TRANSIENT_ERRORS,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    StoreClient,
    TimedCall,
    retry_call,
)

__all__ = [
    "BufferedJobWriter",
    "CircuitBreaker",
    "Deadline",
    "RetryPolicy",
    "StoreClient",
    "TRANSIENT_ERRORS",
    "TimedCall",
    "retry_call",
]
