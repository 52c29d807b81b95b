"""Discrete-event simulation kernel used by every substrate in the repo."""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.sim.failure import FaultEvent, FaultInjector, FaultSpec
from repro.sim.mailbox import Mailbox
from repro.sim.race import (
    RaceDetector,
    RaceError,
    RaceReport,
    note_read,
    note_write,
)
from repro.sim.resources import FairShareLink, Store
from repro.sim.rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "FairShareLink",
    "FaultEvent",
    "FaultInjector",
    "FaultSpec",
    "Interrupt",
    "Mailbox",
    "Process",
    "RaceDetector",
    "RaceError",
    "RaceReport",
    "RngRegistry",
    "Store",
    "Timeout",
    "note_read",
    "note_write",
]
