"""Named, seeded random-number streams.

Every stochastic component draws from its own stream derived from a single
master seed, so adding a new random component never perturbs the draws of
existing ones and every experiment is exactly reproducible.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

#: ``random()`` calls skipped per ``getrandbits`` in :func:`advance`.
_ADVANCE_CHUNK = 1 << 12


class RngRegistry:
    """Hands out independent ``random.Random`` streams keyed by name."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the stream for ``name``.

        One dict probe on the hit path; the sha256 seed derivation runs
        exactly once per name, so repeated lookups from hot loops (e.g.
        per-pod scheduling decisions) cost a hash-table get.
        """
        stream = self._streams.get(name)
        if stream is None:
            digest = hashlib.sha256(
                f"{self.master_seed}:{name}".encode()).digest()
            stream = self._streams[name] = random.Random(
                int.from_bytes(digest[:8], "big"))
        return stream

    def fork(self, name: str) -> "RngRegistry":
        """A child registry whose streams are independent of this one's."""
        digest = hashlib.sha256(
            f"{self.master_seed}:fork:{name}".encode()).digest()
        return RngRegistry(int.from_bytes(digest[:8], "big"))


def advance(stream: random.Random, calls: int) -> None:
    """Leave ``stream`` where ``calls`` calls of ``random()`` leave it.

    CPython's ``random()`` takes two 32-bit Mersenne Twister words and
    ``getrandbits(64 * m)`` takes exactly ``2 * m``, so the skip is made
    in C, a chunk at a time, without building a float per call
    (``tests/sim/test_rng_advance.py`` pins this on each Python version
    CI tests).
    """
    while calls > 0:
        chunk = min(calls, _ADVANCE_CHUNK)
        stream.getrandbits(64 * chunk)
        calls -= chunk
