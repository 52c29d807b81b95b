"""``advance`` skips a stream by a count of ``random()`` calls.

It relies on CPython's word use: ``random()`` takes two 32-bit Mersenne
Twister words and ``getrandbits(64 * m)`` takes ``2 * m``.  CI runs this
on every Python version it tests, so a change there fails here.
"""

import pytest

from repro.sim.rng import RngRegistry, advance


@pytest.mark.parametrize("calls", [0, 1, 2 ** 14 - 1, 2 ** 14, 2 ** 14 + 1,
                                   10 ** 5])
def test_advance_leaves_the_state_of_that_many_random_calls(calls):
    skipped = RngRegistry(3).stream("raft-network")
    drawn = RngRegistry(3).stream("raft-network")
    drawn.random()  # mid-stream, not at the seed
    skipped.random()
    advance(skipped, calls)
    for _ in range(calls):
        drawn.random()
    assert skipped.getstate() == drawn.getstate()
    assert skipped.random() == drawn.random()

