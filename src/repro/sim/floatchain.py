"""Chains of float additions in closed form.

A timer that re-arms ``d`` after it fires lands at ``t + d``, then at
``(t + d) + d``, ...: repeated addition, whose floats are not
``t + k * d``.  :func:`chain` computes where such a chain stands after
many additions without making them one by one, bit for bit, so an
arithmetic chain (DESIGN.md, "Arithmetic until something could change
it") lands on the floats its timers would have made.
"""

from __future__ import annotations

import sys
from math import floor, ulp
from typing import Optional

#: Ulps in a binade: a float ``t`` in ``[2**k, 2**(k+1))``, ``k`` at least
#: the smallest normal exponent, is ``n * ulp(t)`` for one integer ``n``
#: in ``[2**52, 2**53)``.
BINADE = 1 << 53
NORMAL = sys.float_info.min


def whole_ulps(d: float, u: float) -> Optional[int]:
    """``d`` rounded to the nearest whole number of ``u``, a power of two,
    or None on a tie - then ``t + d`` rounds to even, which depends on
    ``t`` - or when the step is a binade or more."""
    q = d / u  # exact: u is a power of two
    if not q < BINADE:
        return None
    whole = floor(q)
    rest = q - whole
    return None if rest == 0.5 else whole + (rest > 0.5)


def chain(t: float, d: float, n, before: float) -> tuple:
    """``(k, t)`` after ``while k < n and t < before: t += d; k += 1``.

    In ``t``'s binade every float is a multiple of ``u = ulp(t)``, so
    each addition moves ``t`` by the same whole number of ulps,
    ``whole_ulps(d, u)``, while the sum stays below the binade's top: the
    additions inside one binade are one multiplication, and ``before``
    an integer ceiling.  The addition that leaves the binade is made as
    a float addition, and the walk goes on in the next one, so a chain
    costs O(binades crossed).  In a binade where ``d`` is a tie, and
    from a subnormal ``t`` or with ``d < 0``, the additions are made one
    by one.  ``n`` may be ``math.inf``.
    """
    k = 0
    while k < n and t < before:
        if NORMAL <= t and d >= 0.0:
            u = ulp(t)
            step = whole_ulps(d, u)
            if step == 0:  # every addition rounds back to t
                return n, t
            if step is not None:
                base = int(t / u)
                limit = BINADE if before >= u * BINADE else int(before / u)
                # Additions until t reaches before or the binade's top;
                # the one that leaves the binade rounds in the next.
                j = min(n - k, -((base - limit) // step))
                if base + j * step >= BINADE:
                    j -= 1
                if j:
                    t = (base + j * step) * u
                    k += j
                    continue
        t += d
        k += 1
    return k, t
