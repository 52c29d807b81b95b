"""``mount._chain`` against the loop of float additions it replaces.

A warm hit run issues each read one latency after the one before, by
repeated addition.  ``_chain`` computes that chain in closed form while
it stays in one binade, as a whole number of ulps per addition; a tie,
a chain that leaves the binade and a subnormal start take the loop.
Whatever the start, step, count and bound, it must return the count
and the float the literal loop ends with, bit for bit.
"""

import sys
from math import inf, nextafter, ulp

from hypothesis import example, given, settings, strategies as st

from repro.objectstore.mount import _chain

from tests.conftest import examples

#: 3 * 2**-53 is a tie for every t in [1, 2), whose ulp is 2**-52: a
#: step of one ulp from an odd t, of two from an even one.
TIE = 3 * 2.0 ** -53


def loop(t, d, n, before):
    k = 0
    while k < n and t < before:
        t += d
        k += 1
    return k, t


def below_a_power_of_two(draw):
    power = 2.0 ** draw(st.integers(-1022, 40))
    return power - draw(st.integers(0, 64)) * ulp(power / 2)


@st.composite
def starts(draw):
    kind = draw(st.sampled_from(["any", "small", "below", "special"]))
    if kind == "any":
        return draw(st.floats(0.0, 1e9, allow_nan=False))
    if kind == "small":
        return draw(st.floats(0.0, 4 * sys.float_info.min))
    if kind == "below":
        return below_a_power_of_two(draw)
    return draw(st.sampled_from([0.0, 5e-324, sys.float_info.min, 1.0,
                                 1024.0, nextafter(1024.0, 0.0)]))


steps = st.one_of(
    st.sampled_from([0.001, 0.05, 1 / 3, 2.0 ** -60, 0.5, 1.0, 2.0,
                     2.0 ** 20, TIE, 0.0]),
    st.floats(0.0, 100.0, allow_nan=False))


@st.composite
def chains(draw):
    t, d, n = draw(starts()), draw(steps), draw(st.integers(0, 3000))
    kind = draw(st.sampled_from(["inf", "ahead", "below", "any"]))
    if kind == "inf":
        before = inf
    elif kind == "ahead":
        before = t + draw(st.floats(0.0, 1e4, allow_nan=False))
    elif kind == "below":
        before = below_a_power_of_two(draw)
    else:
        before = draw(st.floats(0.0, 1e9, allow_nan=False))
    return t, d, n, before


@settings(max_examples=examples(400), deadline=None)
@example(chain=(1.0, TIE, 1000, inf))
@example(chain=(1.5, TIE, 7, inf))
@example(chain=(nextafter(1.0, 2.0), TIE, 7, inf))
@example(chain=(nextafter(1024.0, 0.0), 0.001, 10, inf))
@example(chain=(1023.9, 0.001, 500, 1024.0))
@example(chain=(1000.0, 0.001, 500, 1000.2))
@example(chain=(1000.0, 0.001, 500, nextafter(1000.2, inf)))
@example(chain=(0.0, 0.001, 5, inf))
@example(chain=(5e-324, 2.0 ** -1070, 9, inf))
@example(chain=(1.0, 0.0, 4, 2.0))
@example(chain=(3.0, 0.001, 4, 3.0))
@given(chain=chains())
def test_chain_is_the_loop(chain):
    k, end = _chain(*chain)
    expected_k, expected_end = loop(*chain)
    assert (k, end.hex()) == (expected_k, expected_end.hex())
