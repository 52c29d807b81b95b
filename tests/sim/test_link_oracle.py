"""``FairShareLink`` against the runner process it replaces.

The reference is the link as it stood while a ``link:`` process ran it,
kept verbatim below (``RunnerLink``): one ``_Transfer`` object per
transfer, a runner that drains progress, completes what is within a
nanosecond of done and sleeps on ``AnyOf(timeout, wakeup)``.  Random
programs - arrivals (several in one instant, sizes a nanosecond of
transfer time apart, empty ones), waits that land exactly on a
completion, ``set_capacity`` mid-flight - are played through both.
Every completion instant and value, the order completions are seen in
and ``bytes_transferred`` must be equal by ``==``: the arithmetic is
the same additions in the same order, not an approximation of them.
Crowded programs put a hundred transfers or more in flight, most of
equal size, so one settle completes many at once: the link keeps its
flows sorted by residual, and must still complete them in arrival
order.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import Environment, FairShareLink
from repro.sim.core import Event

from tests.conftest import examples


class _Transfer:
    __slots__ = ("remaining", "done", "last_update")

    def __init__(self, size: float, done: Event, now: float):
        self.remaining = float(size)
        self.done = done
        self.last_update = now


class RunnerLink:
    """``FairShareLink`` of the parent commit, verbatim."""

    def __init__(self, env: Environment, capacity_bps: float,
                 name: str = "link"):
        if capacity_bps <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity_bps = float(capacity_bps)
        self.name = name
        self._transfers: list = []
        self._wakeup = None
        self._runner = env.process(self._run(), name=f"link:{name}")
        self.bytes_transferred = 0.0

    @property
    def active_transfers(self) -> int:
        return len(self._transfers)

    def transfer(self, size_bytes: float) -> Event:
        if size_bytes < 0:
            raise SimulationError("negative transfer size")
        done = self.env.event()
        if size_bytes == 0:
            done.succeed(0.0)
            return done
        self._drain_progress()
        self._transfers.append(_Transfer(size_bytes, done, self.env.now))
        self._kick()
        return done

    def set_capacity(self, capacity_bps: float) -> None:
        if capacity_bps <= 0:
            raise SimulationError("capacity must be positive")
        self._drain_progress()
        self.capacity_bps = float(capacity_bps)
        self._kick()

    def _drain_progress(self) -> None:
        now = self.env.now
        n = len(self._transfers)
        if not n:
            return
        rate = self.capacity_bps / n
        for tr in self._transfers:
            moved = rate * (now - tr.last_update)
            remaining = tr.remaining - moved
            tr.remaining = remaining if remaining > 0.0 else 0.0
            tr.last_update = now
            self.bytes_transferred += moved

    def _kick(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _run(self):
        while True:
            self._drain_progress()
            rate = self.capacity_bps / max(1, len(self._transfers))
            epsilon = max(1e-9, rate * 1e-9)
            finished = [t for t in self._transfers
                        if t.remaining <= epsilon]
            self._transfers = [t for t in self._transfers
                               if t.remaining > epsilon]
            for tr in finished:
                tr.done.succeed(self.env.now)
            if not self._transfers:
                self._wakeup = self.env.event()
                yield self._wakeup
                continue
            rate = self.capacity_bps / len(self._transfers)
            next_done = max(1e-9,
                            min(t.remaining for t in self._transfers) / rate)
            self._wakeup = self.env.event()
            yield self.env.any_of([self.env.timeout(next_done), self._wakeup])


#: Capacities are a base times a re-rating factor and sizes are seconds
#: alone on the base, so the clock stays far below the magnitude where a
#: nanosecond timer rounds to nothing.  0.5 B/s is where the byte
#: floor of the done-epsilon takes over from the nanosecond one.
BASES = (100.0, 1.25e9, 0.5)
FACTORS = (1.0, 0.64, 2.5, 1 / 3)
#: Round sizes and waits make completions, arrivals and re-ratings land
#: on one instant; the nanosecond steps straddle the done-epsilon.
_ALONE_S = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-9, 1.0 + 2.5e-9, 3.0]),
    st.floats(min_value=1e-6, max_value=20.0))
_WAIT_S = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1e-9, 2.0]),
                    st.floats(min_value=0.0, max_value=5.0))
_STEP = st.one_of(st.tuples(st.just("transfer"), _ALONE_S),
                  st.tuples(st.just("transfer"), _ALONE_S),
                  st.tuples(st.just("wait"), _WAIT_S),
                  st.tuples(st.just("capacity"), st.sampled_from(FACTORS)))


def play(link_class, base, program):
    env = Environment()
    env.run(until=0.25)  # the link is built on a running clock
    link = link_class(env, base)
    seen = []

    def driver():
        for index, (verb, amount) in enumerate(program):
            if verb == "wait":
                yield env.timeout(amount)
            elif verb == "capacity":
                link.set_capacity(amount * base)
            else:
                link.transfer(amount * base).callbacks.append(
                    lambda done, index=index:
                    seen.append((index, env.now, done.value)))
        probes.append((env.now, link.active_transfers,
                       link.bytes_transferred))

    probes = []
    env.process(driver())
    env.run()
    return seen, probes, link.active_transfers, link.bytes_transferred


@settings(max_examples=examples(300), deadline=None)
@given(base=st.sampled_from(BASES),
       program=st.lists(_STEP, min_size=1, max_size=30))
def test_link_completes_when_the_runner_did(base, program):
    seen, probes, active, moved = play(FairShareLink, base, program)
    assert (seen, probes, active, moved) == play(RunnerLink, base, program)
    assert active == 0
    assert len(seen) == sum(verb == "transfer" for verb, _ in program)


#: Few sizes, so many flows tie and finish in one settle; ``1.0 +
#: 1e-12`` is within every crowd's done-epsilon of ``1.0``, so the two
#: finish together, in arrival order, not in order of size.
_CROWD_S = st.sampled_from([0.25, 0.5, 0.5 + 1e-9, 1.0, 1.0 + 1e-12,
                            1.0 + 2.5e-9])


@st.composite
def crowded(draw):
    """A burst of 100-160 transfers in one instant, with a few steps
    spliced into it (arrivals onto part-done flows) and a tail."""
    program = [("transfer", draw(_CROWD_S))
               for _ in range(draw(st.integers(100, 160)))]
    for at, step in draw(st.lists(st.tuples(st.integers(0, len(program)),
                                            _STEP), max_size=6)):
        program.insert(at, step)
    return program + draw(st.lists(_STEP, max_size=10))


@settings(max_examples=examples(40), deadline=None)
@given(base=st.sampled_from(BASES), program=crowded())
def test_a_crowded_link_completes_when_the_runner_did(base, program):
    seen, probes, active, moved = play(FairShareLink, base, program)
    assert (seen, probes, active, moved) == play(RunnerLink, base, program)
    assert len(seen) == sum(verb == "transfer" for verb, _ in program)
    # Some settle completed several transfers at one instant.
    instants = [now for _index, now, _value in seen]
    assert len(set(instants)) < len(instants)
