"""Unit tests for cell health classification (HEALTHY/BROWNOUT/BLACKOUT).

The monitor is exercised against a scripted fake cell so each
classification rule is pinned in isolation from platform behaviour."""

from repro.errors import CellUnavailableError
from repro.federation import (
    BLACKOUT,
    BROWNOUT,
    CellHealthMonitor,
    FederationBus,
    HEALTHY,
)
from repro.federation.health import (
    BLACKOUT_FAILURES,
    BROWNOUT_LATENCY_S,
    BROWNOUT_PROBES,
    LATENCY_WINDOW,
    PROBE_INTERVAL_S,
    PROBE_TIMEOUT_S,
    RECOVER_PROBES,
)
from repro.resilience import CircuitBreaker
from repro.sim import Environment, RngRegistry


class FakeCell:
    """Scripted probe target: latency and reachability are test knobs."""

    def __init__(self, env, name="cell-x"):
        self.env = env
        self.name = name
        self.breaker = CircuitBreaker(env, failure_threshold=3,
                                      reset_timeout_s=20.0, name=name)
        self.dark = False
        self.probe_latency_s = 0.01

    def probe(self, deadline_s):
        if self.dark:
            raise CellUnavailableError(f"cell {self.name!r} is dark")

        def run():
            yield self.env.timeout(self.probe_latency_s)
            return "ok"

        return self.env.process(run(), name="fake-probe")


def make_monitor(seed=0):
    env = Environment()
    bus = FederationBus(env, RngRegistry(seed))
    cell = FakeCell(env)
    bus.register(cell.name)
    transitions = []
    monitor = CellHealthMonitor(
        env, bus, cell,
        on_transition=lambda c, old, new: transitions.append((old, new)),
        monitor_name=f"monitor:{cell.name}")
    return env, cell, monitor, transitions


def test_healthy_cell_stays_healthy():
    env, cell, monitor, transitions = make_monitor()
    env.run(until=60.0)
    assert monitor.state == HEALTHY
    assert transitions == []
    assert monitor.probes_failed == 0
    assert monitor.probes_sent > 0


def test_three_consecutive_failures_classify_blackout():
    env, cell, monitor, transitions = make_monitor()
    env.run(until=12.0)  # a couple of healthy probes first
    cell.dark = True
    env.run(until=40.0)
    assert monitor.state == BLACKOUT
    assert transitions == [(HEALTHY, BLACKOUT)]
    # The breaker saw the same failures the classifier did.
    assert cell.breaker.state == "open"


def test_two_failures_are_not_a_blackout():
    assert (PROBE_INTERVAL_S, BLACKOUT_FAILURES) == (5.0, 3)
    env, cell, monitor, transitions = make_monitor()
    cell.dark = True
    env.run(until=11.0)  # exactly two probes fire (t=5, t=10)
    assert monitor.probes_failed == 2
    assert monitor.state == HEALTHY
    cell.dark = False
    env.run(until=30.0)
    # The streak was broken before reaching the threshold.
    assert monitor.state == HEALTHY
    assert transitions == []


def test_slow_probes_classify_brownout_then_recover():
    assert (PROBE_INTERVAL_S, PROBE_TIMEOUT_S, BROWNOUT_LATENCY_S,
            BROWNOUT_PROBES, LATENCY_WINDOW, RECOVER_PROBES) == \
        (5.0, 3.0, 0.5, 3, 6, 3)
    env, cell, monitor, transitions = make_monitor()
    env.run(until=11.0)
    cell.probe_latency_s = 1.0  # successful but slow
    env.run(until=40.0)
    assert monitor.state == BROWNOUT
    assert (HEALTHY, BROWNOUT) in transitions
    cell.probe_latency_s = 0.01
    env.run(until=80.0)
    # Hysteresis: three consecutive fast successes recover the cell.
    assert monitor.state == HEALTHY
    assert transitions[-1] == (BROWNOUT, HEALTHY)


def test_failures_do_not_feed_the_brownout_window():
    """Outright failures drive the blackout counter, never the latency
    window: two failures plus two slow probes must not read as a
    3-of-6 brownout."""
    assert (PROBE_INTERVAL_S, BROWNOUT_LATENCY_S, BROWNOUT_PROBES,
            BLACKOUT_FAILURES) == (5.0, 0.5, 3, 3)
    env, cell, monitor, transitions = make_monitor()
    cell.dark = True
    env.run(until=11.0)  # two failures
    cell.dark = False
    cell.probe_latency_s = 1.0
    env.run(until=21.0)  # two slow successes
    assert monitor.state == HEALTHY
    cell.probe_latency_s = 0.01
    env.run(until=60.0)
    assert monitor.state == HEALTHY
    assert transitions == []


def test_blackout_recovers_through_fast_probes():
    assert (PROBE_INTERVAL_S, RECOVER_PROBES) == (5.0, 3)
    env, cell, monitor, transitions = make_monitor()
    cell.dark = True
    env.run(until=40.0)
    assert monitor.state == BLACKOUT
    cell.dark = False
    env.run(until=100.0)
    assert monitor.state == HEALTHY
    assert transitions == [(HEALTHY, BLACKOUT), (BLACKOUT, HEALTHY)]


def test_stop_halts_probing():
    env, cell, monitor, _transitions = make_monitor()
    env.run(until=12.0)
    sent = monitor.probes_sent
    monitor.stop()
    env.run(until=60.0)
    assert monitor.probes_sent == sent
