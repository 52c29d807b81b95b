"""Unit tests for the fault injector."""

import pytest

from repro.sim import Environment, FaultInjector, FaultSpec, RngRegistry


def make_injector(seed=0):
    env = Environment()
    return env, FaultInjector(env, RngRegistry(seed))


def test_inject_once_fires_at_delay():
    env, inj = make_injector()
    hits = []
    inj.inject_once("crash", "node-1", delay_s=12.0,
                    on_fault=lambda ev: hits.append((ev.kind, env.now)))
    env.run()
    assert hits == [("crash", 12.0)]


def test_inject_once_recovery_after_duration():
    env, inj = make_injector()
    trace = []
    inj.inject_once("outage", "node-1", delay_s=5.0, duration_s=3.0,
                    on_fault=lambda ev: trace.append(("down", env.now)),
                    on_recover=lambda ev: trace.append(("up", env.now)))
    env.run()
    assert trace == [("down", 5.0), ("up", 8.0)]


def test_recurring_faults_accumulate_in_log():
    env, inj = make_injector()
    spec = FaultSpec(kind="blip", mtbf_s=10.0)
    inj.inject_recurring(spec, "node-1", on_fault=lambda ev: None)
    env.run(until=1000)
    count = len(inj.events_of_kind("blip"))
    # Expect roughly 100 events over 1000s with MTBF 10s.
    assert 60 <= count <= 150


def test_recurring_faults_deterministic_given_seed():
    def run(seed):
        env, inj = make_injector(seed)
        inj.inject_recurring(FaultSpec("blip", mtbf_s=7.0), "n",
                             on_fault=lambda ev: None)
        env.run(until=200)
        return [e.time for e in inj.log]

    assert run(4) == run(4)
    assert run(4) != run(5)


def test_stop_halts_new_faults():
    env, inj = make_injector()
    inj.inject_recurring(FaultSpec("blip", mtbf_s=5.0), "n",
                         on_fault=lambda ev: None)

    def stopper():
        yield env.timeout(100)
        inj.stop()

    env.process(stopper())
    env.run(until=1000)
    assert all(e.time <= 110 for e in inj.log)


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec("bad", mtbf_s=0)
    with pytest.raises(ValueError):
        FaultSpec("bad", mtbf_s=1, duration_s=-1)


def test_record_appends_detail():
    env, inj = make_injector()
    ev = inj.record("manual", "pod-7", extra="info")
    assert ev.detail == {"extra": "info"}
    assert inj.log == [ev]

def test_stop_cancels_pending_one_shot():
    # Regression: stop() used to let a fault whose delay timeout was
    # already pending still fire; it must be cancelled outright.
    env, inj = make_injector()
    hits = []
    inj.inject_once("crash", "n", delay_s=10.0,
                    on_fault=lambda ev: hits.append(ev))

    def stopper():
        yield env.timeout(5.0)
        inj.stop()

    env.process(stopper())
    env.run()
    assert hits == []
    assert inj.log == []


def test_stop_cancels_pending_recurring_fault():
    env, inj = make_injector()
    inj.inject_recurring(FaultSpec("blip", mtbf_s=50.0), "n",
                         on_fault=lambda ev: None)

    def stopper():
        # Stop while the first inter-arrival timeout is still pending.
        yield env.timeout(0.001)
        inj.stop()

    env.process(stopper())
    env.run(until=10_000)
    assert inj.log == []


def test_stop_lets_inflight_outage_recover():
    # A fault that already fired must still run its recovery callback —
    # stop() never leaves an outage half-applied.
    env, inj = make_injector()
    trace = []
    inj.inject_once("outage", "n", delay_s=1.0, duration_s=10.0,
                    on_fault=lambda ev: trace.append(("down", env.now)),
                    on_recover=lambda ev: trace.append(("up", env.now)))

    def stopper():
        yield env.timeout(5.0)
        inj.stop()

    env.process(stopper())
    env.run()
    assert trace == [("down", 1.0), ("up", 11.0)]


def test_fault_spec_deterministic_duration_must_be_bool():
    with pytest.raises(TypeError):
        FaultSpec("k", mtbf_s=1.0, deterministic_duration=0.5)


def test_deterministic_duration_yields_fixed_outages():
    env, inj = make_injector()
    spec = FaultSpec("outage", mtbf_s=30.0, duration_s=3.0,
                     deterministic_duration=True)
    downs, ups = [], []
    inj.inject_recurring(spec, "n",
                         on_fault=lambda ev: downs.append(env.now),
                         on_recover=lambda ev: ups.append(env.now))
    env.run(until=2000)
    assert len(downs) >= 3
    for down, up in zip(downs, ups):
        assert up - down == pytest.approx(3.0)


def test_min_duration_floor_applies_to_sampled_outages():
    env, inj = make_injector()
    spec = FaultSpec("outage", mtbf_s=20.0, duration_s=0.5,
                     min_duration_s=5.0)
    downs, ups = [], []
    inj.inject_recurring(spec, "n",
                         on_fault=lambda ev: downs.append(env.now),
                         on_recover=lambda ev: ups.append(env.now))
    env.run(until=2000)
    assert len(downs) >= 3
    for down, up in zip(downs, ups):
        assert up - down >= 5.0
