"""``TimedCall`` against the two nested processes it replaces.

The reference is ``EtcdClient._call`` as it stood before the store
clients lost their processes, kept verbatim below: an attempt process
(sleep the latency, check ``available``, act, wait for a returned
event) wrapped, whenever a policy or breaker is set, in an
``env.process(retry_call(...))``.  Random scripts - what each attempt
of each call does (a value, a transient or a semantic error, raised or
carried by a returned event), several calls on one client (some in the
same instant), the store flipping unavailable and back, every mix of
retry policy and breaker - are played through both on twin
environments.  Every outcome with its ``__cause__``, every resolve
instant (by ``==``), ``retries``, the breaker's state and transition
times and the next draw of the jitter stream must be equal.

The strict comparison needs schedules free of one kind of tie.  A
``TimedCall`` takes its latency timer's place in line when the call is
made, the process form two ``URGENT`` hops later; if the *caller's own*
next timer lands on exactly the float instant that latency timer does,
which of the two fires first differs, and with it what a breaker or the
availability flag says to the later one.  The ``Environment`` contract
calls dependence on such a tie a modelling bug, and the scripts avoid
it the way real callers do - by not sleeping exactly one store latency:
calls and flips are spaced by gaps no sum of latencies and backoffs
reaches.  Calls made *in the same instant* (gap 0) are compared.
"""

import random

from hypothesis import example, given, settings, strategies as st

from repro.errors import ConsensusError, StoreError, StoreUnavailableError
from repro.etcd import EtcdClient
from repro.etcd.client import RETRYABLE_ETCD_ERRORS
from repro.resilience import CircuitBreaker, RetryPolicy, retry_call
from repro.sim import Environment, RngRegistry
from repro.sim.core import Event

from tests.conftest import examples


def process_form_call(self, action):
    """``EtcdClient._call`` of the parent commit, verbatim (but for the
    name of ``retry_stream``, private then, and the per-call deadline
    the store clients no longer take)."""
    self.ops_issued += 1

    def attempt() -> Event:
        def op():
            yield self.env.timeout(self.latency_s)
            if not self.available:
                raise StoreUnavailableError("etcd is unavailable")
            result = action()
            if isinstance(result, Event):
                result = yield result
            return result

        return self.env.process(op(), name="etcd-op")

    if self.retry is None and self.breaker is None:
        return attempt()

    def count_retry(_attempt: int, _err: BaseException) -> None:
        self.retries += 1

    return self.env.process(
        retry_call(self.env, self.retry_stream, attempt,
                   self.retry or RetryPolicy(max_attempts=1),
                   retry_on=RETRYABLE_ETCD_ERRORS,
                   breaker=self.breaker,
                   on_retry=count_retry),
        name="etcd-op")


#: What one attempt does: (kind, how); ``how`` is "raise" / "return" for
#: a synchronous outcome, a delay for one carried by a returned event,
#: or "fired" for a returned event whose callbacks have already run.
ERRORS = {"unavailable": StoreUnavailableError, "consensus": ConsensusError,
          "semantic": StoreError, "bug": ZeroDivisionError}
_DELAYS = st.sampled_from([0.0, 0.001, 0.002, 0.05, 0.3])
_CALL_GAPS = st.sampled_from([0.0, 0.0, 0.0013, 0.0171, 0.33])
_FLIP_GAPS = st.sampled_from([0.0007, 0.0309, 0.41])
_ATTEMPT = st.tuples(st.sampled_from(["ok", *ERRORS]),
                     st.one_of(st.just("sync"), st.just("fired"), _DELAYS))
_POLICY = st.one_of(
    st.none(),
    st.builds(RetryPolicy,
              max_attempts=st.sampled_from([1, 3]),
              base_delay_s=st.sampled_from([0.0, 0.002, 0.05]),
              jitter=st.booleans()))


@st.composite
def scripts(draw):
    return {
        "policy": draw(_POLICY),
        "breaker": draw(st.one_of(st.none(), st.tuples(
            st.integers(1, 3), st.sampled_from([0.0, 0.05, 0.5])))),
        # (start delay after the previous call, one entry per attempt)
        "calls": draw(st.lists(st.tuples(
            _CALL_GAPS, st.lists(_ATTEMPT, max_size=4)),
            min_size=1, max_size=4)),
        # the store flips at these gaps, starting with "down"
        "flips": draw(st.lists(_FLIP_GAPS, max_size=3)),
    }


def play(script, call):
    """Run ``script`` with ``call(client, action)`` issuing operations."""
    env = Environment()
    rng = RngRegistry(5)
    breaker = CircuitBreaker(env, *script["breaker"]) \
        if script["breaker"] is not None else None
    client = EtcdClient(env, backend=None, rng=rng, retry=script["policy"],
                        breaker=breaker)
    fired = env.timeout(0.0, "fired")
    env.run()  # ``fired`` is now a processed event
    outcomes = []

    def make_action(index, attempts):
        plan = iter(attempts)

        def action():
            kind, how = next(plan, ("ok", "sync"))
            result = (index, kind)
            error = ERRORS[kind](f"{kind} in call {index}") \
                if kind != "ok" else None
            if how == "sync":
                if error is not None:
                    raise error
                return result
            if how == "fired":
                return fired
            carried = env.event()
            env.timeout(how).callbacks.append(
                lambda _: carried.fail(error) if error is not None
                else carried.succeed(result))
            return carried

        return action

    def observe(index, done):
        def seen(event):
            value = event.value
            if not event.ok:
                cause = value.__cause__
                value = (type(value), str(value),
                         cause and (type(cause), str(cause)))
            outcomes.append((index, env.now, event.ok, value))

        done.callbacks.append(seen)
        return done

    def caller():
        for index, (gap, attempts) in enumerate(script["calls"]):
            yield env.timeout(gap)
            done = observe(index, call(client, make_action(index, attempts)))
            # Nobody can interrupt or watch a TimedCall's result end.
            assert call is process_form_call or type(done) is Event

    def flipper():
        for gap in script["flips"]:
            yield env.timeout(gap)
            client.set_available(not client.available)

    env.process(caller())
    env.process(flipper())
    env.run()
    peek = random.Random(0)
    peek.setstate(rng.stream("resilience:etcd-client").getstate())
    return {"outcomes": sorted(outcomes, key=lambda seen: seen[0]),
            "order": [seen[0] for seen in outcomes],
            "ops": client.ops_issued, "retries": client.retries,
            "breaker": breaker and (breaker.state, breaker.transitions,
                                    breaker.consecutive_failures),
            "next_draw": peek.random(), "now": env.now}


@settings(max_examples=examples(300), deadline=None)
@given(script=scripts())
@example(script={  # the store goes down during the first backoff
    "policy": RetryPolicy(max_attempts=3, jitter=False), "breaker": (2, 0.05),
    "flips": [0.0309, 0.41],
    "calls": [(0.0, [("unavailable", "sync")]), (0.0, [("ok", 0.002)])]})
def test_timed_call_is_the_process_form(script):
    assert play(script, EtcdClient._call) == play(script, process_form_call)
