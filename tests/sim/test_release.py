"""What the kernel lets go of once it no longer needs it.

A triggered ``AnyOf`` / ``AllOf`` leaves no callback on the events it
was waiting on, so an event that may never fire (a writer's
``degraded_event()``) does not keep every condition ever raced against
it alive.  A failed process keeps its exception, with file and line
numbers, but not the locals of the frames it unwound, so no reference
cycle runs through them; a generator that caught the exception earlier
and still runs is left running (DESIGN.md, "What each store and log
keeps").
"""

import traceback

from repro.sim import Environment


def test_an_any_of_fired_by_one_event_leaves_no_callback_on_the_others():
    env = Environment()
    slow, fast, never = env.timeout(5), env.timeout(2), env.event()
    condition = env.any_of([slow, fast, never, never])
    env.run(until=3)
    assert condition.triggered and condition.ok
    assert slow.callbacks == [] and never.callbacks == []


def test_an_all_of_failed_by_one_event_leaves_no_callback_on_the_others():
    env = Environment()
    done, bad, never = env.timeout(1), env.event(), env.event()
    condition = env.all_of([done, bad, never])
    env.timeout(2).callbacks.append(
        lambda _timer: bad.fail(ValueError("refused")))
    env.run()
    assert not condition.ok and str(condition.value) == "refused"
    assert never.callbacks == []


def test_a_condition_over_a_processed_event_attaches_to_nothing():
    env = Environment()
    done, failed = env.timeout(1), env.event()
    failed.fail(ValueError("refused"))
    env.run()
    pending = env.event()
    assert env.any_of([pending, done]).value == {done: None}
    assert not env.all_of([pending, failed, done]).ok
    assert pending.callbacks == []
    # One not yet decided attaches as before.
    waiting = env.all_of([done, pending])
    assert pending.callbacks == [waiting._on_fire]
    pending.succeed("late")
    env.run()
    assert waiting.value == {done: None, pending: "late"}
    assert pending.callbacks == []


class Owner:
    """Holds its process, as a platform component does."""

    def __init__(self, env, work):
        self.process = env.process(work(self))


def test_a_failed_process_keeps_its_lines_but_not_its_locals():
    env = Environment()

    def work(owner):
        yield env.timeout(1)
        step(owner)

    def step(owner):
        raise ValueError(f"refused {owner!r}")

    process = Owner(env, work).process
    env.run()
    err = process.value
    assert [(frame.name, frame.line) for frame in
            traceback.extract_tb(err.__traceback__)] == [
        ("work", "step(owner)"),
        ("step", 'raise ValueError(f"refused {owner!r}")')]
    tb = err.__traceback__
    while tb is not None:
        assert tb.tb_frame.f_locals == {}
        tb = tb.tb_next


def server(env, replies, caught):
    """A loop that catches what it is asked to do and passes it on,
    like the federation bus's mailbox loop."""
    for reply in replies:
        yield env.timeout(1)
        try:
            raise ValueError("refused")
        except ValueError as err:
            caught.append(err)
            reply.fail(err)
    return "served all"


def test_a_failure_passed_on_by_a_live_generator_leaves_it_running():
    # The waiter fails with an exception whose traceback holds the
    # server's frame; the server is suspended in its next wait, and
    # clearing that frame would close it.
    env = Environment()
    replies = [env.event(), env.event()]
    loop = env.process(server(env, replies, []))

    def waiter(reply):
        yield reply

    waiters = [env.process(waiter(reply)) for reply in replies]
    env.run()
    assert loop.value == "served all"
    assert [str(w.value) for w in waiters] == ["refused", "refused"]


def test_a_failure_raised_again_leaves_its_first_catcher_running():
    env = Environment()
    replies, caught = [env.event(), env.event()], []
    loop = env.process(server(env, replies, caught))

    def reraise():
        yield env.timeout(1.5)  # the server waits for its second turn
        raise caught[0]

    failed = env.process(reraise())
    env.run()
    assert loop.value == "served all"
    assert failed.value is caught[0]
