"""Positive/negative AST fixtures for every static rule."""

import textwrap

from repro.staticcheck import analyze_source


def codes(source):
    findings, _suppressed = analyze_source(textwrap.dedent(source))
    return [f.code for f in findings]


# -- DET001: wall-clock reads ---------------------------------------------


def test_det001_flags_time_time():
    assert codes("""
        import time

        def f():
            return time.time()
    """) == ["DET001"]


def test_det001_flags_aliased_import():
    assert codes("""
        import time as clock

        def f():
            return clock.monotonic()
    """) == ["DET001"]


def test_det001_flags_datetime_now():
    assert codes("""
        from datetime import datetime

        def f():
            return datetime.now()
    """) == ["DET001"]


def test_det001_flags_time_sleep():
    assert codes("""
        import time

        def f():
            time.sleep(1.0)
    """) == ["DET001"]


def test_det001_allows_env_now_and_unrelated_attributes():
    assert codes("""
        class T:
            def f(self, env):
                self.timer.time()
                return env.now
    """) == []


# -- DET002: global random ------------------------------------------------


def test_det002_flags_module_level_draw():
    assert codes("""
        import random

        def f():
            return random.random()
    """) == ["DET002"]


def test_det002_flags_from_import_draw():
    assert codes("""
        from random import choice

        def f(xs):
            return choice(xs)
    """) == ["DET002"]


def test_det002_flags_unseeded_random_instance():
    assert codes("""
        import random

        def f():
            return random.Random()
    """) == ["DET002"]


def test_det002_allows_seeded_instance_and_stream_draws():
    assert codes("""
        import random

        def f(rng: random.Random, registry):
            seeded = random.Random(42)
            return seeded.random() + registry.stream("x").random()
    """) == []


# -- DET003: unordered iteration ------------------------------------------


def test_det003_flags_for_over_set_call():
    assert codes("""
        def f(xs):
            for x in set(xs):
                print(x)
    """) == ["DET003"]


def test_det003_flags_comprehension_over_set_literal():
    assert codes("""
        def f():
            return [x for x in {1, 2, 3}]
    """) == ["DET003"]


def test_det003_flags_set_method_results():
    assert codes("""
        def f(a, b):
            for x in a.intersection(b):
                print(x)
    """) == ["DET003"]


def test_det003_allows_sorted_wrapping_and_dict_iteration():
    assert codes("""
        def f(xs, d):
            for x in sorted(set(xs)):
                print(x)
            for v in d.values():
                print(v)
    """) == []


# -- SAF001: Interrupt swallowing ------------------------------------------


def test_saf001_flags_broad_except_without_reraise():
    assert codes("""
        def f(ev):
            try:
                risky(ev)
            except Exception:
                pass
    """) == ["SAF001"]


def test_saf001_flags_bare_except():
    assert codes("""
        def f(ev):
            try:
                risky(ev)
            except:
                return None
    """) == ["SAF001"]


def test_saf001_flags_interrupt_handler_that_swallows():
    assert codes("""
        from repro.sim.core import Interrupt

        def f(ev):
            try:
                risky(ev)
            except Interrupt:
                return None
    """) == ["SAF001"]


def test_saf001_allows_interrupt_reraise_before_broad_handler():
    assert codes("""
        from repro.sim.core import Interrupt

        def f(ev):
            try:
                risky(ev)
            except Interrupt:
                raise
            except Exception:
                return None
    """) == []


def test_saf001_allows_broad_handler_that_reraises():
    assert codes("""
        def f(ev):
            try:
                risky(ev)
            except Exception:
                cleanup()
                raise
    """) == []


def test_saf001_allows_narrow_handlers():
    assert codes("""
        def f(ev):
            try:
                risky(ev)
            except (ValueError, KeyError):
                return None
    """) == []


# -- SAF002: non-Event yields ----------------------------------------------


def test_saf002_flags_literal_yield_in_process():
    assert codes("""
        def proc(env):
            yield env.timeout(1)
            yield 5
    """) == ["SAF002"]


def test_saf002_flags_bare_yield_in_process():
    assert codes("""
        def proc(env):
            yield env.timeout(1)
            yield
    """) == ["SAF002"]


def test_saf002_ignores_plain_data_generators():
    assert codes("""
        def gen():
            yield 1
            yield 2
    """) == []


def test_saf002_ignores_nested_data_generator_inside_process():
    assert codes("""
        def proc(self):
            def data():
                yield 1

            yield self.env.timeout(1)
            yield self.registry.pull("node", "image")
    """) == []


# -- SAF003: unbounded retry loops ----------------------------------------


def test_saf003_flags_while_true_retry_with_backoff_sleep():
    assert codes("""
        def fetch(env, client):
            while True:
                try:
                    return client.get()
                except OSError:
                    yield env.timeout(1.0)
    """) == ["SAF003"]


def test_saf003_flags_self_env_backoff():
    assert codes("""
        class C:
            def drain(self):
                while True:
                    try:
                        self.flush()
                    except ValueError:
                        yield self.env.timeout(self.cooldown_s)
    """) == ["SAF003"]


def test_saf003_allows_bounded_for_range_retry():
    assert codes("""
        def fetch(env, client, policy):
            for attempt in range(policy.max_attempts):
                try:
                    return client.get()
                except OSError:
                    yield env.timeout(policy.backoff_s(attempt))
    """) == []


def test_saf003_allows_while_true_with_deadline_check():
    assert codes("""
        def fetch(env, client, deadline):
            while True:
                if deadline.expired:
                    raise TimeoutError()
                try:
                    return client.get()
                except OSError:
                    yield env.timeout(1.0)
    """) == []


def test_saf003_allows_loop_without_sleeping_handler():
    # Catching-and-counting without a backoff sleep is not a retry loop.
    assert codes("""
        def pump(env, source):
            while True:
                try:
                    source.poll()
                except ValueError:
                    continue
                yield env.timeout(1.0)
    """) == []


def test_saf003_ignores_sleeps_in_nested_functions():
    assert codes("""
        def outer(env):
            while True:
                def helper():
                    try:
                        work()
                    except OSError:
                        yield env.timeout(1.0)
                yield env.timeout(5.0)
    """) == []


# -- suppressions ----------------------------------------------------------


def test_suppression_with_reason_silences_finding():
    findings, suppressed = analyze_source(textwrap.dedent("""
        import time

        def f():
            return time.time()  # staticcheck: ignore[DET001] test fixture
    """))
    assert findings == []
    assert [f.code for f in suppressed] == ["DET001"]


def test_suppression_without_reason_is_inert_and_reported():
    # The marker is split so the analyzer's line scanner does not read
    # this literal as a (reasonless) suppression of this test file.
    findings, suppressed = analyze_source(textwrap.dedent("""
        import time

        def f():
            return time.time()  # staticcheck""" + """: ignore[DET001]
    """))
    assert sorted(f.code for f in findings) == ["DET001", "SUP001"]
    assert suppressed == []


def test_suppression_only_covers_listed_codes():
    findings, suppressed = analyze_source(textwrap.dedent("""
        import time

        def f():
            return time.time()  # staticcheck: ignore[DET002] wrong code
    """))
    assert [f.code for f in findings] == ["DET001"]
    assert suppressed == []


def test_suppression_covers_multiple_codes():
    findings, suppressed = analyze_source(textwrap.dedent("""
        import time
        import random

        def f():
            return time.time() + random.random()  # staticcheck: ignore[DET001,DET002] fixture
    """))
    assert findings == []
    assert sorted(f.code for f in suppressed) == ["DET001", "DET002"]


def test_syntax_error_is_reported_not_raised():
    findings, _suppressed = analyze_source("def broken(:\n    pass\n")
    assert [f.code for f in findings] == ["SYNTAX"]
