"""Positive/negative AST fixtures for every static rule."""

import textwrap

from repro.staticcheck import analyze_manifest_source, analyze_source


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
            return time.time()  # staticcheck: ignore[DET003] wrong code
    """))
    assert [f.code for f in findings] == ["DET001"]
    assert suppressed == []


def test_suppression_covers_multiple_codes():
    findings, suppressed = analyze_source(textwrap.dedent("""
        import time

        def f():
            return [time.time() for _ in {1}]  # staticcheck: ignore[DET001,DET003] fixture
    """))
    assert findings == []
    assert sorted(f.code for f in suppressed) == ["DET001", "DET003"]


def test_suppression_naming_an_unknown_code_is_reported():
    # Split marker, as above: a typo'd code and a retired one each
    # silence nothing, and each is reported by name.
    findings, suppressed = analyze_source(textwrap.dedent("""
        import time

        def f():
            return time.time()  # staticcheck""" + """: ignore[DET01,SAF004] typo
    """))
    assert sorted((f.code, f.line) for f in findings) == [
        ("DET001", 5), ("SUP001", 5), ("SUP001", 5)]
    messages = " ".join(f.message for f in findings if f.code == "SUP001")
    assert "DET01" in messages and "SAF004" in messages
    assert suppressed == []


def test_syntax_error_is_reported_not_raised():
    findings, _suppressed = analyze_source("def broken(:\n    pass\n")
    assert [f.code for f in findings] == ["SYNTAX"]


def test_manifest_yaml_errors_are_positioned_syntax_findings():
    for source, line, message in (
            ("kind: chaos\nname: [x\n", 3, "cannot parse"),
            ("kind: chaos\n---\nkind: chaos\n", 3, "single YAML document")):
        findings, _suppressed = analyze_manifest_source(source, "m.yaml")
        assert [(f.code, f.line) for f in findings] == [("SYNTAX", line)]
        assert message in findings[0].message
