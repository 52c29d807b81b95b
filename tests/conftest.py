"""Suite-wide hypothesis profiles.

Tier-1 runs each property test with the example budget written beside
it.  ``--hypothesis-profile=long`` - the weekly CI job over the oracle
suites, with a new integer ``--hypothesis-seed`` each week - runs ten
times as many, without a deadline.  A budget that should scale is written
``max_examples=examples(60)``.
"""

from hypothesis import settings

_DEFAULT_EXAMPLES = settings.default.max_examples

settings.register_profile("long", max_examples=10 * _DEFAULT_EXAMPLES,
                          deadline=None)


def examples(tier1: int) -> int:
    """``tier1`` examples under the default profile, 10x under ``long``
    (read when the test module is imported, after the profile loaded)."""
    return tier1 * settings.default.max_examples // _DEFAULT_EXAMPLES
