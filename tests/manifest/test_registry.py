"""The scenario registry: every scenario is looked up by name in SCENARIOS."""

import pytest

from repro.chaos.scenarios import get_scenario


def test_unknown_scenario_raises_with_known_names():
    with pytest.raises(KeyError) as excinfo:
        get_scenario("no-such-scenario")
    message = excinfo.value.args[0]
    assert "no-such-scenario" in message
    assert "etcd-leader-kill" in message
