"""The golden store records a missing file and names what moved."""

import json

import pytest

import tests.golden as golden

TIMELINE = [["QUEUED", 0.003], ["DEPLOYING", 1.386],
            ["PROCESSING", 28.641402893913448], ["STORING", 2881.8352731964],
            ["COMPLETED", 2882.7352731964006]]


def payload(timeline, revision):
    return {"counters": {"etcd_revision": revision},
            "jobs": {"warm-0": {"timeline": timeline}}}


def test_missing_golden_is_recorded_and_the_run_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(golden, "STORE", tmp_path)
    with pytest.raises(pytest.fail.Exception, match="recorded .*x.json"):
        golden.check("core/x", payload(TIMELINE, 74))
    text = (tmp_path / "core" / "x.json").read_text()
    assert '   ["STORING", 2881.8352731964],\n' in text
    assert json.loads(text) == payload(TIMELINE, 74)
    golden.check("core/x", payload(tuple(map(tuple, TIMELINE)), 74))


def test_a_moved_golden_names_every_moved_record(tmp_path, monkeypatch):
    monkeypatch.setattr(golden, "STORE", tmp_path)
    with pytest.raises(pytest.fail.Exception):
        golden.check("x", payload(TIMELINE, 74))
    lost_storing = TIMELINE[:3] + [["COMPLETED", 2882.2852731964003]]
    with pytest.raises(pytest.fail.Exception) as failure:
        golden.check("x", payload(lost_storing, 73))
    assert str(failure.value).splitlines()[1:] == [
        "  ['counters']['etcd_revision']: expected 74, got 73",
        "  ['jobs']['warm-0']['timeline'][3]: expected "
        '["STORING", 2881.8352731964], got ["COMPLETED", 2882.2852731964003]',
        "  ['jobs']['warm-0']['timeline'][4]: expected "
        '["COMPLETED", 2882.7352731964006], got absent']


def test_nan_is_rejected_because_it_equals_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(golden, "STORE", tmp_path)
    with pytest.raises(ValueError):
        golden.check("x", {"mean": float("nan")})
    assert not (tmp_path / "x.json").exists()
