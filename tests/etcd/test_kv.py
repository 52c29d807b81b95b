"""Unit tests for the single-node etcd store."""

import pytest

from repro.errors import LeaseExpiredError
from repro.etcd import EtcdStore
from repro.sim import Environment


@pytest.fixture
def store():
    return EtcdStore(Environment())


def test_put_then_get(store):
    store.put("a", 1)
    kv = store.get("a")
    assert kv.value == 1
    assert kv.version == 1


def test_get_missing_returns_none(store):
    assert store.get("nope") is None


def test_put_bumps_version_and_mod_revision(store):
    first = store.put("a", 1)
    second = store.put("a", 2)
    assert second.version == 2
    assert second.mod_revision > first.mod_revision
    assert second.create_revision == first.create_revision


def test_revision_is_global(store):
    store.put("a", 1)
    store.put("b", 1)
    assert store.get("b").mod_revision == 2


def test_delete_returns_count(store):
    store.put("a", 1)
    assert store.delete("a") == 1
    assert store.delete("a") == 0
    assert store.get("a") is None


def test_delete_bumps_revision(store):
    store.put("a", 1)
    rev = store.revision
    store.delete("a")
    assert store.revision == rev + 1


def test_range_returns_sorted_prefix_matches(store):
    store.put("jobs/2", "b")
    store.put("jobs/1", "a")
    store.put("other/1", "x")
    result = store.range("jobs/")
    assert [kv.key for kv in result] == ["jobs/1", "jobs/2"]


def test_delete_prefix(store):
    store.put("jobs/1", 1)
    store.put("jobs/2", 2)
    store.put("keep", 3)
    assert store.delete_prefix("jobs/") == 2
    assert store.keys() == ["keep"]


def test_put_with_dead_lease_rejected(store):
    with pytest.raises(LeaseExpiredError):
        store.put("a", 1, lease_id=999)


def test_len_counts_keys(store):
    store.put("a", 1)
    store.put("b", 2)
    assert len(store) == 2
