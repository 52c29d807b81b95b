"""Unit tests for the update forms a collection applies: ``$set`` /
``$push``, a whole-document replacement, and the malformed updates it
rejects with :class:`StoreError` before it stores or logs anything."""

import pytest

from repro.errors import StoreError
from repro.mongo import Collection


def _rejected(doc, update):
    """Insert ``doc``, apply ``update`` to it and expect a StoreError
    that leaves the stored document and the oplog as they were."""
    coll = Collection("jobs")
    coll.insert_one(doc)
    with pytest.raises(StoreError):
        coll.update_one({"_id": doc["_id"]}, update)
    assert coll.find_one({"_id": doc["_id"]}) == doc
    assert len(coll.oplog) == 1


@pytest.mark.parametrize("doc, update", [
    ({"_id": 1, "s": "PENDING"}, {"$push": {"s": "RUNNING"}}),
    ({"_id": 1, "s": None}, {"$push": {"s": "RUNNING"}}),
    ({"_id": 1, "s": {"a": 1}}, {"$push": {"s": "RUNNING"}}),
    ({"_id": 1, "s": 2}, {"$set": {"t": 1}, "$push": {"s": 3}}),
    ({"_id": 1, "s": 2}, {"$push": 5}),
    ({"_id": 1, "s": 2}, {"$set": ["s"]}),
])
def test_malformed_update_is_a_store_error(doc, update):
    # As MongoDB: "The field 's' must be an array but is of type string".
    _rejected(doc, update)


def test_update_replacement_preserves_id():
    coll = Collection("jobs")
    coll.insert_one({"_id": "x", "old": 1})
    assert coll.update_one({"_id": "x"}, {"new": 2}) == 1
    assert coll.find_one({"_id": "x"}) == {"_id": "x", "new": 2}
    assert coll.update_one({"_id": "x"}, {"_id": "x", "newer": 3}) == 1
    assert coll.find_one({"_id": "x"}) == {"_id": "x", "newer": 3}
    assert coll.count() == 1
    # As MongoDB: "the (immutable) field '_id' was found to have been altered".
    _rejected({"_id": "x", "old": 1}, {"_id": "y", "new": 2})


def test_update_cannot_mix_operators_and_replacement():
    _rejected({"_id": 1}, {"$set": {"a": 1}, "b": 2})


def test_update_unknown_operator():
    for op in ["$rename", "$inc", "$unset", "$pull"]:
        _rejected({"_id": 1, "a": 1}, {op: {"a": "b"}})
