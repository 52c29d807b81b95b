"""Unit tests for Mongo-style query matching and update application."""

import pytest

from repro.errors import StoreError
from repro.mongo.query import apply_update, matches, sort_documents


DOC = {
    "_id": "job-1",
    "user": "alice",
    "status": "RUNNING",
    "gpus": 4,
    "framework": {"name": "tensorflow", "version": "1.5"},
    "tags": ["vision", "resnet"],
}


def test_plain_equality():
    assert matches(DOC, {"user": "alice"})
    assert not matches(DOC, {"user": "bob"})


def test_dotted_path_equality():
    assert matches(DOC, {"framework.name": "tensorflow"})
    assert not matches(DOC, {"framework.name": "caffe"})


def test_missing_field_never_equals():
    assert not matches(DOC, {"missing": "x"})


def test_comparison_operators():
    assert matches(DOC, {"gpus": {"$gt": 2}})
    assert matches(DOC, {"gpus": {"$gte": 4}})
    assert matches(DOC, {"gpus": {"$lt": 8}})
    assert matches(DOC, {"gpus": {"$lte": 4}})
    assert matches(DOC, {"gpus": {"$ne": 5}})
    assert not matches(DOC, {"gpus": {"$gt": 4}})


def test_comparison_on_missing_field_is_false():
    assert not matches(DOC, {"missing": {"$gt": 0}})
    assert matches(DOC, {"missing": {"$ne": 1}})  # absent != 1


def test_in_nin():
    assert matches(DOC, {"status": {"$in": ["RUNNING", "PENDING"]}})
    assert matches(DOC, {"status": {"$nin": ["FAILED"]}})
    assert not matches(DOC, {"status": {"$in": ["FAILED"]}})


def test_exists():
    assert matches(DOC, {"user": {"$exists": True}})
    assert matches(DOC, {"missing": {"$exists": False}})
    assert not matches(DOC, {"missing": {"$exists": True}})


def test_list_membership_equality():
    assert matches(DOC, {"tags": "vision"})
    assert not matches(DOC, {"tags": "nlp"})


def test_and_or_nor():
    assert matches(DOC, {"$and": [{"user": "alice"}, {"gpus": 4}]})
    assert matches(DOC, {"$or": [{"user": "bob"}, {"gpus": 4}]})
    assert matches(DOC, {"$nor": [{"user": "bob"}, {"gpus": 99}]})
    assert not matches(DOC, {"$and": [{"user": "alice"}, {"gpus": 99}]})


def test_not_operator():
    assert matches(DOC, {"gpus": {"$not": {"$gt": 10}}})
    assert not matches(DOC, {"gpus": {"$not": {"$gt": 2}}})


def test_unknown_operator_raises():
    with pytest.raises(StoreError):
        matches(DOC, {"gpus": {"$regex": "x"}})
    with pytest.raises(StoreError):
        matches(DOC, {"$xor": []})


def test_incomparable_types_do_not_match():
    assert not matches(DOC, {"user": {"$gt": 3}})


def test_update_set_and_unset():
    doc = {"_id": 1, "a": 1, "b": {"c": 2}}
    apply_update(doc, {"$set": {"b.c": 3, "d": 4}})
    assert doc["b"]["c"] == 3 and doc["d"] == 4
    apply_update(doc, {"$unset": {"a": "", "b.c": ""}})
    assert "a" not in doc and "c" not in doc["b"]


def test_update_inc_creates_and_increments():
    doc = {"_id": 1}
    apply_update(doc, {"$inc": {"count": 2}})
    apply_update(doc, {"$inc": {"count": 3}})
    assert doc["count"] == 5


@pytest.mark.parametrize("doc, update", [
    ({"_id": 1, "s": "PENDING"}, {"$inc": {"s": 1}}),
    ({"_id": 1, "s": None}, {"$inc": {"s": 1}}),
    ({"_id": 1, "s": True}, {"$inc": {"s": 1}}),
    ({"_id": 1}, {"$inc": {"s": "1"}}),
    ({"_id": 1, "s": 2}, {"$unset": 5}),
    ({"_id": 1, "s": 2}, {"$set": ["s"]}),
])
def test_malformed_update_is_a_store_error(doc, update):
    # As MongoDB: "Cannot apply $inc to a value of non-numeric type".
    with pytest.raises(StoreError):
        apply_update(doc, update)


def test_update_push_and_pull():
    doc = {"_id": 1}
    apply_update(doc, {"$push": {"history": "PENDING"}})
    apply_update(doc, {"$push": {"history": "RUNNING"}})
    assert doc["history"] == ["PENDING", "RUNNING"]
    apply_update(doc, {"$pull": {"history": "PENDING"}})
    assert doc["history"] == ["RUNNING"]


def test_update_replacement_preserves_id():
    doc = {"_id": "x", "old": 1}
    apply_update(doc, {"new": 2})
    assert doc == {"_id": "x", "new": 2}


def test_update_cannot_mix_operators_and_replacement():
    with pytest.raises(StoreError):
        apply_update({"_id": 1}, {"$set": {"a": 1}, "b": 2})


def test_update_unknown_operator():
    with pytest.raises(StoreError):
        apply_update({"_id": 1}, {"$rename": {"a": "b"}})


def test_sort_single_and_multi_key():
    docs = [{"a": 2, "b": "x"}, {"a": 1, "b": "z"}, {"a": 2, "b": "a"}]
    by_a = sort_documents(docs, [("a", 1)])
    assert [d["a"] for d in by_a] == [1, 2, 2]
    multi = sort_documents(docs, [("a", -1), ("b", 1)])
    assert [(d["a"], d["b"]) for d in multi] == [(2, "a"), (2, "x"), (1, "z")]


def test_sort_missing_values_first():
    docs = [{"a": 1}, {}, {"a": 0}]
    ordered = sort_documents(docs, [("a", 1)])
    assert ordered[0] == {}
