"""Unit tests for the MongoDB collection."""

import copy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import repro.mongo.collection as collection_module
from repro.errors import DuplicateKeyError, StoreError
from repro.mongo import Collection


@pytest.fixture
def coll():
    return Collection("jobs")


def test_insert_respects_explicit_id(coll):
    coll.insert_one({"_id": "custom", "x": 1})
    assert coll.find_one({"_id": "custom"})["x"] == 1


def test_insert_duplicate_id_rejected(coll):
    coll.insert_one({"_id": "a"})
    with pytest.raises(DuplicateKeyError):
        coll.insert_one({"_id": "a"})


def test_insert_isolates_caller_document(coll):
    original = {"_id": "a", "user": "alice", "nested": {"a": 1}}
    coll.insert_one(original)
    original["nested"]["a"] = 999
    assert coll.find_one({"_id": "a"})["nested"]["a"] == 1


def test_find_returns_copies(coll):
    coll.insert_one({"_id": "a", "nested": {"x": 1}})
    found = coll.find_one({"_id": "a"})
    found["nested"]["x"] = 2
    assert coll.find_one({"_id": "a"})["nested"]["x"] == 1


def test_update_one_upsert_inserts(coll):
    modified = coll.update_one({"_id": "ghost"},
                               {"$set": {"status": "NEW"}}, upsert=True)
    assert modified == 1
    doc = coll.find_one({"_id": "ghost"})
    assert doc["status"] == "NEW"


def test_update_one_no_match_returns_zero(coll):
    assert coll.update_one({"_id": "missing"}, {"$set": {"a": 1}}) == 0
    assert coll.count() == 0


def test_replace_one(coll):
    coll.insert_one({"_id": "a", "old": True})
    assert coll.update_one({"_id": "a"}, {"fresh": True}) == 1
    doc = coll.find_one({"_id": "a"})
    assert doc == {"_id": "a", "fresh": True}


def test_replacement_update_keeps_a_none_id(coll):
    coll.insert_one({"_id": None, "k": 1})
    assert coll.update_one({"_id": None}, {"k": 2}) == 1
    assert coll.find_one({"_id": None}) == {"k": 2, "_id": None}


@pytest.mark.parametrize("query", [
    {},
    {"user": "alice"},
    {"_id": "a", "status": "RUNNING"},
    {"$or": [{"_id": "a"}]},
], ids=["empty", "other-field", "id-and-field", "operator"])
def test_a_query_other_than_id_equality_is_a_store_error(coll, query):
    coll.insert_one({"_id": "a", "user": "alice", "status": "RUNNING"})
    with pytest.raises(StoreError, match="by _id"):
        coll.find_one(query)
    with pytest.raises(StoreError, match="by _id"):
        coll.update_one(query, {"$set": {"status": "FAILED"}}, upsert=True)
    assert coll.find_one({"_id": "a"})["status"] == "RUNNING"
    assert len(coll.oplog) == 1


def test_oplog_records_all_writes(coll):
    """Every write appends one entry; the document an entry shares with
    the collection is never mutated afterwards, by a later write, a
    rejected one, or a caller holding what it passed in or read."""
    history, meta = [], {"owner": "alice"}
    writes = [
        lambda: coll.insert_one({"_id": "a", "history": history}),
        lambda: coll.update_one({"_id": "a"}, {"$set": {"meta": meta},
                                               "$push": {"history": 1}}),
        lambda: coll.update_one({"_id": "a"}, {"$push": {"history": 2}}),
        lambda: coll.update_one({"_id": "b"}, {"$set": {"v": 1}},
                                upsert=True),
        lambda: coll.update_one({"_id": "b"}, {"v": 2, "history": history}),
        lambda: coll.update_one({"_id": "b"}, {"$push": {"v": 3}}),
        lambda: coll.insert_one({"_id": "a"}),
    ]
    appended = []
    for step, write in enumerate(writes):
        try:
            write()
        except StoreError:
            pass
        appended += copy.deepcopy(coll.oplog[len(appended):])
        history.append("caller")
        meta["owner"] = f"mallory-{step}"
        coll.find_one({"_id": "a"})["history"].append("reader")
        assert repr(coll.oplog) == repr(appended)
        assert repr(coll._documents) == repr(
            {entry[1]["_id"]: entry[1] for entry in appended})
    ops = [entry[0] for entry in coll.oplog]
    assert ops == ["insert", "update", "update", "insert", "update"]


# -- the lookup by _id -----------------------------------------------------------


class ScanCollection:
    """The oracle: the documents in a list, each lookup a brute-force scan
    for a stored ``_id`` equal to the query's as a dict key is (the same
    object, or ``==``), with the collection's query check and updates."""

    def __init__(self):
        self.documents, self.oplog = [], []

    def _position(self, doc_id):
        return next((n for n, doc in enumerate(self.documents)
                     if doc["_id"] is doc_id or doc["_id"] == doc_id), None)

    def insert_one(self, document):
        doc = copy.deepcopy(document)
        if self._position(doc["_id"]) is not None:
            raise DuplicateKeyError(doc["_id"])
        self.documents.append(doc)
        self.oplog.append(("insert", doc, "jobs"))
        return doc["_id"]

    def update_one(self, query, update, upsert=False):
        doc_id = collection_module._document_id(query)
        n = self._position(doc_id)
        if n is not None:
            self.documents[n] = collection_module._updated(
                self.documents[n], update)
            self.oplog.append(("update", self.documents[n], "jobs"))
            return 1
        if upsert:
            self.documents.append(
                collection_module._updated({"_id": doc_id}, update))
            self.oplog.append(("insert", self.documents[-1], "jobs"))
            return 1
        return 0

    def find_one(self, query):
        n = self._position(collection_module._document_id(query))
        return None if n is None else copy.deepcopy(self.documents[n])


# 1, 1.0 and True are one key; NaN equals nothing, itself included, but a
# dict finds the very NaN object it holds.
_SMALL = hs.integers(0, 2)
_IDS = hs.one_of(
    hs.integers(0, 3), hs.sampled_from([0.0, 1.0, 2.5, float("nan")]),
    hs.booleans(), hs.sampled_from(["a", "b", "1"]), hs.none(),
    hs.frozensets(_SMALL, max_size=1))
_DOCS = hs.fixed_dictionaries(
    {"_id": _IDS},
    optional={"k": _SMALL, "tags": hs.lists(_SMALL, max_size=2)})
_QUERIES = hs.builds(lambda i: {"_id": i}, _IDS)
_UPDATES = hs.one_of(
    hs.builds(lambda v: {"$set": {"k": v}}, _SMALL),
    hs.builds(lambda v, t: {"$set": {"k": v}, "$push": {"tags": t}},
              _SMALL, _SMALL),
    hs.builds(lambda v: {"$push": {"k": v}}, _SMALL),  # onto an int: error
    hs.builds(lambda v: {"k": v, "replaced": True}, _SMALL),
    hs.builds(lambda i: {"_id": i, "replaced": True}, _IDS))
_OPS = hs.one_of(
    hs.tuples(hs.just("insert_one"), _DOCS),
    hs.tuples(hs.just("find_one"), _QUERIES),
    hs.tuples(hs.just("update_one"), _QUERIES, _UPDATES, hs.booleans()))


def _outcome(call, *args):
    try:
        return repr(call(*copy.deepcopy(args)))
    except (DuplicateKeyError, StoreError) as err:
        return type(err).__name__


@settings(max_examples=300, deadline=None)
@given(hs.lists(_DOCS, max_size=8), hs.lists(_OPS, max_size=8))
@example([{"_id": 1, "k": 0}], [("update_one", {"_id": True},
                                 {"$set": {"k": 2}}, True),
                                ("insert_one", {"_id": 1.0})])
@example([{"_id": None}], [("update_one", {"_id": None},
                            {"k": 0, "replaced": True}, False),
                           ("find_one", {"_id": None})])
@example([{"_id": "a"}, {"_id": "b"}],
         [("update_one", {"_id": "a"}, {"_id": "b", "replaced": True},
           False)])
def test_query_plan_is_equivalent_to_a_brute_force_scan(docs, ops):
    planned, oracle = Collection("jobs"), ScanCollection()
    for doc in docs:
        assert _outcome(planned.insert_one, doc) \
            == _outcome(oracle.insert_one, doc)
    # Each oplog entry as it was appended: the stored documents it shares
    # with the collection are never mutated afterwards.
    appended = copy.deepcopy(planned.oplog)
    for name, *args in ops:
        assert _outcome(getattr(planned, name), *args) \
            == _outcome(getattr(oracle, name), *args), (name, args)
        appended += copy.deepcopy(planned.oplog[len(appended):])
        # repr, not ==: it tells 1 from 1.0 and lets NaN equal NaN.
        assert repr(planned.oplog) == repr(oracle.oplog) == repr(appended)
        assert repr(list(planned._documents.values())) \
            == repr(oracle.documents)
