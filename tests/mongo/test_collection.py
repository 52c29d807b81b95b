"""Unit tests for the MongoDB collection."""

import copy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import repro.mongo.collection as collection_module
from repro.errors import DuplicateKeyError, KeyNotFoundError
from repro.mongo import Collection
from repro.mongo.query import matches, sort_documents


@pytest.fixture
def coll():
    return Collection("jobs")


def test_insert_assigns_id(coll):
    doc_id = coll.insert_one({"user": "alice"})
    assert doc_id == "jobs-1"
    assert coll.get(doc_id)["user"] == "alice"


def test_insert_respects_explicit_id(coll):
    coll.insert_one({"_id": "custom", "x": 1})
    assert coll.get("custom")["x"] == 1


def test_insert_duplicate_id_rejected(coll):
    coll.insert_one({"_id": "a"})
    with pytest.raises(DuplicateKeyError):
        coll.insert_one({"_id": "a"})


def test_insert_isolates_caller_document(coll):
    original = {"user": "alice", "nested": {"a": 1}}
    doc_id = coll.insert_one(original)
    original["nested"]["a"] = 999
    assert coll.get(doc_id)["nested"]["a"] == 1


def test_find_returns_copies(coll):
    coll.insert_one({"_id": "a", "nested": {"x": 1}})
    found = coll.find_one({"_id": "a"})
    found["nested"]["x"] = 2
    assert coll.get("a")["nested"]["x"] == 1


def test_distinct_returns_copies(coll):
    coll.insert_one({"_id": "a", "nested": {"x": 1}})
    coll.distinct("nested")[0]["x"] = 2
    assert coll.get("a")["nested"]["x"] == 1


def test_find_with_query_sort_limit(coll):
    for i, user in enumerate(["carol", "alice", "bob", "alice"]):
        coll.insert_one({"user": user, "seq": i})
    alices = coll.find({"user": "alice"}, sort=[("seq", -1)], limit=1)
    assert len(alices) == 1 and alices[0]["seq"] == 3


def test_get_missing_raises(coll):
    with pytest.raises(KeyNotFoundError):
        coll.get("nope")


def test_update_one_modifies_first_match_only(coll):
    coll.insert_many([{"k": 1, "status": "old"}, {"k": 1, "status": "old"}])
    assert coll.update_one({"k": 1}, {"$set": {"status": "new"}}) == 1
    assert coll.count({"status": "new"}) == 1


def test_update_many(coll):
    coll.insert_many([{"k": 1}, {"k": 1}, {"k": 2}])
    assert coll.update_many({"k": 1}, {"$set": {"seen": True}}) == 2
    assert coll.count({"seen": True}) == 2


def test_update_one_upsert_inserts(coll):
    modified = coll.update_one({"name": "ghost"},
                               {"$set": {"status": "NEW"}}, upsert=True)
    assert modified == 1
    doc = coll.find_one({"name": "ghost"})
    assert doc["status"] == "NEW"


def test_update_one_no_match_returns_zero(coll):
    assert coll.update_one({"missing": 1}, {"$set": {"a": 1}}) == 0


def test_replace_one(coll):
    coll.insert_one({"_id": "a", "old": True})
    assert coll.replace_one({"_id": "a"}, {"fresh": True}) == 1
    doc = coll.get("a")
    assert doc == {"_id": "a", "fresh": True}


def test_delete_one_and_many(coll):
    coll.insert_many([{"k": 1}, {"k": 1}, {"k": 2}])
    assert coll.delete_one({"k": 1}) == 1
    assert coll.count() == 2
    assert coll.delete_many({"k": {"$in": [1, 2]}}) == 2
    assert coll.count() == 0


def test_unique_index_blocks_duplicates(coll):
    coll.create_index("name", unique=True)
    coll.insert_one({"name": "job-a"})
    with pytest.raises(DuplicateKeyError):
        coll.insert_one({"name": "job-a"})
    coll.insert_one({"name": "job-b"})  # distinct value fine
    coll.insert_one({"other": 1})  # missing value fine


def test_unique_index_on_existing_duplicate_data_rejected(coll):
    coll.insert_many([{"name": "dup"}, {"name": "dup"}])
    with pytest.raises(DuplicateKeyError):
        coll.create_index("name", unique=True)


def test_unique_index_checked_on_update(coll):
    coll.create_index("name", unique=True)
    coll.insert_one({"_id": "a", "name": "x"})
    coll.insert_one({"_id": "b", "name": "y"})
    with pytest.raises(DuplicateKeyError):
        coll.update_one({"_id": "b"}, {"$set": {"name": "x"}})


def test_unique_index_checks_a_document_whose_id_is_none(coll):
    coll.create_index("name", unique=True)
    coll.insert_one({"_id": None, "name": "x"})
    with pytest.raises(DuplicateKeyError):
        coll.insert_one({"name": "x"})


def test_replacement_update_keeps_a_none_id(coll):
    coll.insert_one({"_id": None, "k": 1})
    assert coll.update_one({"_id": None}, {"k": 2}) == 1
    assert coll.find() == [{"k": 2, "_id": None}]


def test_negative_limit_slices_with_or_without_sort(coll):
    coll.insert_many([{"_id": n, "k": n} for n in range(3)])
    assert [d["_id"] for d in coll.find(limit=-1)] == [0, 1]
    assert [d["_id"] for d in coll.find(sort=[("k", -1)], limit=-1)] == [2, 1]


def test_distinct(coll):
    coll.insert_many([{"u": "a"}, {"u": "b"}, {"u": "a"}])
    assert sorted(coll.distinct("u")) == ["a", "b"]


def test_count_with_and_without_query(coll):
    coll.insert_many([{"k": 1}, {"k": 2}])
    assert coll.count() == 2
    assert coll.count({"k": 1}) == 1


def test_oplog_records_all_writes(coll):
    coll.insert_one({"_id": "a", "v": 1})
    coll.update_one({"_id": "a"}, {"$set": {"v": 2}})
    coll.delete_one({"_id": "a"})
    ops = [entry[0] for entry in coll.oplog]
    assert ops == ["insert", "update", "delete"]


# -- the query plan --------------------------------------------------------------


class ScanCollection(Collection):
    """The oracle: a collection whose only plan is the brute-force scan
    ``[d for d in docs if matches(d, q)]``, with ``find`` copying every
    match before it sorts and slices."""

    def _iter_matches(self, query):
        return iter([doc for doc in self._documents.values()
                     if matches(doc, query)])

    def find(self, query=None, sort=None, limit=None):
        results = sort_documents(
            [copy.deepcopy(doc) for doc in self._iter_matches(query or {})],
            sort)
        return results if limit is None else results[:limit]


# 1, 1.0 and True are one key; NaN equals nothing, itself included; a
# frozenset key equals an (unhashable) set in a query.
_SMALL = hs.integers(0, 2)
_IDS = hs.one_of(
    hs.integers(0, 3), hs.sampled_from([0.0, 1.0, 2.5, float("nan")]),
    hs.booleans(), hs.sampled_from(["a", "b", "1"]), hs.none(),
    hs.frozensets(_SMALL, max_size=1))
_DOCS = hs.fixed_dictionaries(
    {"_id": _IDS},
    optional={"k": _SMALL, "tags": hs.lists(_SMALL, max_size=2),
              "n": hs.fixed_dictionaries({"a": _SMALL})})
_PREDICATES = hs.one_of(
    hs.builds(lambda v: {"k": v}, _SMALL),
    hs.builds(lambda v: {"n.a": v}, _SMALL),
    hs.builds(lambda v: {"tags": v}, _SMALL),
    hs.builds(lambda v: {"k": {"$gte": v}}, _SMALL))
_ID_OPERATORS = hs.one_of(
    hs.builds(lambda ids: {"$in": ids}, hs.lists(_IDS, max_size=3)),
    hs.builds(lambda op, v: {op: v},
              hs.sampled_from(["$eq", "$ne", "$gt", "$lte"]), _IDS),
    hs.lists(_IDS, max_size=2),         # a list is never a stored _id
    hs.just({"a": 1}),                  # nor is a document
    hs.sets(_SMALL, max_size=1))        # unhashable: the plan must scan
_QUERIES = hs.one_of(
    hs.builds(lambda i: {"_id": i}, _IDS),
    hs.builds(lambda i, p: {"_id": i, **p}, _IDS, _PREDICATES),
    hs.builds(lambda c: {"_id": c}, _ID_OPERATORS),
    hs.builds(lambda i, p: {"$or": [{"_id": i}, p]}, _IDS, _PREDICATES),
    hs.builds(lambda i, p: {"_id": i, "$or": [p, {"k": 0}]},
              _IDS, _PREDICATES),
    _PREDICATES, hs.just({}))
_UPDATES = hs.one_of(
    hs.builds(lambda v: {"$set": {"k": v}}, _SMALL),
    hs.just({"$inc": {"n.a": 1}}),
    hs.builds(lambda v: {"k": v, "replaced": True}, _SMALL))
_SORTS = hs.sampled_from([None, [("k", 1)], [("k", -1)]])
_LIMITS = hs.sampled_from([None, -1, 0, 1, 2])  # negative: a plain slice
_OPS = hs.one_of(
    hs.tuples(hs.just("find"), _QUERIES, _SORTS, _LIMITS),
    hs.tuples(hs.just("find_one"), _QUERIES, _SORTS),
    hs.tuples(hs.just("count"), _QUERIES),
    hs.tuples(hs.just("update_one"), _QUERIES, _UPDATES, hs.booleans()),
    hs.tuples(hs.just("replace_one"), _QUERIES,
              hs.builds(lambda v: {"k": v}, _SMALL)),
    hs.tuples(hs.just("delete_one"), _QUERIES),
    hs.tuples(hs.just("delete_many"), _QUERIES))


def _outcome(call, *args):
    try:
        return repr(call(*copy.deepcopy(args)))
    except (DuplicateKeyError, TypeError) as err:
        # An upsert may seed an _id that exists or cannot be a key.
        return type(err).__name__


@settings(max_examples=300, deadline=None)
@given(hs.lists(_DOCS, max_size=8), hs.lists(_OPS, max_size=8))
@example([{"_id": frozenset({1})}], [("delete_one", {"_id": {1}})])
@example([{"_id": 1, "k": 0}], [("update_one", {"_id": True, "k": 1},
                                 {"$set": {"k": 2}}, True)])
@example([{"_id": None}], [("update_one", {"_id": None},
                            {"k": 0, "replaced": True}, False),
                           ("find", {}, None, None)])
def test_query_plan_is_equivalent_to_a_brute_force_scan(docs, ops):
    planned, oracle = Collection("jobs"), ScanCollection("jobs")
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
        assert repr(planned._documents) == repr(oracle._documents)


def test_id_equality_evaluates_one_document_and_a_scan_all(monkeypatch):
    """Deterministic tripwire for the plan's cost: ``matches``
    evaluations per call on a 5 000-document collection."""
    coll = Collection("jobs")
    coll.insert_many({"_id": f"job-{n}", "k": n % 10, "n": {"a": n}}
                     for n in range(5000))
    evaluations = []

    def counting(document, query):
        evaluations.append(document["_id"])
        return matches(document, query)

    monkeypatch.setattr(collection_module, "matches", counting)

    def evaluated(call, *args):
        del evaluations[:]
        call(*args)
        return len(evaluations)

    by_id = {"_id": "job-4999"}
    assert evaluated(coll.find_one, by_id) == 1
    assert evaluated(coll.update_one, by_id, {"$set": {"k": 3}}) == 1
    assert evaluated(coll.update_one, {"_id": "job-4999", "k": 4},
                     {"$set": {"k": 5}}) == 1  # extra predicate: no match
    assert coll.get("job-4999")["k"] == 3
    assert evaluated(coll.find_one, {"_id": "absent"}) == 0
    assert evaluated(coll.delete_one, by_id) == 1
    assert evaluated(coll.count, {"n.a": 17}) == 4999
    assert evaluated(coll.count, {"_id": {"$in": ["job-1"]}}) == 4999
    # An unsorted limit stops at the k-th match (job-7, job-17, job-27) ...
    assert evaluated(coll.find, {"k": 7}, None, 3) == 28
    # ... a sorted one has to see every match first.
    assert evaluated(coll.find, {"k": 7}, [("n.a", -1)], 3) == 4999
