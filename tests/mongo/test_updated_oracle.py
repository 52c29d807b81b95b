"""``_updated``'s shallow copy against the deep copy it replaced.

The reference below is the former ``_updated``, kept verbatim: it
deep-copies the whole document on every write.  The
collection now copies only what a write changes (a shallow copy of the
document, a fresh list per pushed field, the update's values copied
once) and shares the rest with the version before, which is sound only
while no stored document is ever mutated.  Random sequences of
``$set``, ``$push``, ``$set`` + ``$push`` and whole-document
replacements, with nested values, run through a ``Collection`` and
through the reference; after each write the caller mutates the update
it passed and the document ``find_one`` returned, deep inside.  Every
read must equal the reference's, and every oplog entry must still read
as it did when it was appended.
"""

import copy
from typing import Any, Dict

from hypothesis import example, given, settings, strategies as st

from repro.errors import StoreError
from repro.mongo import Collection

from tests.conftest import examples


def _updated(document: Dict[str, Any],
             update: Dict[str, Any]) -> Dict[str, Any]:
    """A fresh document: ``document`` with ``update`` applied.

    ``update`` is ``$set`` and / or ``$push``, or a whole-document
    replacement that keeps the ``_id``.
    """
    operators = [key for key in update if key.startswith("$")]
    if not operators:
        replacement = copy.deepcopy(update)
        doc_id = replacement.setdefault("_id", document["_id"])
        if doc_id is not document["_id"] and doc_id != document["_id"]:
            raise StoreError(f"a replacement cannot change _id "
                             f"{document['_id']!r} to {doc_id!r}")
        return replacement
    if len(operators) != len(update):
        raise StoreError("cannot mix update operators with replacement")
    new = copy.deepcopy(document)
    for op, spec in copy.deepcopy(update).items():
        if not isinstance(spec, dict):
            raise StoreError(f"{op} needs a document of fields, not {spec!r}")
        if op == "$set":
            new.update(spec)
        elif op == "$push":
            for field, value in spec.items():
                current = new.setdefault(field, [])
                if not isinstance(current, list):
                    raise StoreError(f"$push target {field!r} is not a list")
                current.append(value)
        else:
            raise StoreError(f"unknown update operator {op!r}")
    return new


FIELDS = ("k", "tags", "meta")
VALUES = st.recursive(
    st.integers(0, 3),
    lambda inner: st.one_of(st.lists(inner, max_size=2),
                            st.dictionaries(st.sampled_from("ab"), inner,
                                            max_size=2)),
    max_leaves=4)
FIELD_VALUES = st.dictionaries(st.sampled_from(FIELDS), VALUES,
                               min_size=1, max_size=2)
UPDATES = st.one_of(
    st.builds(lambda s: {"$set": s}, FIELD_VALUES),
    st.builds(lambda p: {"$push": p}, FIELD_VALUES),
    st.builds(lambda s, p: {"$set": s, "$push": p}, FIELD_VALUES,
              FIELD_VALUES),
    FIELD_VALUES)  # a replacement


def scribble(value):
    """Mutate every list and dict inside ``value`` in place."""
    if isinstance(value, list):
        for item in value:
            scribble(item)
        value.append("scribbled")
    elif isinstance(value, dict):
        for item in list(value.values()):
            scribble(item)
        value["scribbled"] = True


def outcome(write):
    try:
        return write()
    except StoreError as err:
        return type(err).__name__


@settings(max_examples=examples(200), deadline=None)
@given(first=FIELD_VALUES, updates=st.lists(UPDATES, min_size=1,
                                            max_size=8))
@example(first={"tags": [[0]]},
         updates=[{"$push": {"tags": {"a": [1]}}},
                  {"$set": {"meta": [2]}, "$push": {"tags": 3}},
                  {"$push": {"meta": [4]}}, {"tags": []}])
@example(first={"k": 0}, updates=[{"$push": {"k": 1}}])  # onto an int
def test_a_write_copies_only_what_it_changes(first, updates):
    collection = Collection("jobs")
    collection.insert_one(dict(first, _id="a"))
    reference = copy.deepcopy(dict(first, _id="a"))
    appended = copy.deepcopy(collection.oplog)
    for update in updates:
        want = outcome(lambda: _updated(reference, update))
        got = outcome(lambda: collection.update_one({"_id": "a"}, update))
        if isinstance(want, str):
            assert got == want
        else:
            assert got == 1
            reference = want
        appended += copy.deepcopy(collection.oplog[len(appended):])
        scribble(update)
        scribble(collection.find_one({"_id": "a"}))
        assert repr(collection.find_one({"_id": "a"})) == repr(reference)
        assert repr(collection.oplog) == repr(appended)
