"""An in-memory MongoDB collection, addressed by ``_id``.

It serves the operations FfDL issues (DESIGN.md "Store operations"):
insert a document that carries its ``_id``; update one by ``_id`` with
``$set`` / ``$push``, a whole-document replacement that keeps the
``_id``, or ``$set`` with upsert; find one by ``_id``.  A query is
exactly ``{"_id": value}``; anything else raises :class:`StoreError`
rather than match the wrong document.  A write stores a fresh document,
never mutated in place afterwards, which a replica set's oplog and its
secondaries share; reads return copies.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, MutableSequence, Optional

from repro.errors import DuplicateKeyError, StoreError
from repro.sim.race import note_read, note_write


def _document_id(query: Dict[str, Any]) -> Any:
    """The ``_id`` a query names; it must be exactly ``{"_id": value}``."""
    if len(query) != 1 or "_id" not in query:
        raise StoreError(f"a query names one document by _id, not {query!r}")
    return query["_id"]


#: Immutable scalars a document holds: a copy shares them.
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _copy(value: Any) -> Any:
    """A deep copy of a JSON-shaped ``value`` that shares no ``dict`` or
    ``list`` with it: each of those is rebuilt by its exact type, a
    scalar is shared, and anything else goes to ``copy.deepcopy``.
    Unlike ``copy.deepcopy`` it keeps no memo, so a container that
    appears twice in ``value`` is copied twice; nobody can tell,
    because a stored document is never mutated."""
    cls = type(value)
    # Most items are scalars: sharing them inline saves a call each.
    if cls is dict:
        return {key: item if type(item) in _SCALARS else _copy(item)
                for key, item in value.items()}
    if cls is list:
        return [item if type(item) in _SCALARS else _copy(item)
                for item in value]
    if cls in _SCALARS:
        return value
    return copy.deepcopy(value)


def _updated(document: Dict[str, Any],
             update: Dict[str, Any]) -> Dict[str, Any]:
    """A fresh document: ``document`` with ``update`` applied.

    ``update`` is ``$set`` and / or ``$push``, or a whole-document
    replacement that keeps the ``_id``.
    """
    operators = [key for key in update if key.startswith("$")]
    if not operators:
        replacement = _copy(update)
        doc_id = replacement.setdefault("_id", document["_id"])
        if doc_id is not document["_id"] and doc_id != document["_id"]:
            raise StoreError(f"a replacement cannot change _id "
                             f"{document['_id']!r} to {doc_id!r}")
        return replacement
    if len(operators) != len(update):
        raise StoreError("cannot mix update operators with replacement")
    # A stored document is never mutated, so the fresh one shares every
    # value it does not change: a shallow copy, a fresh list per pushed
    # field, and the update's values copied once.
    new = dict(document)
    for op, spec in _copy(update).items():
        if not isinstance(spec, dict):
            raise StoreError(f"{op} needs a document of fields, not {spec!r}")
        if op == "$set":
            new.update(spec)
        elif op == "$push":
            for field, value in spec.items():
                current = new.get(field, [])
                if not isinstance(current, list):
                    raise StoreError(f"$push target {field!r} is not a list")
                new[field] = current + [value]
        else:
            raise StoreError(f"unknown update operator {op!r}")
    return new


class Collection:
    """A named collection of documents keyed by ``_id``.

    ``env``/``race_label`` (threaded in by :class:`MongoDatabase` when
    it is bound to a simulation) let document accesses feed the runtime
    race detector; both default to None and cost nothing when unset.
    ``on_write`` is called after each write (a replica set's tail wakes
    on it).  ``oplog`` is the log each write appends to: its database's
    (a standalone database's keeps nothing), or, for a bare collection,
    a list of its own.
    """

    def __init__(self, name: str, env=None,
                 race_label: Optional[str] = None,
                 oplog: Optional[MutableSequence[tuple]] = None,
                 on_write: Optional[Callable[[], None]] = None):
        self.name = name
        self._env = env
        self._race_label = race_label
        self._documents: Dict[Any, Dict[str, Any]] = {}
        #: Change log for replication: (op, document, collection name).
        self.oplog: MutableSequence[tuple] = [] if oplog is None else oplog
        self._on_write = on_write

    def _note_write(self, doc_id: Any, site: str) -> None:
        if self._race_label is not None:
            note_write(self._env, self._race_label,
                       f"{self.name}/{doc_id}", site)

    def _note_read(self, doc_id: Any, site: str) -> None:
        if self._race_label is not None:
            note_read(self._env, self._race_label,
                      f"{self.name}/{doc_id}", site)

    # -- writes ------------------------------------------------------------------

    def insert_one(self, document: Dict[str, Any]) -> Any:
        doc = _copy(document)
        if doc["_id"] in self._documents:
            raise DuplicateKeyError(f"_id {doc['_id']!r} already exists")
        self._store("insert", doc, "Collection.insert_one")
        return doc["_id"]

    def _store(self, op: str, doc: Dict[str, Any], site: str) -> None:
        """Store the fresh document ``doc`` under its ``_id`` and log it."""
        self._note_write(doc["_id"], site)
        self._documents[doc["_id"]] = doc
        self.oplog.append((op, doc, self.name))
        if self._on_write is not None:
            self._on_write()

    def update_one(self, query: Dict[str, Any], update: Dict[str, Any],
                   upsert: bool = False) -> int:
        """Update the document ``query`` names; returns the number of
        documents modified.  With ``upsert`` an absent one is inserted."""
        doc_id = _document_id(query)
        doc = self._documents.get(doc_id)
        if doc is not None:
            self._store("update", _updated(doc, update),
                        "Collection.update_one")
            return 1
        if upsert:
            self._store("insert", _updated({"_id": doc_id}, update),
                        "Collection.update_one")
            return 1
        return 0

    # -- reads -------------------------------------------------------------------

    def find_one(self, query: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        doc = self._documents.get(_document_id(query))
        if doc is None:
            return None
        self._note_read(doc["_id"], "Collection.find_one")
        return _copy(doc)

    def count(self) -> int:
        return len(self._documents)

    # -- replication support --------------------------------------------------------

    def apply_oplog_entry(self, entry: tuple) -> None:
        """Apply a change-log entry, sharing its document (secondaries)."""
        document = entry[1]
        self._documents[document["_id"]] = document
