"""An in-memory MongoDB collection.

Documents are plain dicts keyed by ``_id`` (auto-assigned when omitted).
Supports the query/update subset in :mod:`repro.mongo.query`, unique
indexes, sort/limit, and upserts — everything FfDL's metadata layer uses.
A write stores a fresh document, never mutated in place afterwards, which
the oplog and every secondary share; reads return copies.
"""

from __future__ import annotations

import copy
import itertools
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import DuplicateKeyError, KeyNotFoundError
from repro.mongo.query import (
    MISSING,
    apply_update,
    get_path,
    matches,
    sort_documents,
)
from repro.sim.race import note_read, note_write


class Collection:
    """A named collection of documents.

    ``env``/``race_label`` (threaded in by :class:`MongoDatabase` when
    it is bound to a simulation) let document accesses feed the runtime
    race detector; both default to None and cost nothing when unset.
    """

    def __init__(self, name: str, env=None,
                 race_label: Optional[str] = None,
                 oplog: Optional[List[tuple]] = None):
        self.name = name
        self._env = env
        self._race_label = race_label
        self._documents: Dict[Any, Dict[str, Any]] = {}
        self._id_counter = itertools.count(1)
        self._unique_indexes: List[str] = []
        #: Change log for replication: (op, payload, collection name).
        self.oplog: List[tuple] = [] if oplog is None else oplog

    def _note_write(self, doc_id: Any, site: str) -> None:
        if self._race_label is not None:
            note_write(self._env, self._race_label,
                       f"{self.name}/{doc_id}", site)

    def _note_read(self, doc_id: Any, site: str) -> None:
        if self._race_label is not None:
            note_read(self._env, self._race_label,
                      f"{self.name}/{doc_id}", site)

    # -- index management -----------------------------------------------------

    def create_index(self, field: str, unique: bool = False) -> None:
        """Declare an index.  Only unique indexes change behaviour here;
        they do not speed anything up.  The query plan is fixed: ``_id``
        equality is a dict lookup, everything else scans in insertion
        order."""
        if unique and field not in self._unique_indexes:
            for doc in self._documents.values():
                self._check_unique(field, doc, exclude_id=doc["_id"])
            self._unique_indexes.append(field)

    def _check_unique(self, field: str, candidate: Dict[str, Any],
                      exclude_id: Any = None) -> None:
        value = get_path(candidate, field)
        if value is MISSING:
            return
        for doc in self._documents.values():
            if doc["_id"] == exclude_id:
                continue
            if get_path(doc, field) == value:
                raise DuplicateKeyError(
                    f"duplicate value {value!r} for unique index "
                    f"{field!r} in {self.name!r}")

    def _check_all_unique(self, candidate: Dict[str, Any],
                          exclude_id: Any = None) -> None:
        for field in self._unique_indexes:
            self._check_unique(field, candidate, exclude_id)

    # -- writes ------------------------------------------------------------------

    def insert_one(self, document: Dict[str, Any]) -> Any:
        doc = copy.deepcopy(document)
        if "_id" not in doc:
            doc["_id"] = f"{self.name}-{next(self._id_counter)}"
        if doc["_id"] in self._documents:
            raise DuplicateKeyError(f"_id {doc['_id']!r} already exists")
        self._store("insert", doc["_id"], doc, "Collection.insert_one")
        return doc["_id"]

    def insert_many(self, documents: Iterable[Dict[str, Any]]) -> List[Any]:
        return [self.insert_one(doc) for doc in documents]

    def _store(self, op: str, doc_id: Any, doc: Dict[str, Any],
               site: str) -> None:
        """Store the fresh document ``doc`` under ``doc_id`` and log it."""
        self._check_all_unique(doc, exclude_id=doc_id)
        self._note_write(doc_id, site)
        self._documents[doc_id] = doc
        self.oplog.append((op, doc, self.name))

    def update_one(self, query: Dict[str, Any], update: Dict[str, Any],
                   upsert: bool = False) -> int:
        """Update the first match; returns the number of documents modified."""
        for doc in self._iter_matches(query):
            new = apply_update(copy.deepcopy(doc), copy.deepcopy(update))
            self._store("update", doc["_id"], new, "Collection.update_one")
            return 1
        if upsert:
            seed = {k: v for k, v in query.items()
                    if not k.startswith("$") and not isinstance(v, dict)}
            self.insert_one(apply_update(seed, update))
            return 1
        return 0

    def update_many(self, query: Dict[str, Any],
                    update: Dict[str, Any]) -> int:
        spec = copy.deepcopy(update)
        docs = list(self._iter_matches(query))
        for doc in docs:
            new = apply_update(copy.deepcopy(doc), spec)
            self._store("update", doc["_id"], new, "Collection.update_many")
        return len(docs)

    def replace_one(self, query: Dict[str, Any],
                    replacement: Dict[str, Any]) -> int:
        for doc in self._iter_matches(query):
            new_doc = copy.deepcopy(replacement)
            new_doc["_id"] = doc["_id"]
            self._store("update", doc["_id"], new_doc,
                        "Collection.replace_one")
            return 1
        return 0

    def delete_one(self, query: Dict[str, Any]) -> int:
        for doc in self._iter_matches(query):
            self._note_write(doc["_id"], "Collection.delete_one")
            del self._documents[doc["_id"]]
            self.oplog.append(("delete", doc["_id"], self.name))
            return 1
        return 0

    def delete_many(self, query: Dict[str, Any]) -> int:
        victims = [doc["_id"] for doc in self._iter_matches(query)]
        for doc_id in victims:
            self._note_write(doc_id, "Collection.delete_many")
            del self._documents[doc_id]
            self.oplog.append(("delete", doc_id, self.name))
        return len(victims)

    # -- reads -------------------------------------------------------------------

    def find(self, query: Optional[Dict[str, Any]] = None,
             sort: Optional[list] = None,
             limit: Optional[int] = None) -> List[Dict[str, Any]]:
        matched = self._iter_matches(query or {})
        if not sort and limit is not None and limit >= 0:
            # No order to establish: stop at the limit-th match.
            matched = itertools.islice(matched, limit)
        results = sort_documents(
            [copy.deepcopy(doc) for doc in matched], sort)[:limit]
        for doc in results:
            self._note_read(doc["_id"], "Collection.find")
        return results

    def find_one(self,
                 query: Optional[Dict[str, Any]] = None,
                 sort: Optional[list] = None) -> Optional[Dict[str, Any]]:
        results = self.find(query, sort=sort, limit=1)
        return results[0] if results else None

    def get(self, doc_id: Any) -> Dict[str, Any]:
        """Fetch by _id; raises if absent."""
        self._note_read(doc_id, "Collection.get")
        doc = self._documents.get(doc_id)
        if doc is None:
            raise KeyNotFoundError(f"no document {doc_id!r} in {self.name!r}")
        return copy.deepcopy(doc)

    def count(self, query: Optional[Dict[str, Any]] = None) -> int:
        if not query:
            return len(self._documents)
        return sum(1 for _ in self._iter_matches(query))

    def distinct(self, field: str,
                 query: Optional[Dict[str, Any]] = None) -> List[Any]:
        seen = []
        for doc in self._iter_matches(query or {}):
            value = get_path(doc, field)
            if value is not MISSING and value not in seen:
                seen.append(value)
        return copy.deepcopy(seen)

    def _iter_matches(self, query: Dict[str, Any]):
        """Yield the stored documents satisfying ``query``, in insertion
        order.  ``_id`` constrained by plain equality names at most one
        document, and ``_documents`` is keyed by it."""
        candidates: Iterable[Dict[str, Any]] = self._documents.values()
        doc_id = query.get("_id", MISSING)
        if doc_id is not MISSING and not isinstance(doc_id, (dict, list)):
            try:
                candidates = [self._documents[doc_id]]
            except KeyError:
                candidates = ()
            except TypeError:
                pass  # unhashable: may still equal a stored key, so scan
        for doc in candidates:
            if matches(doc, query):
                yield doc

    # -- replication support --------------------------------------------------------

    def apply_oplog_entry(self, entry: tuple) -> None:
        """Apply a change-log entry, sharing its document (secondaries)."""
        op, payload, _ = entry
        if op == "delete":
            self._documents.pop(payload, None)
        else:
            self._documents[payload["_id"]] = payload
