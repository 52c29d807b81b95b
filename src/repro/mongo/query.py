"""Mongo-style query and update evaluation.

Implements the subset of the MongoDB query language FfDL's metadata access
patterns need: comparison operators, ``$in``/``$nin``, ``$exists``, logical
``$and``/``$or``/``$not``, dotted field paths, and the ``$set``/``$unset``/
``$inc``/``$push``/``$pull`` update operators.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from repro.errors import StoreError

_MISSING = object()


def get_path(document: Dict[str, Any], path: str) -> Any:
    """Resolve a (possibly dotted) field path; returns _MISSING if absent."""
    current: Any = document
    for part in path.split("."):
        if isinstance(current, dict) and part in current:
            current = current[part]
        else:
            return _MISSING
    return current


def set_path(document: Dict[str, Any], path: str, value: Any) -> None:
    parts = path.split(".")
    current = document
    for part in parts[:-1]:
        current = current.setdefault(part, {})
        if not isinstance(current, dict):
            raise StoreError(f"cannot descend into non-document at {part!r}")
    current[parts[-1]] = value


def unset_path(document: Dict[str, Any], path: str) -> None:
    parts = path.split(".")
    current = document
    for part in parts[:-1]:
        if not isinstance(current, dict) or part not in current:
            return
        current = current[part]
    if isinstance(current, dict):
        current.pop(parts[-1], None)


def _compare(actual: Any, op: str, target: Any) -> bool:
    if op == "$eq":
        return actual == target
    if op == "$ne":
        return actual != target
    if actual is _MISSING:
        return False
    try:
        if op == "$gt":
            return actual > target
        if op == "$gte":
            return actual >= target
        if op == "$lt":
            return actual < target
        if op == "$lte":
            return actual <= target
    except TypeError:
        return False
    if op == "$in":
        return actual in target
    if op == "$nin":
        return actual not in target
    raise StoreError(f"unknown query operator {op!r}")


def _match_field(actual: Any, condition: Any) -> bool:
    if isinstance(condition, dict) and any(
            k.startswith("$") for k in condition):
        for op, target in condition.items():
            if op == "$exists":
                present = actual is not _MISSING
                if present != bool(target):
                    return False
            elif op == "$not":
                if _match_field(actual, target):
                    return False
            else:
                norm = actual if actual is not _MISSING else _MISSING
                if not _compare(norm, op, target):
                    return False
        return True
    # Plain equality (also matches membership for list fields, like Mongo).
    if isinstance(actual, list) and not isinstance(condition, list):
        return condition in actual or actual == condition
    return actual == condition


def matches(document: Dict[str, Any], query: Dict[str, Any]) -> bool:
    """True if ``document`` satisfies the Mongo-style ``query``."""
    for key, condition in query.items():
        if key == "$and":
            if not all(matches(document, sub) for sub in condition):
                return False
        elif key == "$or":
            if not any(matches(document, sub) for sub in condition):
                return False
        elif key == "$nor":
            if any(matches(document, sub) for sub in condition):
                return False
        elif key.startswith("$"):
            raise StoreError(f"unknown top-level operator {key!r}")
        else:
            actual = get_path(document, key)
            actual = actual if actual is not _MISSING else _MISSING
            if not _match_field(
                    actual if actual is not _MISSING else _MISSING,
                    condition):
                return False
    return True


def _is_number(value: Any) -> bool:
    # MongoDB's $inc takes neither booleans nor None.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def apply_update(document: Dict[str, Any],
                 update: Dict[str, Any]) -> Dict[str, Any]:
    """Apply a Mongo-style update spec to ``document`` in place."""
    operator_keys = [k for k in update if k.startswith("$")]
    if operator_keys and len(operator_keys) != len(update):
        raise StoreError("cannot mix update operators with replacement")
    if not operator_keys:
        # Whole-document replacement (preserving _id).
        doc_id = document.get("_id", _MISSING)  # None is a legal _id
        document.clear()
        document.update(update)
        if doc_id is not _MISSING:
            document.setdefault("_id", doc_id)
        return document
    for op, spec in update.items():
        if not isinstance(spec, dict):
            raise StoreError(f"{op} needs a document of fields, not {spec!r}")
        if op == "$set":
            for path, value in spec.items():
                set_path(document, path, value)
        elif op == "$unset":
            for path in spec:
                unset_path(document, path)
        elif op == "$inc":
            for path, amount in spec.items():
                current = get_path(document, path)
                base = 0 if current is _MISSING else current
                if not (_is_number(base) and _is_number(amount)):
                    raise StoreError(f"cannot apply $inc of {amount!r} to "
                                     f"{path!r} holding {base!r}")
                set_path(document, path, base + amount)
        elif op == "$push":
            for path, value in spec.items():
                current = get_path(document, path)
                if current is _MISSING:
                    set_path(document, path, [value])
                elif isinstance(current, list):
                    current.append(value)
                else:
                    raise StoreError(f"$push target {path!r} is not a list")
        elif op == "$pull":
            for path, value in spec.items():
                current = get_path(document, path)
                if isinstance(current, list):
                    current[:] = [v for v in current if v != value]
        else:
            raise StoreError(f"unknown update operator {op!r}")
    return document


def sort_documents(documents: Iterable[Dict[str, Any]],
                   sort_spec: Optional[list] = None) -> list:
    """Sort by a list of (field, direction) pairs, direction in {1, -1}."""
    docs = list(documents)
    if not sort_spec:
        return docs
    for field, direction in reversed(sort_spec):
        docs.sort(
            key=lambda d: _sort_key(get_path(d, field)),
            reverse=(direction == -1))
    return docs


def _sort_key(value: Any):
    # Missing values sort first, mirroring MongoDB's null-first ordering.
    if value is _MISSING or value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))


MISSING = _MISSING
