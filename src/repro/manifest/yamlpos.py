"""Position-aware YAML loading for scenario manifests.

``yaml.safe_load`` discards source positions, but the manifest analyzer
(:mod:`repro.staticcheck.manifest`) must anchor every finding at the
YAML line and column of the offending declaration — the same contract
the Python rules honour with AST line numbers.  This module parses a
manifest with :func:`yaml.compose` (which keeps each node's
``start_mark``) and converts the node tree into :class:`YamlNode`
values: plain Python scalars/dicts/lists annotated with 1-based
``line`` and ``column``.

Only the YAML subset manifests need is resolved (mappings, sequences,
strings, ints, floats, booleans, null), with floats as YAML 1.2 reads
them, so JSON (which :func:`repro.manifest.manifest_source` prints)
loads as the numbers it wrote.  Anything more exotic stays a
plain string scalar, which the schema checker then reports with a
precise location instead of a parse crash.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import yaml


class YamlPosError(Exception):
    """Manifest source is not parseable YAML."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column


@dataclass
class YamlNode:
    """One YAML value plus its 1-based source position.

    ``value`` is a scalar (``str | int | float | bool | None``), a
    ``dict[str, YamlNode]`` for mappings, or a ``list[YamlNode]`` for
    sequences.  Mapping nodes also carry ``key_marks`` (where each key
    was written) and ``duplicate_keys`` (re-declared keys, in source
    order — YAML lets the later value win silently, which MAN005
    reports as a shadowed declaration).
    """

    value: Any
    line: int
    column: int
    #: mapping key -> (line, column) of the *key* token.
    key_marks: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: (key, line, column) for every re-declared mapping key.
    duplicate_keys: List[Tuple[str, int, int]] = field(
        default_factory=list)

    # -- typed accessors (lenient: None when shape doesn't match) -----------

    @property
    def is_mapping(self) -> bool:
        return isinstance(self.value, dict)

    @property
    def is_sequence(self) -> bool:
        return isinstance(self.value, list)

    @property
    def is_scalar(self) -> bool:
        return not (self.is_mapping or self.is_sequence)

    def get(self, key: str) -> Optional["YamlNode"]:
        if not self.is_mapping:
            return None
        return self.value.get(key)

    def scalar(self, key: str, default: Any = None) -> Any:
        node = self.get(key)
        if node is None or not node.is_scalar:
            return default
        return node.value

    def key_mark(self, key: str) -> Tuple[int, int]:
        """Position of ``key``'s token (falls back to the mapping)."""
        return self.key_marks.get(key, (self.line, self.column))

    def items(self):
        if not self.is_mapping:
            return ()
        return self.value.items()

    def __iter__(self):
        if self.is_sequence:
            return iter(self.value)
        return iter(())


_SCALAR_CASTS = {
    "tag:yaml.org,2002:int": int,
    "tag:yaml.org,2002:float": float,
    "tag:yaml.org,2002:str": str,
}

_BOOL_TRUE = {"true", "yes", "on"}

#: A float with an exponent and no dot (``1e-05``, as JSON and Python
#: print them): YAML 1.2 reads it as a number, PyYAML's 1.1 resolver as
#: a string.
_EXPONENT_FLOAT_RE = re.compile(r"^[-+]?[0-9]+[eE][-+]?[0-9]+$")


def _scalar_value(node: yaml.ScalarNode) -> Any:
    tag = node.tag
    if tag == "tag:yaml.org,2002:null":
        return None
    if tag == "tag:yaml.org,2002:bool":
        return node.value.strip().lower() in _BOOL_TRUE
    if tag == "tag:yaml.org,2002:str" and node.style is None \
            and _EXPONENT_FLOAT_RE.match(node.value):
        return float(node.value)
    cast = _SCALAR_CASTS.get(tag)
    if cast is None:
        return node.value  # unknown tag: keep the raw string
    try:
        if cast is int:
            return int(node.value, 0)
        return cast(node.value)
    except ValueError:
        return node.value


def _convert(node: yaml.Node) -> YamlNode:
    mark = node.start_mark
    line, column = mark.line + 1, mark.column + 1
    if isinstance(node, yaml.ScalarNode):
        return YamlNode(_scalar_value(node), line, column)
    if isinstance(node, yaml.SequenceNode):
        return YamlNode([_convert(item) for item in node.value],
                        line, column)
    if isinstance(node, yaml.MappingNode):
        mapping: Dict[str, YamlNode] = {}
        key_marks: Dict[str, Tuple[int, int]] = {}
        duplicates: List[Tuple[str, int, int]] = []
        for key_node, value_node in node.value:
            key_mark = key_node.start_mark
            key = str(_scalar_value(key_node)) \
                if isinstance(key_node, yaml.ScalarNode) \
                else str(key_node.value)
            position = (key_mark.line + 1, key_mark.column + 1)
            if key in mapping:
                duplicates.append((key, position[0], position[1]))
            mapping[key] = _convert(value_node)
            key_marks.setdefault(key, position)
        return YamlNode(mapping, line, column, key_marks=key_marks,
                       duplicate_keys=duplicates)
    raise YamlPosError(f"unsupported YAML node kind {type(node).__name__}",
                       line, column)


def parse_manifest_source(source: str) -> Optional[YamlNode]:
    """Parse one YAML document into a positioned tree.

    Returns ``None`` for an empty document.  Raises
    :class:`YamlPosError` (with 1-based position) on malformed YAML or
    multi-document streams.
    """
    try:
        documents = list(yaml.compose_all(source, Loader=yaml.SafeLoader))
    except yaml.MarkedYAMLError as err:
        mark = err.problem_mark
        raise YamlPosError(
            f"cannot parse: {err.problem or err}",
            (mark.line + 1) if mark else 1,
            (mark.column + 1) if mark else 1) from None
    except yaml.YAMLError as err:
        raise YamlPosError(f"cannot parse: {err}") from None
    documents = [doc for doc in documents if doc is not None]
    if not documents:
        return None
    if len(documents) > 1:
        mark = documents[1].start_mark
        raise YamlPosError("manifest must be a single YAML document",
                           mark.line + 1, mark.column + 1)
    return _convert(documents[0])
