"""Every quoted section citation of DESIGN.md or EXPERIMENTS.md resolves.

Code, tests and docs point at a section by quoting the start of its
title: ``DESIGN.md, "A healthy lease is a deadline"``.  A citation
resolves when the quoted text, backticks ignored, starts a ``#``
heading or a ``**bold**`` / ``*italic*`` run-in label at a line start
of the named file.  Comment-wrapped lines are joined before matching,
so a citation may break across lines.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CITED = ("DESIGN.md", "EXPERIMENTS.md")
SCANNED_DIRS = ("src", "tests", "benchmarks", "examples", ".claude")
SCANNED_FILES = ("README.md",) + CITED
SUFFIXES = {".py", ".md"}

# The file name, an optional comma or colon, a space, an optional
# parenthesis, then the quoted title.  A ``#``, ``#:`` or ``>`` after a
# line break is a wrapped comment or quote, joined away first.
CITATION = re.compile(r'\b(DESIGN|EXPERIMENTS)\.md[,:]?\s\(?"([^"\n]{1,160})"')
WRAP = re.compile(r"[ \t]*\n[ \t]*(?:(?:#+:?|>)[ \t]*)*")
LABEL = re.compile(r"\*\*(\S.*?)\*\*|\*([^*\s].*?)\*")


def _normal(text: str) -> str:
    return " ".join(text.replace("`", "").split())


def scanned_paths():
    for name in SCANNED_FILES:
        yield ROOT / name
    for top in SCANNED_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix in SUFFIXES and "__pycache__" not in path.parts:
                yield path


def citations():
    """``(where, file cited, quoted text)`` for every citation."""
    found = []
    for path in scanned_paths():
        text = WRAP.sub(" ", path.read_text(encoding="utf-8"))
        for match in CITATION.finditer(text):
            found.append((str(path.relative_to(ROOT)),
                          f"{match.group(1)}.md", _normal(match.group(2))))
    return found


def titles(doc: str):
    """The ``#`` headings and line-start run-in labels of ``doc``."""
    out = []
    paragraphs = (ROOT / doc).read_text(encoding="utf-8").split("\n\n")
    for paragraph in paragraphs:
        lines = paragraph.split("\n")
        for i, line in enumerate(lines):
            if line.startswith("#"):
                out.append(_normal(line.lstrip("#")))
            elif line.startswith("*"):
                # A label may wrap: read it from here to the paragraph end.
                label = LABEL.match(" ".join(lines[i:]))
                if label:
                    out.append(_normal(label.group(1) or label.group(2)))
    return out


def test_citations_are_found():
    # Guards the pattern itself: a regex that matches nothing passes
    # every resolution check below.
    found = citations()
    assert len(found) >= 20
    assert ("src/repro/etcd/kv.py", "DESIGN.md",
            "A healthy lease is a deadline") in found


@pytest.mark.parametrize("doc", CITED)
def test_every_citation_names_a_section(doc):
    known = titles(doc)
    missing = [(where, quoted) for where, cited, quoted in citations()
               if cited == doc
               and not any(title.startswith(quoted) for title in known)]
    assert not missing, f"citations of {doc} that name no section: {missing}"
