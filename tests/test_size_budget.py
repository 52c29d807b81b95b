"""The scheduler does not grow unnoticed.

ROADMAP's `plan` item asks for ``kube/scheduling`` + ``schedreplay.py``
under 1 144 lines.  Until then this is the ceiling: the size they
stand at now.  A change that must grow them raises ``LINES`` in the
same, declared edit.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
#: ``wc -l`` of the files below.
LINES = 1222
#: ROADMAP's `plan` budget for the same files.
PLAN_BUDGET = 1144


def test_the_scheduler_stays_within_its_line_count():
    files = sorted((SRC / "kube" / "scheduling").glob("*.py")) + \
        [SRC / "analysis" / "schedreplay.py"]
    lines = sum(path.read_bytes().count(b"\n") for path in files)
    assert lines <= LINES, (
        f"kube/scheduling + schedreplay.py are {lines} lines, past the "
        f"{LINES} this test allows; ROADMAP's `plan` budget is "
        f"{PLAN_BUDGET}, so shrink them, or raise LINES in a declared edit")
