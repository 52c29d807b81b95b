"""The scheduler and the analyzer do not grow unnoticed.

ROADMAP's `plan` item asks for ``kube/scheduling`` + ``schedreplay.py``
under 1 144 lines.  Until then this is the ceiling: the size they
stand at now.  ``staticcheck`` has stood trial three times and shed
every rule and layer that found nothing; its ceiling keeps the
analyzer from growing back.  A change that must grow either raises its
ceiling in the same, declared edit.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
#: ``wc -l`` of the files below.
LINES = 1221
#: ROADMAP's `plan` budget for the same files.
PLAN_BUDGET = 1144
#: ``wc -l`` of ``src/repro/staticcheck``.
STATICCHECK_LINES = 1876


def line_count(files):
    return sum(path.read_bytes().count(b"\n") for path in files)


def test_the_scheduler_stays_within_its_line_count():
    files = sorted((SRC / "kube" / "scheduling").glob("*.py")) + \
        [SRC / "analysis" / "schedreplay.py"]
    lines = line_count(files)
    assert lines <= LINES, (
        f"kube/scheduling + schedreplay.py are {lines} lines, past the "
        f"{LINES} this test allows; ROADMAP's `plan` budget is "
        f"{PLAN_BUDGET}, so shrink them, or raise LINES in a declared edit")


def test_the_analyzer_stays_within_its_line_count():
    lines = line_count(sorted((SRC / "staticcheck").glob("*.py")))
    assert lines <= STATICCHECK_LINES, (
        f"staticcheck is {lines} lines, past the {STATICCHECK_LINES} this "
        f"test allows; shrink it, or raise STATICCHECK_LINES in a "
        f"declared edit")
