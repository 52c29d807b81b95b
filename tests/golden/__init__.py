"""Golden runs as data.

``check(name, payload)`` compares what a pinned run produced with
``tests/golden/<name>.json``.  The payload is normalised by a JSON round
trip (tuples become lists, int keys become strings; NaN is rejected,
because it equals nothing) and compared structurally.  A value whose
JSON fits on one line is one record: the file holds it on one line, and
a failure names the moved key or reports the moved list whole, so both
the message and ``git diff`` name the job, pod or stream that moved.

A missing file is written and that run fails.  To re-record a golden,
delete its file, rerun, and review the JSON diff before committing.
"""

import json
import random
from pathlib import Path

import pytest

STORE = Path(__file__).parent
#: A value whose compact JSON is at most this long is one record.
WIDTH = 79
#: Moved records a failure lists before it counts the rest.
MAX_PATHS = 10


#: Stands in for a key or index one side does not have.
ABSENT = object()


def next_draw(stream):
    """What ``stream`` would draw next: its position, readably."""
    peek = random.Random(0)
    peek.setstate(stream.getstate())
    return peek.random()


def check(name, payload):
    """Fail unless ``payload`` equals the golden recorded as ``name``."""
    path = STORE / f"{name}.json"
    actual = json.loads(_dumps(payload))
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(_lines(actual, 0, "")) + "\n",
                        encoding="utf-8")
        pytest.fail(f"recorded {path}; review and commit", pytrace=False)
    expected = json.loads(path.read_text(encoding="utf-8"))
    moved = list(_diff(expected, actual, ""))
    if moved:
        shown = [f"  {where}: expected {_show(want)}, got {_show(got)}"
                 for where, want, got in moved[:MAX_PATHS]]
        if len(moved) > MAX_PATHS:
            shown.append(f"  ... and {len(moved) - MAX_PATHS} more")
        pytest.fail(f"golden {name} moved ({len(moved)} records; delete "
                    f"{path} and rerun to re-record):\n" + "\n".join(shown),
                    pytrace=False)


def _dumps(value):
    return json.dumps(value, allow_nan=False, ensure_ascii=False)


def _is_record(value):
    return not isinstance(value, (dict, list)) or len(_dumps(value)) <= WIDTH


def _lines(value, indent, prefix):
    """``value`` as JSON text, one record per line."""
    pad = " " * indent
    if _is_record(value):
        return [pad + prefix + _dumps(value)]
    if isinstance(value, dict):
        items = [(f"{_dumps(key)}: ", item) for key, item in value.items()]
        opener, closer = "{", "}"
    else:
        items = [("", item) for item in value]
        opener, closer = "[", "]"
    lines = [pad + prefix + opener]
    for index, (key, item) in enumerate(items):
        lines.extend(_lines(item, indent + 1, key))
        if index < len(items) - 1:
            lines[-1] += ","
    lines.append(pad + closer)
    return lines


def _diff(expected, actual, where):
    """``(path, expected, actual)`` for every record that differs."""
    if expected == actual:
        return
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in {**expected, **actual}:
            yield from _diff(expected.get(key, ABSENT),
                             actual.get(key, ABSENT), f"{where}[{key!r}]")
    elif isinstance(expected, list) and isinstance(actual, list) \
            and not (_is_record(expected) and _is_record(actual)):
        for index in range(max(len(expected), len(actual))):
            yield from _diff(
                expected[index] if index < len(expected) else ABSENT,
                actual[index] if index < len(actual) else ABSENT,
                f"{where}[{index}]")
    else:
        yield where or "payload", expected, actual


def _show(value):
    text = "absent" if value is ABSENT else _dumps(value)
    return text if len(text) <= 2 * WIDTH else text[:2 * WIDTH] + "..."
