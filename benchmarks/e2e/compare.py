"""Compare two result files: one row per workload x end-to-end metric.

Host metrics get ``ok`` / ``regressed`` / ``unresolved`` against the
bound fixed in ``BENCHMARK.json`` (``unresolved`` = either side's own
run-to-run spread is wider than the bound, so the medians cannot
settle it).  Simulated metrics, ``ops_failed_share`` and the state
digest are compared exactly: a worsening is ``regressed``, any other
difference is printed as ``changed``.
"""

from __future__ import annotations

from typing import List, Tuple

#: ``setup_s`` is a fraction of a second, so a relative bound alone
#: would gate on scheduler jitter; it may also move by this much.
SETUP_FLOOR_S = 0.25

Row = Tuple[str, str, str, str, str, str]


def _spread(stat: dict) -> float:
    return (stat["max"] - stat["min"]) / stat["median"] \
        if stat["median"] else 0.0


def _host_row(workload: str, metric: dict, a: dict, b: dict) -> Row:
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = sign * (b["median"] - a["median"])
    allowed = bound * abs(a["median"])
    if name == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    if max(_spread(a), _spread(b)) > bound and name != "setup_s":
        verdict = "unresolved"
    elif worse > allowed:
        verdict = "regressed"
    else:
        verdict = "ok"
    return (workload, name, f"{a['median']:.4f}", f"{b['median']:.4f}",
            f"{metric['better']} {bound:.0%}", verdict)


def _exact_row(workload: str, name: str, a, b,
               lower_is_better: bool = True) -> Row:
    if a == b:
        verdict = "ok"
    elif lower_is_better and isinstance(a, (int, float)) \
            and isinstance(b, (int, float)) and b > a:
        verdict = "regressed"
    else:
        verdict = "changed"
    return (workload, name, str(a), str(b), "exact", verdict)


def compare(a: dict, b: dict, end_to_end: List[dict]) -> List[Row]:
    """Rows for every workload present in both files."""
    rows: List[Row] = []
    for workload, before in a["workloads"].items():
        after = b["workloads"].get(workload)
        if after is None:
            continue
        for metric in end_to_end:
            name = metric["name"]
            if name in before["end_to_end"] and name in after["end_to_end"]:
                rows.append(_host_row(workload, metric,
                                      before["end_to_end"][name],
                                      after["end_to_end"][name]))
        rows.append(_exact_row(workload, "ops_failed_share",
                               before["ops_failed_share"],
                               after["ops_failed_share"]))
        for name in sorted(set(before["sim"]) | set(after["sim"])):
            rows.append(_exact_row(workload, name, before["sim"].get(name),
                                   after["sim"].get(name)))
        rows.append(_exact_row(workload, "digest", before["digest"],
                               after["digest"], lower_is_better=False))
    return rows


def render(rows: List[Row]) -> str:
    header = ("workload", "metric", "A", "B", "bound", "verdict")
    widths = [max(len(str(row[i])) for row in (header, *rows))
              for i in range(len(header))]
    lines = ["  ".join(str(cell).ljust(width)
                       for cell, width in zip(row, widths)).rstrip()
             for row in (header, *rows)]
    return "\n".join(lines)
