"""Finding records and the rule catalog.

Each static rule has a stable code (``DET*`` for determinism hazards,
``SAF*`` for crash-injection safety, ``SUP*`` for suppression hygiene).
The catalog below is the single source of truth used by ``--list-rules``,
the documentation, and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

#: code -> one-line description.  Keep in sync with the rule classes in
#: :mod:`repro.staticcheck.rules` (the tests assert the mapping).
RULE_CATALOG = {
    "DET001": ("wall-clock read (time.time / datetime.now / ...) in "
               "simulation-driven code; use Environment.now"),
    "DET003": ("iteration over an unordered set expression; wrap in "
               "sorted(...) before the order can reach the event queue"),
    "RES001": ("acquired resource (watch, lease, claim, ...) is not "
               "released on every path out of the function; wrap the "
               "use in try/finally"),
    "SAF001": ("exception handler can swallow sim.core.Interrupt — "
               "broad catch, or an Interrupt handler that does not "
               "re-raise on every path"),
    "MAN001": ("manifest schema violation: unknown field, wrong type, "
               "missing required field, or a brownout param outside "
               "the range its target reads"),
    "MAN002": ("dangling manifest cross-reference: fault plan targets "
               "an undeclared node/cell/scenario, or a hypothesis "
               "names an unknown check or counter"),
    "MAN003": ("statically infeasible manifest: declared workload "
               "demand provably exceeds declared GPU/memory capacity "
               "(bin-packing lower bound)"),
    "MAN004": ("manifest determinism hazard: unseeded workload or "
               "absolute wall-clock timestamp in a relative-time "
               "schedule"),
    "MAN005": ("dead or shadowed manifest declaration: fault past the "
               "run window or inside a blackout window of its own "
               "target, duplicate key, unreferenced topology block"),
    # The literal is split so the suppression scanner does not read this
    # source line as a suppression of the unknown code "CODE".
    "SUP001": ("staticcheck suppression without a reason; write "
               "# staticcheck: " "ignore[CODE] <why it is safe>"),
}

#: code -> (why it matters, minimal violating example, compliant fix).
#: Drives ``--explain RULE_ID`` and the DESIGN.md rule table.
RULE_EXPLANATIONS = {
    "DET001": (
        "Simulated experiments must replay byte-identically from a seed; "
        "any wall-clock read couples results to the host machine.  "
        "Guards: a run is a function of its seed alone, which is what "
        "every golden digest (chaos reports, placements, the warm-cache "
        "end state) compares.",
        "started = time.time()",
        "started = env.now",
    ),
    "DET003": (
        "Set iteration order depends on PYTHONHASHSEED; if it reaches "
        "the event queue, replays diverge between interpreter runs.  "
        "Guards: event order does not depend on PYTHONHASHSEED; the "
        "determinism checks rerun a scenario inside one interpreter and "
        "cannot see a hash-order dependence.",
        "for node in {a, b, c}: schedule(node)",
        "for node in sorted({a, b, c}): schedule(node)",
    ),
    "RES001": (
        "Watches, leases and claims registered with a substrate outlive "
        "the function unless explicitly released; a path that returns "
        "or raises early leaks them and the substrate fans out to dead "
        "consumers forever.  "
        "Guards: a finished run leaves no live watcher or lease behind, "
        "so fanout cost follows live consumers and lease expiry means a "
        "dead owner.",
        "w = store.watch_prefix(p)\n"
        "if bad: return           # leaks the watcher\n"
        "w.close()",
        "w = store.watch_prefix(p)\n"
        "try:\n"
        "    ...\n"
        "finally:\n"
        "    w.close()",
    ),
    "SAF001": (
        "Crash injection is delivered as sim.core.Interrupt; a handler "
        "that absorbs it on any path converts an injected crash into "
        "normal control flow and invalidates recovery measurements.  "
        "Guards: a fault delivered as Interrupt ends the process it "
        "targets, so the recovery times of Table 3 and every chaos "
        "scenario measure a crash that happened.",
        "except Interrupt:\n"
        "    if done: return      # swallows on this path\n"
        "    raise",
        "except Interrupt:\n"
        "    cleanup()\n"
        "    raise",
    ),
    "MAN001": (
        "A manifest field the compiler does not understand is a "
        "scenario that silently runs something other than what was "
        "declared — a typo'd 'interarival_s' would leave the default "
        "in force.  The schema check rejects unknown fields, "
        "mis-typed values, missing required fields, and a brownout "
        "param its target would read as something else (an explicit 0 "
        "is the default; a cell-brownout factor below 1 is a speed-up) "
        "at the YAML token that is wrong.  "
        "Guards: a manifest that passes runs exactly the fields it "
        "declares, which is the contract of repro validate and of any "
        "scenario printed by a tool rather than a person.",
        "workload:\n  interarival_s: 20   # typo: default silently wins",
        "workload:\n  interarrival_s: 20",
    ),
    "MAN002": (
        "A fault plan aimed at a node the topology never provisions, "
        "or a hypothesis naming a counter the report never carries, "
        "makes the run a vacuous pass: nothing fires, nothing is "
        "checked, and the scenario looks green.  Every cross-reference "
        "(node/cell targets, use: scenario refs, hypothesis checks, "
        "counter names) must resolve against a declaration.  "
        "Guards: every name a manifest uses resolves to something it "
        "declares, so a green report means the faults fired and the "
        "hypotheses were evaluated.",
        "faults:\n  - {at_s: 100, kind: node-crash, target: node-K80-9}",
        "faults:\n  - {at_s: 100, kind: node-crash, target: node-K80-0}",
    ),
    "MAN003": (
        "A gang that provably cannot fit the declared capacity queues "
        "forever; the run then 'passes' by measuring an idle cluster. "
        "A bin-packing lower bound (largest item vs largest bin, "
        "total placeable learners) rejects such manifests before any "
        "sim event runs.  "
        "Guards: an admitted manifest's demand can fit its declared "
        "capacity, so its queue times and pass verdicts describe a "
        "cluster that was able to run the work.",
        "topology: {nodes: [{count: 1, gpus_per_node: 2, gpu_type: K80}]}\n"
        "workload: {learners: 4, gpus_per_learner: 4}",
        "topology: {nodes: [{count: 4, gpus_per_node: 4, gpu_type: K80}]}\n"
        "workload: {learners: 4, gpus_per_learner: 4}",
    ),
    "MAN004": (
        "Scenario runs must replay byte-identically from a seed.  A "
        "workload seeded from the wall clock, or an "
        "absolute timestamp in a schedule that is otherwise relative "
        "seconds, couples the run to the host machine.  "
        "Guards: deterministic replay, the manifest half of DET001.",
        "workload:\n  seed: wall-clock",
        "workload:\n  seed: inherit   # derived from the run seed",
    ),
    "MAN005": (
        "A fault scheduled after horizon+settle never fires; one "
        "aimed inside a blackout window of its own target hits a "
        "component that is already dark; a duplicate key or a "
        "topology block nothing references is declared intent the "
        "run silently ignores.  All four shapes are dead weight that "
        "reads as coverage.  "
        "Guards: every declaration in a manifest has an effect on the "
        "run, so its fault plan reads as the coverage it delivers.",
        "run: {horizon_s: 900, settle_s: 240}\n"
        "faults:\n  - {at_s: 2000, kind: etcd-leader-kill}",
        "run: {horizon_s: 900, settle_s: 240}\n"
        "faults:\n  - {at_s: 600, kind: etcd-leader-kill}",
    ),
    "SUP001": (
        "An unexplained suppression is silent drift: nobody can tell "
        "whether the ignored finding is safe or forgotten.  A "
        "suppression naming a code no rule has (a typo, a retired "
        "rule) silences nothing and is reported too.  "
        "Guards: every suppression in the tree says why it is safe and "
        "names a live rule, so the suppressed set can be audited by "
        "reading it.",
        "risky()  # staticcheck: ignore[DET001]",
        "risky()  # staticcheck: ignore[DET001] replay-safe: <why>",
    ),
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location.

    ``column`` is 1-based and only populated by analyses that know it
    (the YAML manifest rules); 0 means "line-only anchor", which is
    what the Python AST rules report.
    """

    code: str
    path: str
    line: int
    message: str
    column: int = 0

    @property
    def location(self) -> str:
        if self.column > 0:
            return f"{self.path}:{self.line}:{self.column}"
        return f"{self.path}:{self.line}"

    def render(self) -> str:
        return f"{self.location}: {self.code} {self.message}"

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.column, self.code)
