"""What the cyclic garbage collector may and may not do to a run.

A finished or failed process leaves no reference cycle, so a drained
platform run made with the collector off leaves no ``repro`` object for
it to find, also when a Guardian crashes on the way, and neither does a
store call that failed once and was retried.
When the collector runs must not be observable: a run with it off, at
the default thresholds and at ``(1, 1, 1)`` inside the event loop too
draws, reports and processes exactly the same.  And one module sets
collector policy: the kernel, around its event loop (DESIGN.md, "What
the collector costs").
"""

import ast
import collections
import contextlib
import gc
from pathlib import Path

import pytest

import repro
from repro.chaos import get_scenario
from repro.chaos.engine import ChaosEngine
from repro.errors import StoreUnavailableError
from repro.etcd import EtcdClient
from repro.resilience import RetryPolicy
from repro.sim import Environment, RngRegistry, core

from tests.chaos import test_perturbation as perturbation
from tests.core.conftest import (make_manifest, make_platform,
                                 run_to_terminal, submit)

POLICY_CALLS = {"set_threshold", "freeze", "unfreeze", "disable", "enable"}


def sets_collector_policy(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in POLICY_CALLS \
                and isinstance(node.value, ast.Name) and node.value.id == "gc":
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "gc" \
                and any(alias.name in POLICY_CALLS for alias in node.names):
            return True
    return False


def test_only_the_kernel_sets_collector_policy():
    root = Path(repro.__file__).parent
    setters = {path.relative_to(root).as_posix()
               for path in sorted(root.rglob("*.py"))
               if sets_collector_policy(ast.parse(path.read_text()))}
    assert setters == {"sim/core.py"}


@contextlib.contextmanager
def collector(setting):
    """Run the body with the collector ``off``, at the ``default``
    thresholds, or ``eager``: at ``(1, 1, 1)``, the event loop's too."""
    saved, enabled = gc.get_threshold(), gc.isenabled()
    loop = core.DISPATCH_GC_THRESHOLD
    gc.collect()
    try:
        if setting == "off":
            gc.disable()
        elif setting == "eager":
            gc.set_threshold(1, 1, 1)
            core.DISPATCH_GC_THRESHOLD = (1, 1, 1)
        yield
    finally:
        core.DISPATCH_GC_THRESHOLD = loop
        gc.set_threshold(*saved)
        if enabled:
            gc.enable()


def cyclic_garbage():
    """The ``repro`` objects a collection finds now, by type."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return collections.Counter(
            type(found).__qualname__ for found in gc.garbage
            if type(found).__module__.startswith("repro."))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


#: setting -> (what the small platform run did, the ``repro`` objects a
#: collection right after it found, by type).
_PLATFORM = {}


def platform_run(setting):
    """Three jobs on two nodes, run until every one is terminal."""
    if setting not in _PLATFORM:
        with collector(setting):
            env, platform = make_platform(nodes=2)
            job_ids = [submit(env, platform, make_manifest(
                name=f"gc-{i}", learners=1 + i % 2, iterations=300, ckpt=100))
                for i in range(3)]
            for job_id in job_ids:
                run_to_terminal(env, platform, job_id)
            leaked = cyclic_garbage()
        env.settle()
        _PLATFORM[setting] = ([platform.job(job_id).status.timeline()
                               for job_id in job_ids],
                              env.now, env.events_processed,
                              perturbation.positions(platform)), leaked
    return _PLATFORM[setting]


def test_a_drained_platform_leaves_no_cyclic_garbage():
    # The platform is still referenced, so what the collection finds is
    # what the run dropped: an interrupted or finished process, its
    # generator and its Interrupt must be freed by reference counting.
    outcome, leaked = platform_run("off")
    assert all(timeline[-1][0] == "COMPLETED" for timeline in outcome[0])
    assert leaked == {}


def test_a_failed_process_leaves_no_cyclic_garbage():
    # The first Guardian's workload raises mid-deploy: its process keeps
    # the exception, whose frames once reached the Guardian's container
    # and volume claim.
    with collector("off"):
        env, platform = make_platform(nodes=2)
        platform.crash_guardian_after_step = 2
        job_id = submit(env, platform, make_manifest(name="gc-crash"))
        job = platform.job(job_id)
        while job.guardian_attempts < 2:
            env.run(until=env.now + 0.5)
        platform.crash_guardian_after_step = 0
        assert run_to_terminal(env, platform, job_id) == "COMPLETED"
        assert cyclic_garbage() == {}


def test_a_retried_store_call_leaves_no_cyclic_garbage():
    # The first attempt's error is kept as the call's ``last_error``; it
    # was raised inside the call's own callback, whose frame holds the
    # call.
    class FlakyStore:
        failures = 1

        def put(self, key, value, lease_id):
            if self.failures:
                self.failures -= 1
                raise StoreUnavailableError("down")
            return key

    with collector("off"):
        env = Environment()
        client = EtcdClient(env, FlakyStore(), rng=RngRegistry(0),
                            retry=RetryPolicy(max_attempts=2))
        done = client.put("k", "v")
        env.run()
        assert done.value == "k" and client.retries == 1
        assert cyclic_garbage() == {}


@pytest.mark.parametrize("setting", ("off", "eager"))
def test_a_platform_run_ignores_when_the_collector_runs(setting):
    assert platform_run(setting)[0] == platform_run("default")[0]


@pytest.mark.parametrize("setting", ("off", "eager"))
def test_everything_at_once_ignores_when_the_collector_runs(setting):
    # The default run is the one the perturbation tests make.
    name = "everything-at-once"
    with collector(setting):
        engine = ChaosEngine(get_scenario(name), seed=0, detect_races=True)
        report = engine.run()
    base, positions, _, events = perturbation.run(name, 0)
    assert report.audit_lines == base.audit_lines
    assert report.end_state() == base.end_state()
    assert report.counters == base.counters
    assert perturbation.positions(engine) == positions
    assert engine.env.events_processed == events
