"""Settling is invisible, and the chain registry drains.

``Environment.settle()`` applies every arithmetic chain's steps strictly
before now (DESIGN.md, "Arithmetic until something could change it").
A named chaos scenario runs twice, the second time with ``env.settle()``
called from timers at instants drawn over the whole run; the end state,
the audit log, the state of every RNG stream and the counters a chain
moves (store ops, cache hits, Raft messages, each Mongo replica's
applied oplog position and document count) must be equal.  Tier-1
tries forty instants on four scenarios: idle Raft with arithmetic
keepalives (``etcd-leader-kill``), warm training stretches
(``fig6-table8-failures``), a federation (``federation-cell-outage``)
and an idle replication tail (``mongo-failover-under-churn``).
The ``long`` profile (tests/conftest.py) tries every named scenario.
"""

import random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.chaos import SCENARIOS, ChaosEngine, get_scenario

from tests.conftest import examples
from tests.core.conftest import make_manifest, make_platform, submit

LONG = examples(1) > 1
NAMES = sorted(SCENARIOS) if LONG else (
    "etcd-leader-kill", "fig6-table8-failures", "federation-cell-outage",
    "mongo-failover-under-churn")
#: Extra settles per run.
INSTANTS = 100 if LONG else 40

#: name -> what the run without extra settles observed.
_PLAIN = {}


def replicas(mongo):
    """Each replica-set member's applied oplog position and document
    count (none for a standalone database)."""
    return [(position, sum(collection.count()
                           for collection in member._collections.values()))
            for position, member in zip(getattr(mongo, "_positions", ()),
                                        getattr(mongo, "members", ()))]


def observe(name, instants=(), settled=None):
    """End state, audit log, RNG states and chain counters of one run,
    settling at each of ``instants``; adds to ``settled`` the kinds of
    chain settled."""
    engine = ChaosEngine(get_scenario(name), seed=0)
    env = engine.env

    def settle(_timer):
        settled.update(type(chain).__name__ for chain in env.chains)
        env.settle()

    for at in instants:
        env.timeout(at).callbacks.append(settle)
    report = engine.run()
    cells = [cell for _name, cell
             in sorted(getattr(engine.target, "cells", {}).items())]
    registries = [engine.rng] + [cell.rng for cell in cells]
    streams = [{stream_name: stream.getstate() for stream_name, stream
                in sorted(registry._streams.items())}
               for registry in registries]
    platforms = [cell.platform for cell in cells] if cells \
        else [engine.target.platform]
    counters = [(platform.etcd_client.ops_issued,
                 platform.mongo_client.ops_issued,
                 platform.mount_cache.hits, platform.mount_cache.misses,
                 getattr(platform.etcd, "cluster", None)
                 and platform.etcd.cluster.network.messages_sent,
                 replicas(platform.mongo))
                for platform in platforms]
    return report.end_state(), report.audit_lines, streams, counters


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=examples(1), deadline=None, derandomize=not LONG,
          database=None, phases=[Phase.generate])  # a seed has no shrink
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_settling_at_any_instant_changes_nothing(name, seed):
    if name not in _PLAIN:
        _PLAIN[name] = observe(name)
    scenario = get_scenario(name)
    end = scenario.horizon_s + scenario.settle_s
    draw = random.Random(seed)
    instants = sorted(draw.uniform(0.0, end) for _ in range(INSTANTS))
    settled = set()
    end_state, audit_lines, streams, counters = observe(
        name, instants, settled)
    assert settled  # else the run checks nothing
    plain_end_state, plain_audit_lines, plain_streams, plain_counters = \
        _PLAIN[name]
    assert end_state == plain_end_state
    assert audit_lines == plain_audit_lines
    assert streams == plain_streams
    assert counters == plain_counters


def test_the_chain_registries_drain_when_the_jobs_are_gone():
    # Three jobs on one dataset: the second and third train on cache
    # hits, so keepalives and warm stretches both run as arithmetic.
    env, platform = make_platform(seed=1, nodes=3)
    job_ids, kinds = [], set()
    for i in range(3):
        job_ids.append(submit(env, platform, make_manifest(
            name=f"drain-{i}", iterations=1500, ckpt=500,
            dataset_object_bytes=64e6, data_bucket="data-shared")))
    while not all(platform.job(job_id).status.is_terminal
                  for job_id in job_ids):
        env.step()
        kinds.update(type(chain).__name__ for chain in env.chains)
    assert kinds == {"LeaseKeepalive", "_HitRun"}
    env.run(until=env.now + platform.cluster.terminal_pod_gc_ttl_s + 60)
    assert env.chains == {}
    assert platform.mount_cache._runs == {}
