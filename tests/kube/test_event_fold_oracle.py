"""The scheduler's folded FailedScheduling log against the unfolded one.

A queued pod's repeated FailedScheduling folds into one record keyed on
``(pod, reason, message)``, with a count and its first and last times
(DESIGN.md, "What each store and log keeps").  The reference is the
scheduler with ``_emit`` as it was before the fold (``unfolded_emit``
below: one record per occurrence), run on a twin cluster.  It
also notes, for each occurrence, whether its pod was queued, and every
``_dequeue``; ``reference_fold`` folds that stream by the rule.

Random programs are those of ``test_scheduler_properties.py``: up to 15
pods of random sizes and owners in three waves on three nodes, deletions,
a cordon, a node failure and a scale-out, under Pack and Spread, with
and without gangs.  They add injected races and pods that wait for a
claim created late, so every reason repeats.  The folded log must equal
the reference fold, its records expanded by count must give the
unfolded log's ``(pod, reason, message)`` sequence with the first and
last times, Figure 6's and Table 8's tables must be equal, and so must
every placement and every other event.  At every step the fold state
names queued pods only.
"""

from functools import partial

from hypothesis import example, given, settings, strategies as st

from repro.analysis.failures import failed_pods_by_reason, failed_pods_by_type
from repro.docker import Image
from repro.kube import Cluster, SchedulerConfig
from repro.kube.events import (
    CountedEvent,
    EventLog,
    FAILED_SCHEDULING,
    KubeEvent,
    MESSAGE_TEMPLATES,
    REASON_ASSUME_FAILED,
    REASON_TIMEOUT,
)
from repro.kube.objects import ObjectMeta, PersistentVolumeClaim
from repro.sim import Environment, RngRegistry

from tests.conftest import examples
from tests.kube.test_scheduler_properties import CAPACITY, POD_SPECS, owned_pod

CLAIM = "late-claim"
STEPS = 12


def unfolded_emit(self, pod_name, reason, pod=None, stream=None, **fields):
    """``Scheduler._emit`` without the fold, and the stream it feeds."""
    message = MESSAGE_TEMPLATES[reason].format(pod=pod_name, **fields)
    pod_type = pod.meta.labels.get("type") if pod is not None else None
    self.api.record_event(KubeEvent(
        self.env.now, FAILED_SCHEDULING, "Pod", pod_name,
        reason=reason, message=message, pod_type=pod_type))
    stream.append(("emit", self.api.event_log.events[-1],
                   pod_name in self._queue))


def reference_fold(stream):
    """The folded log the stream says: an occurrence for a queued pod
    joins the open record of its key, if any; a dequeue closes its pod's
    records."""
    folded, open_records = [], {}
    for verb, *rest in stream:
        if verb == "dequeue":
            for key in [key for key in open_records if key[0] == rest[0]]:
                del open_records[key]
            continue
        event, queued = rest
        key = (event.object_name, event.reason, event.message)
        record = open_records.get(key)
        if record is None:
            record = CountedEvent(event.time, event.kind, event.object_kind,
                                  event.object_name, event.reason,
                                  event.message, event.pod_type)
            folded.append(record)
            if queued:
                open_records[key] = record
        else:
            record.count += 1
            record.last_time = event.time
    return folded


def expands_to(folded, unfolded):
    """Each record, expanded by its count in place of its first
    occurrence, gives the unfolded log: the records in order open the
    runs of a key, and a record's run ends at its ``last_time``."""
    records, runs = iter(folded), {}
    for event in unfolded:
        key = (event.object_name, event.reason, event.message)
        if key not in runs:
            record = next(records)
            assert (record.time, record.object_name, record.reason,
                    record.message, record.pod_type) == (
                        event.time, *key, event.pod_type)
            runs[key] = [record, 0]
        runs[key][1] += 1
        record, seen = runs[key]
        if seen == record.count:
            assert record.last_time == event.time
            del runs[key]
    assert next(records, None) is None
    assert not runs


def play(specs, seed, policy, gang, cordon, fail, grow, races, claim_step,
         reference):
    env = Environment()
    cluster = Cluster(env, RngRegistry(seed),
                      SchedulerConfig(policy=policy, gang=gang),
                      node_detection_latency_s=4.0,
                      pod_eviction_timeout_s=4.0,
                      terminal_pod_gc_ttl_s=30.0)
    cluster.push_image(Image("learner", size_bytes=1e6))
    cluster.add_nodes(3, CAPACITY)
    scheduler = cluster.scheduler
    stream = []
    if reference:
        dequeue = scheduler._dequeue

        def noted_dequeue(name):
            stream.append(("dequeue", name))
            dequeue(name)

        scheduler._emit = partial(unfolded_emit, scheduler, stream=stream)
        scheduler._dequeue = noted_dequeue
    pods = []
    for i, (gpus, cpus, duration, delete, owner) in enumerate(specs):
        pod = owned_pod(env, f"p{i}", gpus, cpus, duration, owner)
        if i % 4 == 3:
            pod.spec.volume_claims = [CLAIM]
        pods.append((pod, delete))
    waves = {step: pods[wave::3] for wave, step in enumerate((0, 3, 6))}
    for step in range(STEPS):
        for pod, _delete in waves.get(step, ()):
            cluster.api.create_pod(pod)
        for reason in races.get(step, ()):
            scheduler.inject_race(reason)
        env.run(until=env.now + 10)
        assert set(scheduler._failures) <= set(scheduler._queue)
        if cordon and step == 0:
            cluster.cordon("node-K80-0")
        if fail and step == 1:
            cluster.fail_node("node-K80-1")
        if step == 2:
            for pod, delete in waves[0]:
                if delete:
                    cluster.delete_pod(pod.name)
            if grow:
                cluster.add_node("late-0", CAPACITY)
        if step == claim_step:
            cluster.api.create_pvc(PersistentVolumeClaim(
                meta=ObjectMeta(name=CLAIM), bound=True))
            scheduler.kick()
        if cordon and step == 4:
            cluster.uncordon("node-K80-0")
        if fail and step == 6:
            cluster.recover_node("node-K80-1")
    env.run(until=env.now + 200)
    assert set(scheduler._failures) <= set(scheduler._queue)
    placements = [(pod.name, pod.phase, pod.node_name, pod.scheduled_at)
                  for pod, _delete in pods]
    events = cluster.api.event_log.events
    others = [event for event in events if event.kind != FAILED_SCHEDULING]
    failed = [event for event in events if event.kind == FAILED_SCHEDULING]
    return placements, others, failed, stream


def tables(failed):
    log = EventLog()
    log.events = failed
    return failed_pods_by_type(log), failed_pods_by_reason(log)


@settings(max_examples=examples(30), deadline=None)
# Whole-node pods queued through a cordon and a node failure: a pod's
# "No nodes available" message changes while it is queued, so one pod
# holds records of one reason with two messages, with and without gangs.
@example(specs=[(4, 1.0, 60, False, None)] * 9, seed=0, policy="pack",
         gang=False, cordon=True, fail=True, grow=False, races={},
         claim_step=STEPS)
@example(specs=[(4, 1.0, 60, False, None)] * 9, seed=0, policy="pack",
         gang=True, cordon=True, fail=True, grow=False, races={},
         claim_step=STEPS)
@given(specs=POD_SPECS, seed=st.integers(min_value=0, max_value=50),
       policy=st.sampled_from(["pack", "spread"]), gang=st.booleans(),
       cordon=st.booleans(), fail=st.booleans(), grow=st.booleans(),
       races=st.dictionaries(
           st.integers(0, STEPS - 1),
           st.lists(st.sampled_from([REASON_TIMEOUT, REASON_ASSUME_FAILED]),
                    max_size=3), max_size=4),
       claim_step=st.integers(0, STEPS))
def test_the_folded_log_is_the_unfolded_one_counted(
        specs, seed, policy, gang, cordon, fail, grow, races, claim_step):
    args = (specs, seed, policy, gang, cordon, fail, grow, races,
            claim_step)
    placements, others, folded, _stream = play(*args, reference=False)
    (ref_placements, ref_others, unfolded,
     stream) = play(*args, reference=True)
    assert placements == ref_placements
    assert others == ref_others
    assert folded == reference_fold(stream)
    expands_to(folded, unfolded)
    assert tables(folded) == tables(unfolded)
