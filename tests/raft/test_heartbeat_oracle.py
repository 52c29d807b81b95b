"""An idle Raft group's arithmetic heartbeats against the events they replace.

The reference is the event form of ``RaftNode`` and ``Network`` as they
stood before an idle group's rounds became arithmetic, kept verbatim
below: ``EventNode`` overrides the four methods that changed since
(``propose``, ``crash``, ``_on_timer``, ``_on_message``; everything else
is inherited, unchanged), and ``EventNetwork`` is the whole class.  One
line is not verbatim: ``EventNetwork.heal_all`` heals links only, as
``Network.heal_all`` now does (it used to revive the endpoint of a node
that was still crashed).

Random programs over 1-, 3- and 5-node groups leave the group alone for
10-500 heartbeats between steps: proposals to the leader and to any
node, ``crash`` / ``restart`` (also both in one kernel event), ``cut`` /
``heal`` / ``partition`` / ``heal_all``, turning the network lossy or
back, and reads of the counters and stream positions in the middle of a
stretch.  The steps run from timer
callbacks or from outside the kernel between ``run()`` calls, on the
default timing, on a wider election window, on links too slow for a
round to be arithmetic, and on a lossy network.  Every observable that
``tests/raft/test_ticker_oracle.py`` compares must be equal by ``==``:
each node's state, term, vote, log, commit and applied index and leader
hint, ``messages_sent`` / ``messages_dropped``, the next draw of
``raft-network`` and of every ``raft:*`` stream, every election and
apply with its instant, every proposal outcome, and ``env.now``.  The
deliveries are equal but for the idle rounds' own: the settled form's
are the reference's with some left out, and each one left out is an
AppendEntries that carries no entry or a successful reply to one.

Then every node is crashed and the queue drained, and what it drained
is compared too, except for the instant it ends at.  A superseded timer
stays queued until its instant and fires dead, and the two forms leave
different ones: the settled form's rounds arm no follower timer, and
they arm each at its deadline when they resume.

The same comparison runs over stretches of 10**3 - 10**4 heartbeats
(10**5 under the ``long`` profile), where a settle skips whole rounds,
with reads halfway into a stretch and reads on the exact float of a
round's send and of an arrival.  A tripwire counts the latency draws
one settle of a 10**5-heartbeat stretch makes one by one.  Two groups
on one registry draw from one ``raft-network`` stream, so their rounds
must stay events; they are compared with two event-form groups.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Any, Dict, Set, Tuple

from hypothesis import example, given, settings, strategies as st

from repro.errors import NotLeaderError, SimulationError
from repro.raft import (
    AppendEntries,
    AppendEntriesReply,
    CallbackStateMachine,
    LogEntry,
    Network,
    RaftCluster,
    RaftNode,
    RequestVote,
    RequestVoteReply,
)
from repro.raft.network import Handler
from repro.raft.node import FOLLOWER, LEADER
from repro.sim import Environment, RngRegistry
from repro.sim.core import Event, Timeout

from tests.conftest import examples
from tests.golden import next_draw


class EventNode(RaftNode):
    """``RaftNode`` whose heartbeats are kernel events: the changed
    methods, verbatim."""

    def propose(self, command: Any) -> Event:
        """Append a command (leader only); event fires once it is applied.

        The event's value is whatever ``apply_fn`` returned for the command.
        It fails with :class:`NotLeaderError` if leadership is lost before
        commitment.
        """
        done = self.env.event()
        if not self.is_leader:
            done.fail(NotLeaderError(self.node_id, self.leader_hint))
            return done
        self.log.append(LogEntry(self.current_term, command))
        index = self.last_log_index
        self._pending[index] = done
        self.match_index[self.node_id] = index
        self._broadcast_entries()
        self._maybe_advance_commit()
        return done

    def crash(self) -> None:
        """Crash-stop: drop volatile state and go silent."""
        self._crashed = True
        self.network.take_down(self.node_id)
        self._fail_pending(NotLeaderError(self.node_id))
        self.state = FOLLOWER
        self._votes.clear()

    def _on_timer(self, timer: Timeout) -> None:
        if timer is not self._timer:
            return  # superseded by an earlier deadline
        self._timer = None
        if self._crashed:
            return  # restart() kicks
        if self.env.now < self._due:
            self._arm(self._due)  # kicked since it was armed
            return
        # Stamped first: a single-node group's nested _become_leader
        # kick is absorbed, as the running process absorbed it.
        self._kicked = (self.env.events_processed, self.env.now)
        if self.state != LEADER:
            self._become_candidate()
        self._settle()

    def _on_message(self, src: str, msg: Any) -> None:
        if self._crashed:
            return
        term = getattr(msg, "term", 0)
        if term > self.current_term:
            self._become_follower(term)
        if isinstance(msg, RequestVote):
            self._on_request_vote(src, msg)
        elif isinstance(msg, RequestVoteReply):
            self._on_vote_reply(msg)
        elif isinstance(msg, AppendEntries):
            self._on_append_entries(src, msg)
        elif isinstance(msg, AppendEntriesReply):
            self._on_append_reply(msg)


class EventNetwork:
    """``Network`` whose every delivery is a kernel event, verbatim but
    for ``heal_all``."""

    #: KernelProfiler site family of a delivery (``_deliver``).
    name = "net"

    def __init__(self, env: Environment, rng: RngRegistry,
                 base_latency_s: float = 0.002,
                 jitter_s: float = 0.001,
                 drop_probability: float = 0.0):
        self.env = env
        self.rng = rng.stream("raft-network")
        self.base_latency_s = base_latency_s
        self.jitter_s = jitter_s
        self.drop_probability = drop_probability
        self._handlers: Dict[str, Handler] = {}
        self._down: Set[str] = set()
        self._cut_links: Set[Tuple[str, str]] = set()
        self.messages_sent = 0
        self.messages_dropped = 0

    def register(self, node_id: str, handler: Handler) -> None:
        if node_id in self._handlers:
            raise SimulationError(f"duplicate endpoint {node_id!r}")
        self._handlers[node_id] = handler

    # -- fault control -------------------------------------------------------

    def take_down(self, node_id: str) -> None:
        """Isolate a node: all traffic to/from it is dropped."""
        self._down.add(node_id)

    def bring_up(self, node_id: str) -> None:
        self._down.discard(node_id)

    def cut(self, a: str, b: str) -> None:
        """Cut the bidirectional link between two nodes.

        A node's link to itself cannot be cut: local delivery never
        crosses the network, so ``cut(a, a)`` is a no-op (a node only
        loses self-reachability by going down entirely).
        """
        if a == b:
            return
        self._cut_links.add((a, b))
        self._cut_links.add((b, a))

    def heal(self, a: str, b: str) -> None:
        self._cut_links.discard((a, b))
        self._cut_links.discard((b, a))

    def partition(self, group_a: Set[str], group_b: Set[str]) -> None:
        """Cut every link crossing the two groups.

        A node listed in *both* groups keeps its self-link (local
        delivery) but loses its links to every other node in either
        group — the "flaky switch port" topology where one node is cut
        off from both sides.
        """
        for a in sorted(group_a):
            for b in sorted(group_b):
                self.cut(a, b)

    def heal_all(self) -> None:
        self._cut_links.clear()  # not verbatim: _down is left as it is

    def is_reachable(self, src: str, dst: str) -> bool:
        return (src not in self._down and dst not in self._down
                and (src, dst) not in self._cut_links)

    # -- delivery -------------------------------------------------------------

    def send(self, src: str, dst: str, message: Any) -> None:
        """Asynchronously deliver ``message`` from ``src`` to ``dst``."""
        self.messages_sent += 1
        if dst not in self._handlers:
            self.messages_dropped += 1
            return
        if not self.is_reachable(src, dst):
            self.messages_dropped += 1
            return
        if self.drop_probability and self.rng.random() < self.drop_probability:
            self.messages_dropped += 1
            return
        latency = self.base_latency_s + self.rng.random() * self.jitter_s
        self.env.timeout(latency, (src, dst, message)).callbacks.append(
            self._deliver)

    def _deliver(self, timeout: Timeout) -> None:
        src, dst, message = timeout.value
        # Re-check reachability at delivery time (partition may have
        # happened while the message was in flight).
        if self.is_reachable(src, dst):
            self._handlers[dst](src, message)
        else:
            self.messages_dropped += 1


class Tap:
    """Records every delivery that reaches a handler, and the instant of
    every send of an AppendEntries that carries no entry."""

    def tap(self, log, sends=None):
        self.log = log
        self.sends = [] if sends is None else sends
        return self

    def send(self, src, dst, message):
        if isinstance(message, AppendEntries) and not message.entries:
            self.sends.append(self.env.now)
        super().send(src, dst, message)

    def _deliver(self, timeout):
        src, dst, message = timeout.value
        if self.is_reachable(src, dst):
            self.log.append((
                self.env.now, src, dst, type(message).__name__,
                message.term, len(getattr(message, "entries", ())),
                getattr(message, "success", None)))
        super()._deliver(timeout)


class SettledTap(Tap, Network):
    pass


class EventTap(Tap, EventNetwork):
    pass


def idle_round_message(delivery):
    """An AppendEntries with no entry, or a successful reply."""
    _at, _src, _dst, kind, _term, entries, success = delivery
    return (kind == "AppendEntries" and entries == 0) or \
        (kind == "AppendEntriesReply" and success)


def assert_left_out_only_idle_rounds(seen, reference):
    rest = iter(reference)
    for delivery in seen:
        for candidate in rest:
            if candidate == delivery:
                break
            assert idle_round_message(candidate), candidate
        else:
            raise AssertionError(f"not delivered by the reference: "
                                 f"{delivery}")
    left = list(rest)
    assert all(idle_round_message(d) for d in left), left


#: (election_timeout_s, heartbeat_interval_s, base_latency_s, jitter_s):
#: the defaults; a wider window; and links too slow for a round's
#: replies to land before the next round, which keep every round events.
PROFILES = (
    ((0.15, 0.30), 0.05, 0.002, 0.001),
    ((0.1, 1.5), 0.05, 0.002, 0.004),
    ((0.06, 0.09), 0.02, 0.01, 0.03),
)
VERBS = ("propose", "propose", "propose-to", "crash", "restart", "bounce",
         "cut", "heal", "partition", "heal-all", "lossy", "read", "read")
#: (heartbeats since the previous step, fraction of one, verb, a, b).
_STEP = st.tuples(st.integers(10, 500), st.floats(0.0, 1.0),
                  st.sampled_from(VERBS), st.integers(0, 4),
                  st.integers(0, 4))


def play(node_class, net_class, via, size, profile, drop, seed, program,
         pinned=(), mark=None, sends=None):
    """Run ``program``; ``pinned`` adds reads at those exact instants,
    ``mark(env, net)`` runs at each "mark" step (else a no-op), and
    ``sends`` collects the tap's send instants."""
    (lo, hi), heartbeat, base, jitter = profile
    env = Environment()
    rng = RngRegistry(seed)
    ids = [f"n{i}" for i in range(size)]
    deliveries, outcomes, reads = [], [], []
    elections, applies = [], []
    nodes = []
    commands = (f"c{i}" for i in itertools.count())

    def node(index):
        return nodes[index % size]

    def propose(target, command):
        if target is None:
            outcomes.append((command, env.now, "no leader"))
            return
        target.propose(command).callbacks.append(
            lambda done: outcomes.append(
                (command, env.now, done.ok,
                 done.value if done.ok else repr(done.value))))

    def state():
        # messages_sent first: reading it settles the idle rounds.
        return (env.now, net.messages_sent, net.messages_dropped,
                [(n.node_id, n.state, n.current_term, n.voted_for,
                  n.commit_index, n.last_applied, n.leader_hint,
                  [(e.term, e.command) for e in n.log]) for n in nodes],
                [next_draw(rng.stream(name))
                 for name in ["raft-network"] + [f"raft:{i}" for i in ids]],
                len(elections), len(applies), len(outcomes))

    def act(verb, a, b, _timer):
        if verb == "propose":
            leaders = [n for n in nodes if n.is_leader]
            propose(leaders[0] if leaders else None, next(commands))
        elif verb == "propose-to":
            propose(node(a), next(commands))
        elif verb == "crash":
            node(a).crash()
        elif verb == "restart":
            node(a).restart()
        elif verb == "bounce":  # both in one kernel event
            node(a).crash()
            node(a).restart()
        elif verb == "cut":
            net.cut(node(a).node_id, node(b).node_id)
        elif verb == "heal":
            net.heal(node(a).node_id, node(b).node_id)
        elif verb == "partition":
            split = 1 + a % max(1, size - 1)
            net.partition(set(ids[:split]), set(ids[split:]))
        elif verb == "heal-all":
            net.heal_all()
        elif verb == "lossy":  # toggled: an idle group may form again
            net.drop_probability = 0.0 if net.drop_probability else 0.2
        elif verb == "mark":
            if mark is not None:
                mark(env, net)
        else:
            reads.append(state())

    steps, at = [], 1.0
    for beats, fraction, verb, a, b in program:
        at += (beats + fraction) * heartbeat
        steps.append((at, verb, a, b))
    horizon = at + 5.0
    steps = sorted(steps + [(instant, "read", 0, 0) for instant in pinned])
    if via == "timers":
        for instant, *step in steps:
            env.timeout_at(instant).callbacks.append(partial(act, *step))

    net = net_class(env, rng, base_latency_s=base, jitter_s=jitter,
                    drop_probability=drop).tap(deliveries, sends)

    def state_machine(node_id):
        def apply(index, command):
            applies.append((node_id, index, command, env.now))
            return (node_id, index)

        def reset():
            applies.append((node_id, "reset", env.now))

        return CallbackStateMachine(apply, reset)

    class Tracer:
        def on_leader_elected(self, n):
            elections.append((n.current_term, n.node_id, env.now))

        def on_apply(self, n, index, entry):
            pass  # the state machine records it, with the result

    for node_id in ids:
        nodes.append(node_class(
            env, rng, net, node_id, ids, state_machine(node_id),
            election_timeout_s=(lo, hi), heartbeat_interval_s=heartbeat))
        nodes[-1].tracer = Tracer()

    if via == "main":
        for instant, verb, a, b in steps:
            env.run(until=instant)
            act(verb, a, b, None)
    env.run(until=horizon)
    at_horizon = state()
    for n in nodes:
        n.crash()
    env.run()
    drained = state()
    return ((at_horizon, drained[1:], reads, elections, applies, outcomes),
            deliveries)


@settings(max_examples=examples(25), deadline=None)
# A fault lands while a round's AppendEntries arrive in the opposite of
# peer order: the replies must be drawn, and put back in flight, in
# arrival order.
@example(via="main", size=3, profile=PROFILES[1], drop=0.0, seed=24883,
         program=[(10, 0.8461974184283128, "cut", 4, 3),
                  (10, 0.0, "read", 0, 0)])
@example(via="timers", size=3, profile=PROFILES[0], drop=0.0, seed=64067,
         program=[(10, 0.03913779859691058, "crash", 0, 3),
                  (10, 0.0, "read", 0, 0)])
@given(via=st.sampled_from(["timers", "main"]),
       size=st.sampled_from([1, 3, 3, 5]),
       profile=st.sampled_from(PROFILES[:2] * 2 + PROFILES[2:]),
       drop=st.sampled_from([0.0, 0.0, 0.0, 0.1]),
       seed=st.integers(min_value=0, max_value=2 ** 16),
       program=st.lists(_STEP, min_size=2, max_size=8))
def test_idle_rounds_are_the_events_they_replace(via, size, profile, drop,
                                                  seed, program):
    args = (via, size, profile, drop, seed, program)
    seen, seen_deliveries = play(RaftNode, SettledTap, *args)
    reference, reference_deliveries = play(EventNode, EventTap, *args)
    assert seen == reference
    assert_left_out_only_idle_rounds(seen_deliveries, reference_deliveries)


def test_a_group_idle_when_the_network_turns_lossy_drops():
    # Idle from about t = 1 until the network turns lossy at t = 20: its
    # next rounds must draw drops and, losing heartbeats, elect again.
    for via in ("timers", "main"):
        args = (via, 3, PROFILES[0], 0.0, 0,
                [(380, 0.0, "lossy", 0, 0), (800, 0.0, "read", 0, 0)])
        seen, seen_deliveries = play(RaftNode, SettledTap, *args)
        reference, reference_deliveries = play(EventNode, EventTap, *args)
        assert seen == reference
        assert_left_out_only_idle_rounds(seen_deliveries,
                                         reference_deliveries)
        _now, _sent, dropped, nodes, *_rest = reference[0]
        assert dropped > 0 and max(node[2] for node in nodes) > 1


#: Stretches of 10**3 - 10**4 heartbeats, up to 10**5 under ``long``.
_STRETCH = st.tuples(st.integers(10 ** 3,
                                 10 ** 5 if examples(1) > 1 else 10 ** 4),
                     st.floats(0.0, 1.0), st.sampled_from(VERBS),
                     st.integers(0, 4), st.integers(0, 4))


def landmarks(sends, arrivals, heartbeat):
    """A mark for ``play``: in an idle group whose round has landed, the
    next round's send instant and its first AppendEntries' arrival."""
    def mark(env, net):
        env.settle()
        idle = net.idle
        if idle is None or not idle.followers \
                or idle.delivered < len(idle.arrivals):
            return
        send = idle.sent_at + heartbeat
        sends.append(send)
        arrivals.append(send + (net.base_latency_s
                                + next_draw(net.rng) * net.jitter_s))
    return mark


def compare_stretches(via, size, profile, drop, seed, program):
    """Both forms over ``program``'s long stretches, with a mark halfway
    into each; under timers, reads pinned on the floats the marks find
    (a read timer was armed first, so it runs before a send or an
    arrival at its instant, as a settle counts only what came strictly
    before).  Returns how many reads were pinned."""
    marked = []
    for beats, fraction, verb, a, b in program:
        marked += [(beats // 2, 0.5, "mark", 0, 0),
                   (beats - beats // 2, fraction, verb, a, b)]
    args = (via, size, profile, drop, seed, marked)
    send_floats, arrival_floats = [], []
    if via == "timers":
        play(RaftNode, SettledTap, *args,
             mark=landmarks(send_floats, arrival_floats, profile[1]))
    pinned = send_floats + arrival_floats
    seen, seen_deliveries = play(RaftNode, SettledTap, *args, pinned=pinned)
    sends = []
    reference, reference_deliveries = play(EventNode, EventTap, *args,
                                           pinned=pinned, sends=sends)
    assert seen == reference
    assert_left_out_only_idle_rounds(seen_deliveries, reference_deliveries)
    assert set(send_floats) <= set(sends)
    assert set(arrival_floats) <= {at for at, _s, _d, kind, *_rest
                                   in reference_deliveries
                                   if kind == "AppendEntries"}
    return len(pinned)


@settings(max_examples=examples(4), deadline=None)
@given(via=st.sampled_from(["timers", "main"]),
       size=st.sampled_from([3, 5]),
       profile=st.sampled_from(PROFILES),
       drop=st.sampled_from([0.0, 0.0, 0.1]),
       seed=st.integers(min_value=0, max_value=2 ** 16),
       program=st.lists(_STRETCH, min_size=1, max_size=3))
def test_long_stretches_are_the_events_they_replace(via, size, profile, drop,
                                                    seed, program):
    compare_stretches(via, size, profile, drop, seed, program)


def test_reads_on_a_rounds_send_and_arrival_floats():
    pinned = compare_stretches(
        "timers", 3, PROFILES[0], 0.0, 7,
        [(4000, 0.25, "read", 0, 0), (3000, 0.5, "propose", 0, 0),
         (2000, 0.0, "read", 0, 0)])
    assert pinned == 6  # a send and an arrival in each idle stretch


def inert(_node_id=None):
    """A state machine that applies nothing."""
    return CallbackStateMachine(lambda index, command: None)


def test_a_long_idle_stretch_settles_at_most_three_rounds_one_by_one():
    # One settle after 10**5 idle heartbeats draws the latencies of at
    # most three rounds one by one, and leaves the send counter and
    # every stream where the event form leaves them.
    _window, heartbeat, base, jitter = PROFILES[0]
    ids = ["n0", "n1", "n2"]
    names = ["raft-network"] + [f"raft:{node_id}" for node_id in ids]
    idle_at, read_at = 2.0, 2.0 + (10 ** 5 + 0.5) * heartbeat

    def stretch(node_class, net_class):
        env, rng = Environment(), RngRegistry(0)
        seen = []
        env.timeout_at(read_at).callbacks.append(lambda _timer: seen.append(
            (net.messages_sent,
             [next_draw(rng.stream(name)) for name in names])))
        net = net_class(env, rng, base_latency_s=base, jitter_s=jitter)
        for node_id in ids:
            node_class(env, rng, net, node_id, ids, inert(),
                       heartbeat_interval_s=heartbeat)
        env.run(until=idle_at)
        return env, net, seen

    env, net, seen = stretch(RaftNode, Network)
    assert net.idle is not None
    draws, latency = [], net.latency

    def counted():
        draws.append(None)
        return latency()

    net.latency = counted
    env.run(until=read_at)
    assert len(draws) <= 3 * 2 * (len(ids) - 1)
    event_env, _net, reference = stretch(EventNode, EventNetwork)
    event_env.run(until=read_at)
    assert seen == reference and len(seen) == 1


class Elections:
    """A tracer recording each election with its instant."""

    def __init__(self, env, log):
        self.env, self.log = env, log

    def on_leader_elected(self, node):
        self.log.append((node.current_term, node.node_id, self.env.now))

    def on_apply(self, node, index, entry):
        pass


def one_registry_two_groups(build):
    """Group "a" alone on a registry until t = 3, then group "b" on the
    same one; a proposal to a's leader, a crash of b's, reads between.
    ``build(env, rng, name)`` returns a group's network and nodes.  The
    elections' instants rest on the deadlines the idle rounds drew."""
    env, rng = Environment(), RngRegistry(11)
    groups, reads, idle, elections = {}, [], [], []

    def add(name):
        groups[name] = build(env, rng, name)
        for node in groups[name][1]:
            node.tracer = Elections(env, elections)

    def add_b(_timer):
        add("b")

    def read(_timer):
        reads.append((env.now, [
            (net.messages_sent, [(n.state, n.current_term, n.commit_index,
                                  n.leader_hint) for n in nodes])
            for net, nodes in groups.values()],
            [next_draw(stream) for _name, stream
             in sorted(rng._streams.items())]))
        idle.append([getattr(net, "idle", None) is not None
                     for net, _nodes in groups.values()])

    def first_leader(name):
        return next(n for n in groups[name][1] if n.is_leader)

    for at, step in ((2.01, read), (3.0, add_b), (9.02, read),
                     (12.03, lambda _t: first_leader("a").propose("x")),
                     (20.04, read),
                     (25.05, lambda _t: first_leader("b").crash()),
                     (40.06, read)):
        env.timeout_at(at).callbacks.append(step)
    add("a")
    env.run(until=45.0)
    return reads + elections, idle


def test_two_groups_on_one_registry_keep_their_rounds_on_events():
    def clusters(env, rng, name):
        cluster = RaftCluster(env, rng, inert, name=name)
        return cluster.network, list(cluster.nodes.values())

    def event_groups(env, rng, name):
        net = EventNetwork(env, rng)
        ids = [f"{name}-{i}" for i in range(3)]
        return net, [EventNode(env, rng, net, node_id, ids, inert())
                     for node_id in ids]

    seen, idle = one_registry_two_groups(clusters)
    reference, _idle = one_registry_two_groups(event_groups)
    assert seen == reference
    # Alone, "a" idles; beside "b", neither does.
    assert idle == [[True], [False, False], [False, False], [False, False]]
