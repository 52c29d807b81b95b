"""A Raft consensus node running on the simulation kernel.

Implements leader election, log replication and commitment per the Raft
paper.  Nodes exchange messages over :class:`repro.raft.network.Network`;
committed commands are applied in log order to a user-supplied ``apply_fn``
(the etcd key-value store in this repo).

Crash-stop failures are modelled with :meth:`crash` / :meth:`restart`:
persistent state (term, vote, log) survives; volatile state is rebuilt by
the protocol, exactly as with an on-disk Raft implementation.

While a group is idle its heartbeat rounds are float arithmetic, not
kernel events (:class:`IdleRounds`; DESIGN.md "An idle Raft group is a
deadline").
"""

from __future__ import annotations

from math import inf
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConsensusError, NotLeaderError
from repro.raft.messages import (
    AppendEntries,
    AppendEntriesReply,
    LogEntry,
    RequestVote,
    RequestVoteReply,
)
from repro.raft.network import Network
from repro.sim.core import Environment, Event, Timeout
from repro.sim.rng import RngRegistry

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"


class StateMachine:
    """Interface for the replicated state machine driven by a Raft node.

    ``apply`` is called exactly once per committed index, in order.  ``reset``
    is called when a crashed node restarts: its volatile state machine is
    discarded and rebuilt by replaying the log from index 1.
    """


class CallbackStateMachine(StateMachine):
    """Adapter turning plain callables into a :class:`StateMachine`."""

    def __init__(self, apply_fn: Callable[[int, Any], Any],
                 reset_fn: Optional[Callable[[], None]] = None):
        self._apply_fn = apply_fn
        self._reset_fn = reset_fn

    def apply(self, index: int, command: Any) -> Any:
        return self._apply_fn(index, command)

    def reset(self) -> None:
        if self._reset_fn is not None:
            self._reset_fn()


class RaftNode:
    """One member of a Raft group."""

    def __init__(
        self,
        env: Environment,
        rng: RngRegistry,
        network: Network,
        node_id: str,
        peer_ids: List[str],
        state_machine: StateMachine,
        election_timeout_s: tuple[float, float] = (0.15, 0.30),
        heartbeat_interval_s: float = 0.05,
    ):
        lo, hi = election_timeout_s
        if not 0 < heartbeat_interval_s < lo <= hi < inf:  # NaN fails too
            raise ConsensusError(
                f"need 0 < heartbeat < election lo <= hi < inf, got "
                f"{heartbeat_interval_s!r}, {election_timeout_s!r}")
        self.env = env
        #: KernelProfiler site family of the timer callback.
        self.name = f"raft:{node_id}"
        self.rng = rng.stream(f"raft:{node_id}")
        self.network = network
        self.node_id = node_id
        self.peer_ids = [p for p in peer_ids if p != node_id]
        self.state_machine = state_machine
        self.election_timeout_s = election_timeout_s
        self.heartbeat_interval_s = heartbeat_interval_s

        # Persistent state (survives crash/restart).
        self.current_term = 0
        self.voted_for: Optional[str] = None
        self.log: List[LogEntry] = []  # log[i] has raft index i+1

        # Volatile state.
        self.state = FOLLOWER
        self.commit_index = 0
        self.last_applied = 0
        self.leader_hint: Optional[str] = None
        self.next_index: Dict[str, int] = {}
        self.match_index: Dict[str, int] = {}
        self._votes: set[str] = set()
        self._crashed = False
        #: The election / heartbeat timer is a deadline and at most one
        #: live timer, firing at ``_timer_at <= _due`` (DESIGN.md, "When
        #: a `Process` is warranted").
        self._due = self._timer_at = 0.0
        self._timer: Optional[Timeout] = None
        self._kicked: Optional[tuple] = None  # (events_processed, now)
        self._pending: Dict[int, Event] = {}  # raft index -> proposal event
        self.apply_results: Dict[int, Any] = {}
        #: Optional invariant tracer (e.g. staticcheck's
        #: RaftInvariantChecker): notified on elections and applies.
        self.tracer: Optional[Any] = None

        network.register(node_id, self._on_message)
        self._kick_timer()

    # -- public API ----------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.state == LEADER and not self._crashed

    @property
    def last_log_index(self) -> int:
        return len(self.log)

    @property
    def last_log_term(self) -> int:
        return self.log[-1].term if self.log else 0

    def propose(self, command: Any) -> Event:
        """Append a command (leader only); event fires once it is applied.

        The event's value is whatever ``apply_fn`` returned for the command.
        It fails with :class:`NotLeaderError` if leadership is lost before
        commitment.
        """
        self.network.wake()
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
        self.network.take_down(self.node_id)
        self._crashed = True
        self._fail_pending(NotLeaderError(self.node_id))
        self.state = FOLLOWER
        self._votes.clear()

    def restart(self) -> None:
        """Recover with persistent state intact."""
        if not self._crashed:
            return
        self._crashed = False
        self.commit_index = 0
        self.last_applied = 0
        self.apply_results.clear()
        self.state_machine.reset()
        self.leader_hint = None
        self.network.bring_up(self.node_id)
        self._become_follower(self.current_term)

    # -- state transitions -----------------------------------------------------

    def _become_follower(self, term: int) -> None:
        if term > self.current_term:
            self.current_term = term
            self.voted_for = None
        if self.state == LEADER:
            self._fail_pending(NotLeaderError(self.node_id))
        self.state = FOLLOWER
        self._votes.clear()
        self._kick_timer()

    def _become_candidate(self) -> None:
        self.state = CANDIDATE
        self.current_term += 1
        self.voted_for = self.node_id
        self._votes = {self.node_id}
        self.leader_hint = None
        request = RequestVote(self.current_term, self.node_id,
                              self.last_log_index, self.last_log_term)
        for peer in self.peer_ids:
            self.network.send(self.node_id, peer, request)
        if self._has_majority(len(self._votes)):  # single-node group
            self._become_leader()

    def _become_leader(self) -> None:
        self.state = LEADER
        self.leader_hint = self.node_id
        for peer in self.peer_ids:
            self.next_index[peer] = self.last_log_index + 1
            self.match_index[peer] = 0
        self.match_index[self.node_id] = self.last_log_index
        if self.tracer is not None:
            self.tracer.on_leader_elected(self)
        self._broadcast_entries()
        self._kick_timer()

    def _has_majority(self, count: int) -> bool:
        cluster_size = len(self.peer_ids) + 1
        return count * 2 > cluster_size

    # -- timers ----------------------------------------------------------------

    def _election_timeout(self) -> float:
        lo, hi = self.election_timeout_s
        return lo + (hi - lo) * self.rng.random()

    def _kick_timer(self) -> None:
        """Re-evaluate the timer, at most once per kernel event: the
        ticker process this replaces resumed once however many kicks its
        reset event had absorbed.  Code run between two ``run()`` calls
        shares the last event's count; the instant tells it apart."""
        env = self.env
        stamp = (env.events_processed, env.now)
        if stamp != self._kicked:
            self._kicked = stamp
            self._settle()

    def _settle(self) -> None:
        """The loop top of the process form: a leader broadcasts and is
        due a heartbeat later, anyone else draws an election timeout."""
        now = self.env.now
        if self.state == LEADER:
            self._broadcast_entries()
            due = now + self.heartbeat_interval_s
        else:
            due = now + self._election_timeout()
        self._due = due
        if self._timer is None or self._timer_at > due:
            self._arm(due)  # the pending timer, if any, fires dead

    def _arm(self, when: float) -> None:
        self._timer_at = when
        self._timer = self.env.timeout_at(when)
        self._timer.callbacks.append(self._on_timer)

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
        else:
            followers = self._idle_followers()
            if followers is not None:
                self.network.idle = IdleRounds(self, followers)
                return
        self._settle()

    def _idle_followers(self) -> Optional[List["RaftNode"]]:
        """At a heartbeat of this leader: the followers, in peer order, if
        the group is idle and its rounds can be arithmetic, else None.

        Idle: no proposal pending and nothing in flight; every follower
        live, reachable both ways, in this term under this leader, caught
        up on log and commit index, and not due an election before this
        round's AppendEntries lands.  Arithmetic: no random drops, a
        round's replies land before the next round, and one round's
        AppendEntries lands before the election timeout the previous one
        drew.  Every endpoint must be the node itself: a wrapped handler
        sees deliveries the rounds do not make.
        """
        net = self.network
        lo = self.election_timeout_s[0]
        heartbeat = self.heartbeat_interval_s
        flight = net.base_latency_s + net.jitter_s
        if (self._pending or net.in_flight or net.drop_probability
                or not heartbeat + net.jitter_s < lo
                or not heartbeat > 2 * flight
                or _endpoint(net, self.node_id) is not self):
            return None
        lands_by = self.env.now + flight
        last, last_term = self.last_log_index, self.last_log_term
        followers = []
        for peer in self.peer_ids:
            node = _endpoint(net, peer)
            if (node is None or node._crashed or node.state != FOLLOWER
                    or node.current_term != self.current_term
                    or node.leader_hint != self.node_id
                    or node.last_log_index != last
                    or node.last_log_term != last_term
                    or node.commit_index != self.commit_index
                    or self.match_index.get(peer) != last
                    or self.next_index.get(peer) != last + 1
                    or not net.is_reachable(self.node_id, peer)
                    or not net.is_reachable(peer, self.node_id)
                    or not node._due > lands_by):
                return None
            followers.append(node)
        return followers

    # -- message handling --------------------------------------------------------

    def _on_message(self, src: str, msg: Any) -> None:
        self.network.wake()  # idle only if handed in from outside
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

    def _on_request_vote(self, src: str, msg: RequestVote) -> None:
        grant = False
        if msg.term >= self.current_term:
            log_ok = (msg.last_log_term, msg.last_log_index) >= \
                (self.last_log_term, self.last_log_index)
            if log_ok and self.voted_for in (None, msg.candidate_id):
                grant = True
                self.voted_for = msg.candidate_id
                self._kick_timer()
        self.network.send(self.node_id, src,
                          RequestVoteReply(self.current_term, self.node_id,
                                           grant))

    def _on_vote_reply(self, msg: RequestVoteReply) -> None:
        if self.state != CANDIDATE or msg.term != self.current_term:
            return
        if msg.vote_granted:
            self._votes.add(msg.voter_id)
            if self._has_majority(len(self._votes)):
                self._become_leader()

    def _on_append_entries(self, src: str, msg: AppendEntries) -> None:
        if msg.term < self.current_term:
            self.network.send(self.node_id, src, AppendEntriesReply(
                self.current_term, self.node_id, False, 0))
            return
        # Valid leader for this term.
        if self.state != FOLLOWER:
            self._become_follower(msg.term)
        self.leader_hint = msg.leader_id
        self._kick_timer()
        # Consistency check on the previous entry.
        if msg.prev_log_index > self.last_log_index or (
                msg.prev_log_index > 0 and
                self.log[msg.prev_log_index - 1].term != msg.prev_log_term):
            hint = min(msg.prev_log_index, self.last_log_index)
            self.network.send(self.node_id, src, AppendEntriesReply(
                self.current_term, self.node_id, False, hint))
            return
        # Append / overwrite entries.
        insert_at = msg.prev_log_index
        for i, entry in enumerate(msg.entries):
            idx = insert_at + i  # zero-based position in self.log
            if idx < len(self.log):
                if self.log[idx].term != entry.term:
                    del self.log[idx:]
                    self.log.append(entry)
            else:
                self.log.append(entry)
        match = msg.prev_log_index + len(msg.entries)
        if msg.leader_commit > self.commit_index:
            self.commit_index = min(msg.leader_commit, self.last_log_index)
            self._apply_committed()
        self.network.send(self.node_id, src, AppendEntriesReply(
            self.current_term, self.node_id, True, match))

    def _on_append_reply(self, msg: AppendEntriesReply) -> None:
        if self.state != LEADER or msg.term != self.current_term:
            return
        peer = msg.follower_id
        if msg.success:
            self.match_index[peer] = max(
                self.match_index.get(peer, 0), msg.match_index)
            self.next_index[peer] = self.match_index[peer] + 1
            self._maybe_advance_commit()
        else:
            # Back up and retry immediately.
            self.next_index[peer] = max(1, min(
                self.next_index.get(peer, 1) - 1,
                msg.match_index + 1))
            self._send_entries(peer)

    # -- replication helpers --------------------------------------------------

    def _send_entries(self, peer: str) -> None:
        next_idx = self.next_index.get(peer, self.last_log_index + 1)
        prev_idx = next_idx - 1
        prev_term = self.log[prev_idx - 1].term if prev_idx > 0 else 0
        entries = self.log[next_idx - 1:]
        self.network.send(self.node_id, peer, AppendEntries(
            self.current_term, self.node_id, prev_idx, prev_term,
            list(entries), self.commit_index))

    def _broadcast_entries(self) -> None:
        for peer in self.peer_ids:
            self._send_entries(peer)

    def _maybe_advance_commit(self) -> None:
        for idx in range(self.last_log_index, self.commit_index, -1):
            if self.log[idx - 1].term != self.current_term:
                continue  # only commit entries from the current term directly
            votes = sum(1 for p in [self.node_id] + self.peer_ids
                        if self.match_index.get(p, 0) >= idx)
            if self._has_majority(votes):
                self.commit_index = idx
                self._apply_committed()
                break

    def _apply_committed(self) -> None:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            entry = self.log[self.last_applied - 1]
            result = self.state_machine.apply(self.last_applied,
                                              entry.command)
            self.apply_results[self.last_applied] = result
            if self.tracer is not None:
                self.tracer.on_apply(self, self.last_applied, entry)
            pending = self._pending.pop(self.last_applied, None)
            if pending is not None and not pending.triggered:
                if entry.term == self.current_term and self.state == LEADER:
                    pending.succeed(result)
                else:
                    pending.fail(NotLeaderError(self.node_id,
                                                self.leader_hint))

    def _fail_pending(self, error: Exception) -> None:
        for event in self._pending.values():
            if not event.triggered:
                event.fail(error)
        self._pending.clear()


def _endpoint(network: Network, node_id: str) -> Optional[RaftNode]:
    """The node registered as ``node_id``'s endpoint, if its handler is
    the node's own ``_on_message`` (not a wrapper)."""
    handler = network.handler(node_id)
    if getattr(handler, "__func__", None) is RaftNode._on_message:
        return handler.__self__
    return None


class IdleRounds:
    """An idle group's heartbeat rounds as float arithmetic.

    Round *k* goes out at ``t_k = t_(k-1) + heartbeat``: the AppendEntries
    latencies are drawn from ``raft-network`` in peer order and the send
    counter advances; at each arrival, in arrival order (ties in send
    order), the follower draws its election timeout and its reply
    latency.  A reply changes nothing at the leader.  :meth:`settle`
    applies what happened strictly before ``now``; :meth:`resume` then
    hands the group back to its timers and schedules the messages still
    in flight at their exact instants.  ``Network.idle`` holds the
    rounds, and a fault-control call, a send, a proposal, a crash or a
    message handed to a node from outside the network resumes them.
    """

    def __init__(self, leader: RaftNode, followers: List[RaftNode]):
        self.leader = leader
        self.followers = followers
        self.network = leader.network
        leader.env.chains[self] = self.network
        for follower in followers:
            follower._timer = None  # it fires dead; resume() re-arms
        self._send(leader.env.now)

    def _send(self, at: float) -> None:
        """Round out at ``at``: arrivals as ``(instant, peer position)``."""
        net = self.network
        self.sent_at = at
        net._sent += len(self.followers)
        self.arrivals = sorted(
            (at + net.latency(), i) for i in range(len(self.followers)))
        self.delivered = 0
        self.replies: List[tuple] = []  # (lands at, peer position)

    def settle(self, now: float) -> None:
        """Apply the sends and arrivals strictly before ``now``."""
        net = self.network
        latency = net.latency
        followers = self.followers
        heartbeat = self.leader.heartbeat_interval_s
        while True:
            arrivals, replies = self.arrivals, self.replies
            for at, i in arrivals[self.delivered:]:
                if not at < now:
                    return
                follower = followers[i]
                follower._due = at + follower._election_timeout()
                net._sent += 1
                replies.append((at + latency(), i))
                self.delivered += 1
            at = self.sent_at + heartbeat
            if not at < now:
                return
            self._send(at)

    def resume(self, now: float) -> None:
        """Settle, then arm the nodes' timers at their deadlines and put
        the messages landing at or after ``now`` back in flight."""
        self.settle(now)
        leader, net = self.leader, self.network
        del leader.env.chains[self]
        term, leader_id = leader.current_term, leader.node_id
        last, last_term = leader.last_log_index, leader.last_log_term
        leader._due = self.sent_at + leader.heartbeat_interval_s
        leader._arm(leader._due)
        for at, i in self.arrivals[self.delivered:]:
            net.deliver_at(at, leader_id, self.followers[i].node_id,
                           AppendEntries(term, leader_id, last, last_term,
                                         [], leader.commit_index))
        for at, i in self.replies:
            if at >= now:
                follower_id = self.followers[i].node_id
                net.deliver_at(at, follower_id, leader_id,
                               AppendEntriesReply(term, follower_id, True,
                                                  last))
        for follower in self.followers:
            follower._arm(follower._due)
