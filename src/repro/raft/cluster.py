"""Convenience wrapper wiring a full Raft group together.

:class:`RaftCluster` owns the network and the nodes, routes client proposals
to the current leader (retrying on leadership changes) and exposes fault
hooks (crash / restart / partition) used by the dependability experiments.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConsensusError, NotLeaderError
from repro.raft.network import Network
from repro.raft.node import RaftNode, StateMachine
from repro.sim.core import Environment
from repro.sim.rng import RngRegistry


class RaftCluster:
    """A group of :class:`RaftNode` replicas plus client routing."""

    def __init__(
        self,
        env: Environment,
        rng: RngRegistry,
        state_machine_factory: Callable[[str], StateMachine],
        size: int = 3,
        name: str = "raft",
        election_timeout_s: tuple[float, float] = (0.15, 0.30),
        heartbeat_interval_s: float = 0.05,
    ):
        if size < 1:
            raise ConsensusError("cluster size must be >= 1")
        self.env = env
        self.name = name
        self.network = Network(env, rng)
        node_ids = [f"{name}-{i}" for i in range(size)]
        self.nodes: Dict[str, RaftNode] = {}
        for node_id in node_ids:
            self.nodes[node_id] = RaftNode(
                env, rng, self.network, node_id, node_ids,
                state_machine_factory(node_id),
                election_timeout_s=election_timeout_s,
                heartbeat_interval_s=heartbeat_interval_s)

    def attach_tracer(self, tracer: Any) -> None:
        """Install an invariant tracer (e.g. staticcheck's
        RaftInvariantChecker) on every node of the group."""
        for node in self.nodes.values():
            node.tracer = tracer

    # -- queries ---------------------------------------------------------------

    def leader(self) -> Optional[RaftNode]:
        """The unique live leader with the highest term, if any."""
        leaders = [n for n in self.nodes.values() if n.is_leader]
        if not leaders:
            return None
        return max(leaders, key=lambda n: n.current_term)

    def node_ids(self) -> List[str]:
        return list(self.nodes)

    # -- client operations -------------------------------------------------------

    def propose(self, command: Any, max_retries: int = 50,
                retry_delay_s: float = 0.05):
        """Process: submit ``command``, retrying across leader changes.

        Yields until the command is applied; returns the apply result.
        """

        def attempt():
            for _ in range(max_retries):
                leader = self.leader()
                if leader is None:
                    yield self.env.timeout(retry_delay_s)
                    continue
                try:
                    result = yield leader.propose(command)
                    return result
                except NotLeaderError:
                    yield self.env.timeout(retry_delay_s)
            raise ConsensusError(
                f"proposal not committed after {max_retries} retries")

        return self.env.process(attempt(), name=f"{self.name}:propose")

    # -- fault injection -----------------------------------------------------------

    def crash(self, node_id: str) -> None:
        self.nodes[node_id].crash()

    def restart(self, node_id: str) -> None:
        self.nodes[node_id].restart()

    def crash_leader(self) -> Optional[str]:
        """Crash the current leader (if any); returns its id."""
        leader = self.leader()
        if leader is None:
            return None
        leader.crash()
        return leader.node_id
