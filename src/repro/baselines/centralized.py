"""An omniscient centralized scheduler — the response-time floor.

Not a distributed algorithm at all: a single oracle sees every node's
state and the live topology, and admits hungry nodes in FIFO order the
instant no neighbor is eating.  Zero messages, zero latency.  Useful as
the lower-bound reference series in the Table 1 benchmark: no
message-passing protocol can respond faster on the same workload.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.base import LocalMutexAlgorithm, NodeServices
from repro.core.states import NodeState
from repro.net.messages import Message
from repro.net.topology import DynamicTopology


class OracleScheduler:
    """Shared admission controller (one per simulation).

    With ``global_exclusion`` the oracle enforces *global* mutual
    exclusion — at most one eater anywhere — turning it into an
    idealized stand-in for the token-based global-mutex algorithms the
    paper's introduction contrasts against (Walter et al. [39] etc.).
    Comparing the two oracle modes isolates exactly what "local" buys:
    spatial reuse of the critical section.
    """

    def __init__(
        self, topology: DynamicTopology, global_exclusion: bool = False
    ) -> None:
        self._topology = topology
        self._global = global_exclusion
        self._queue: List[int] = []
        self._nodes: Dict[int, "CentralizedOracle"] = {}

    def register(self, algorithm: "CentralizedOracle") -> None:
        self._nodes[algorithm.node_id] = algorithm

    # ------------------------------------------------------------------
    def request(self, node_id: int) -> None:
        if node_id not in self._queue:
            self._queue.append(node_id)
        self._admit()

    def release(self, node_id: int) -> None:
        self._admit()

    def topology_changed(self) -> None:
        self._admit()

    # ------------------------------------------------------------------
    def _eating(self, node_id: int) -> bool:
        algorithm = self._nodes.get(node_id)
        return (
            algorithm is not None
            and algorithm.node.state is NodeState.EATING
        )

    def _admit(self) -> None:
        admitted = True
        while admitted:
            admitted = False
            for node_id in list(self._queue):
                algorithm = self._nodes[node_id]
                if algorithm.node.state is not NodeState.HUNGRY:
                    self._queue.remove(node_id)
                    continue
                if self._global:
                    blockers = (
                        j for j in self._nodes if j != node_id
                    )
                else:
                    blockers = self._topology.neighbors(node_id)
                if any(self._eating(j) for j in blockers):
                    continue
                self._queue.remove(node_id)
                algorithm.node.start_eating()
                admitted = True
                break


class CentralizedOracle(LocalMutexAlgorithm):
    """Per-node shim delegating every decision to the shared oracle."""

    name = "oracle"

    def __init__(self, node: NodeServices, scheduler: OracleScheduler) -> None:
        super().__init__(node)
        self.scheduler = scheduler
        scheduler.register(self)

    def on_hungry(self) -> None:
        self.scheduler.request(self.node_id)

    def on_exit_cs(self) -> None:
        self.scheduler.release(self.node_id)

    def on_message(self, src: int, message: Message) -> None:
        pass  # the oracle never sends messages

    def on_link_up(self, peer: int, moving: bool) -> None:
        if moving and self.node.state is NodeState.EATING:
            self.node.demote_to_hungry()
            self.scheduler.request(self.node_id)
        self.scheduler.topology_changed()

    def on_link_down(self, peer: int) -> None:
        self.scheduler.topology_changed()
