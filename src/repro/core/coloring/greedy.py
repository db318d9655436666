"""Greedy coloring procedure (Algorithm 4, Section 5.4.1).

Each participant floods the subgraph ``G`` of concurrently-recoloring
nodes: per iteration it exchanges its edge set with the peers in R and
merges what it receives.  The loop ends when (1) no new edges arrived,
(2) a peer reported it finished, or (3) R became empty.  The node then
sends its final graph with ``finished=True`` and colors ``G`` with a
deterministic greedy traversal; concurrent neighbors end with the same
graph (Lemma 14) and therefore pick distinct colors (Assumption 1).

Complexities (Lemma 15 / Theorem 16): O(n) rounds and failure locality
n — a crash anywhere in the recoloring flood can stall every
participant — but colors land in [0, delta] and no knowledge of n or
delta is needed.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.core.coloring.session import (
    ColoringProcedure,
    ColoringSession,
    FinishFn,
    SendFn,
)
from repro.core.messages import GraphExchange
from repro.net.topology import link_key

Edge = Tuple[int, int]

_NO_EDGES: FrozenSet[Edge] = frozenset()


# Concurrent participants end the flood with equal edge sets (Lemma 14),
# so a recolouring wave asks for the same colouring once per node.  The
# cache is small because each entry pins a whole edge set; callers must
# not mutate the returned dict.
@lru_cache(maxsize=8)
def _color_map(edges: FrozenSet[Edge]) -> Dict[int, int]:
    """The deterministic greedy colouring of every node in ``edges``."""
    adjacency: Dict[int, Set[int]] = {}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    colors: Dict[int, int] = {}
    visited: Set[int] = set()
    for root in sorted(adjacency):
        if root in visited:
            continue
        stack = [root]
        visited.add(root)
        while stack:
            node = stack.pop()
            used = {colors[j] for j in adjacency[node] if j in colors}
            color = 0
            while color in used:
                color += 1
            colors[node] = color
            for j in sorted(adjacency[node], reverse=True):
                if j not in visited:
                    visited.add(j)
                    stack.append(j)
    return colors


def greedy_color_graph(edges: FrozenSet[Edge], node_id: int) -> int:
    """Deterministically greedy-color the graph; return node_id's color.

    Traversal is DFS from the smallest node id of each component,
    visiting neighbors in ascending order — every node computing this
    on the same edge set assigns the same colors.  A node absent from
    the graph is isolated and gets color 0.
    """
    return _color_map(edges).get(node_id, 0)


class GreedySession(ColoringSession):
    """One greedy recoloring run (the loop of Algorithm 4)."""

    def __init__(
        self, node_id: int, peers: Set[int], send: SendFn, finish: FinishFn
    ) -> None:
        super().__init__(node_id, peers, send, finish)
        self.graph: Set[Edge] = set()
        # ``frozenset(graph)``, rebuilt only when a round added edges:
        # the one object every peer of a round receives.
        self._frozen = _NO_EDGES

    def _start(self) -> None:
        if not self.peers:
            # Line 69: nobody is recoloring with us; decide immediately.
            self._finish(greedy_color_graph(_NO_EDGES, self.node_id))
            return
        self._send_round(GraphExchange(1, _NO_EDGES, False))

    def _complete_round(self, inputs) -> None:
        graph = self.graph
        known = len(graph)
        finished_seen = False
        for _, msg in inputs:
            graph.update(msg.edges)
            finished_seen = finished_seen or msg.finished
        graph.update(link_key(self.node_id, peer) for peer in self.peers)
        # The merge only ever adds edges, so equal size means no change.
        changed = len(graph) != known
        if changed:
            self._frozen = frozenset(graph)
        iteration = self.rounds_executed + 1
        if changed and not finished_seen and self.peers:
            self._send_round(GraphExchange(iteration, self._frozen, False))
            return
        # Line 71: one last message with the finished flag on.
        last = GraphExchange(iteration, self._frozen, True)
        for peer in sorted(self.peers):
            self._send(peer, last)
        self._finish(greedy_color_graph(self._frozen, self.node_id))


class GreedyColoring(ColoringProcedure):
    """Factory for :class:`GreedySession` (the "practical" variant)."""

    name = "greedy"

    def create_session(
        self, node_id: int, peers: Set[int], send: SendFn, finish: FinishFn
    ) -> GreedySession:
        return GreedySession(node_id, peers, send, finish)

    def max_color(self) -> Optional[int]:
        # Greedy colors are bounded by the recoloring subgraph's degree,
        # itself at most delta; the bound is topology-dependent, so the
        # procedure itself reports "unbounded" and the wrapper relies on
        # actual returned values.
        return None
