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

Edge sets are bitmasks.  One append-only, process-wide edge index maps
each canonical ``(min, max)`` edge to a bit (``_BIT``) and back
(``_EDGES``); an edge set is the ``int`` with those bits set, so a
round's merge is ``graph |= msg.edges``, a C loop over machine words,
and the mask a round sends is an immutable object every peer shares.
The index is process-wide, not per procedure, because the sessions of
every node in a simulation exchange masks in one process.  Bit
positions are private to the process:
:class:`~repro.core.messages.GraphExchange` pickles its decoded edges
and the receiver re-encodes them through its own index, and colors
never depend on bit positions.  The index only grows: its size — and
so every mask's width — is at most the number of distinct edges that
entered a greedy session in this process, at most n(n-1)/2.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.coloring.session import (
    ColoringProcedure,
    ColoringSession,
    FinishFn,
    SendFn,
)
from repro.core.messages import GraphExchange
from repro.net.topology import link_key

Edge = Tuple[int, int]

#: The process-wide edge index: bit ``i`` of every mask is ``_EDGES[i]``,
#: and ``_BIT`` is its inverse.  Append-only.
_EDGES: List[Edge] = []
_BIT: Dict[Edge, int] = {}


def encode_edges(edges: Iterable[Edge]) -> int:
    """The mask of canonical ``edges``, indexing edges not seen before."""
    mask = 0
    for edge in edges:
        bit = _BIT.get(edge)
        if bit is None:
            bit = _BIT[edge] = len(_EDGES)
            _EDGES.append(edge)
        mask |= 1 << bit
    return mask


def decode_edges(mask: int) -> List[Edge]:
    """The edges of ``mask``, in bit order."""
    bits = bin(mask)[:1:-1]  # least significant bit first
    edges = []
    bit = bits.find("1")
    while bit >= 0:
        edges.append(_EDGES[bit])
        bit = bits.find("1", bit + 1)
    return edges


def graph_exchange(
    iteration: int, edges: Tuple[Edge, ...], finished: bool
) -> GraphExchange:
    """Rebuild an unpickled :class:`GraphExchange` in this process's index."""
    return GraphExchange(iteration, encode_edges(edges), finished)


def _greedy_colors(edges: Iterable[Edge]) -> Dict[int, int]:
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


# Concurrent participants end the flood with equal masks (Lemma 14), so
# a recolouring wave asks for the same colouring once per node; only a
# miss decodes the mask.  Callers must not mutate the returned dict.
@lru_cache(maxsize=8)
def _mask_colors(mask: int) -> Dict[int, int]:
    return _greedy_colors(decode_edges(mask))


def greedy_color_graph(edges: FrozenSet[Edge], node_id: int) -> int:
    """Deterministically greedy-color the graph; return node_id's color.

    Traversal is DFS from the smallest node id of each component,
    visiting neighbors in ascending order — every node computing this
    on the same edge set assigns the same colors.  A node absent from
    the graph is isolated and gets color 0.
    """
    return _greedy_colors(edges).get(node_id, 0)


class GreedySession(ColoringSession):
    """One greedy recoloring run (the loop of Algorithm 4)."""

    def __init__(
        self, node_id: int, peers: Set[int], send: SendFn, finish: FinishFn
    ) -> None:
        super().__init__(node_id, peers, send, finish)
        #: G as a mask over the edge index (:func:`decode_edges` reads
        #: it); replaced only when a round added edges, so it is the
        #: one object every peer of that round receives.
        self.graph = 0

    def _start(self) -> None:
        if not self.peers:
            # Line 69: nobody is recoloring with us; alone in G, the
            # greedy traversal gives us colour 0.
            self._finish(0)
            return
        self._send_round(GraphExchange(1, 0, False))

    def _complete_round(self, inputs) -> None:
        merged = self.graph
        finished_seen = False
        for _, msg in inputs:
            merged |= msg.edges
            finished_seen = finished_seen or msg.finished
        node = self.node_id
        merged |= encode_edges([link_key(node, peer) for peer in self.peers])
        # The merge only ever adds edges, so unequal means the union grew.
        changed = merged != self.graph
        if changed:
            self.graph = merged
        graph = self.graph
        iteration = self.rounds_executed + 1
        if changed and not finished_seen and self.peers:
            self._send_round(GraphExchange(iteration, graph, False))
            return
        # Line 71: one last message with the finished flag on.
        last = GraphExchange(iteration, graph, True)
        for peer in sorted(self.peers):
            self._send(peer, last)
        self._finish(_mask_colors(graph).get(self.node_id, 0))


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
