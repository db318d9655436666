"""The greedy flood over hash sets of edge tuples, which the bitmasks replaced.

:class:`repro.core.coloring.greedy.GreedySession` keeps ``G`` as a mask
over the process-wide edge index and merges a round with ``|=``.  This
is the session it replaced.  ``_complete_round`` is kept verbatim: ``G``
is a mutable set of canonical ``(min, max)`` tuples; a round that adds
edges rebuilds ``frozenset(graph)``, the one object every peer of the
round receives; and the finish colours that frozenset.  Its messages
carry frozensets, never masks, so it must not be wired to real
sessions.  ``tests/test_greedy_masks.py`` runs one beside every real
session, feeds it the same inputs decoded, and checks the two after
every round.
"""

from __future__ import annotations

from typing import FrozenSet, Set, Tuple

from repro.core.coloring.greedy import greedy_color_graph
from repro.core.coloring.session import ColoringSession, FinishFn, SendFn
from repro.core.messages import GraphExchange
from repro.net.topology import link_key

Edge = Tuple[int, int]

_NO_EDGES: FrozenSet[Edge] = frozenset()


class SetGreedySession(ColoringSession):
    """One greedy recoloring run with ``G`` as a set of edge tuples."""

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
