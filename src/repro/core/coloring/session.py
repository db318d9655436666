"""Round-synchronized peer exchange shared by both coloring procedures.

A coloring session runs behind the recoloring double doorway.  Per
round, the node sends one message to every live participant in ``R``
and waits for one message from each.  Peers leave ``R`` via NACK (they
are not participating, Algorithm 2 Lines 40-43) or link failure
(Algorithm 3 Line 61); the round completes when every remaining peer
has answered.

Messages are paired to rounds by per-peer FIFO order (the links are
FIFO and a participant has at most one outstanding round message per
peer), so no global round tags are required for correctness; the tags
on the wire exist for tracing and sanity checks.

Round alignment between neighbors is guaranteed by the doorway
structure: a node cannot start a session while a neighbor is mid-session
(it would be blocked at the SDr entry), as analyzed in Lemma 19.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.net.messages import Message

SendFn = Callable[[int, Message], None]
FinishFn = Callable[[int], None]

#: One consumed round input: (sender id, message).
RoundInput = Tuple[int, Message]


class ColoringSession(abc.ABC):
    """One run of a coloring procedure for one node.

    Args:
        node_id: the host node's id (its initial "color" is its ID).
        peers: the initial participant set R (a copy is taken).
        send: unicast send to a peer.
        finish: called exactly once with the procedure's return value
            (the wrapper negates it per Algorithm 2 Line 38).
    """

    def __init__(
        self,
        node_id: int,
        peers: Set[int],
        send: SendFn,
        finish: FinishFn,
    ) -> None:
        self.node_id = node_id
        self.peers: Set[int] = set(peers)
        self._send = send
        self._finish_cb = finish
        self.active = False
        self.rounds_executed = 0
        #: Telemetry probes; Algorithm 1 installs them after
        #: ``create_session`` (None when the run is uninstrumented).
        self.probes = None
        self._awaiting: Set[int] = set()
        self._inbox: Dict[int, Deque[Message]] = {}
        self._round_inputs: List[RoundInput] = []
        self._in_round = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Start the session (crossing SDr just completed)."""
        self.active = True
        self._start()

    def abort(self) -> None:
        """Tear the session down (the host moved; Algorithm 3 Line 52)."""
        self.active = False
        self._inbox.clear()
        self._awaiting.clear()

    def remove_peer(self, peer: int) -> None:
        """Drop a peer from R (NACK received or link failed)."""
        if not self.active:
            return
        self.peers.discard(peer)
        self._inbox.pop(peer, None)
        if self._in_round and peer in self._awaiting:
            self._awaiting.discard(peer)
            self._maybe_complete_round()

    # ------------------------------------------------------------------
    # Message intake
    # ------------------------------------------------------------------
    def on_peer_message(self, src: int, message: Message) -> None:
        """Take a round message from a participating peer."""
        if not self.active or src not in self.peers:
            return  # stale (peer already dropped, or session over)
        if self._in_round and src in self._awaiting:
            # Nothing older of src's is queued: _send_round consumed
            # its backlog before leaving it in the awaited set.
            self._awaiting.discard(src)
            self._round_inputs.append((src, message))
            self._maybe_complete_round()
        else:
            # src ran a round ahead of us; keep it for our next round.
            self._inbox.setdefault(src, deque()).append(message)

    def _maybe_complete_round(self) -> None:
        if self._in_round and not self._awaiting:
            self._in_round = False
            inputs = self._round_inputs
            self._round_inputs = []
            self.rounds_executed += 1
            if self.probes is not None:
                self.probes.note_recolor_round()
            self._complete_round(inputs)

    # ------------------------------------------------------------------
    # Round plumbing for subclasses
    # ------------------------------------------------------------------
    def _send_round(self, message: Message) -> None:
        """Send this round's message to every peer and await replies."""
        self._awaiting = awaiting = set(self.peers)
        self._in_round = True
        for peer in sorted(awaiting):
            self._send(peer, message)
        # Backlog of peers that ran a round ahead: O(backlog), not O(R).
        inbox = self._inbox
        for src in sorted(awaiting.intersection(inbox)):
            queue = inbox[src]
            awaiting.discard(src)
            self._round_inputs.append((src, queue.popleft()))
            if not queue:
                del inbox[src]
        self._maybe_complete_round()

    def _finish(self, value: int) -> None:
        self.active = False
        self._inbox.clear()
        self._awaiting.clear()
        self._in_round = False
        self._finish_cb(value)

    # ------------------------------------------------------------------
    # Subclass responsibilities
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _start(self) -> None:
        """Kick off the first round (or finish immediately)."""

    @abc.abstractmethod
    def _complete_round(self, inputs: List[RoundInput]) -> None:
        """All awaited peers answered; advance the procedure.

        ``inputs`` are (sender, message) pairs, one per peer that was
        awaited when the round completed.
        """


class ColoringProcedure(abc.ABC):
    """Factory for coloring sessions; one per Algorithm 1 configuration."""

    #: Procedure name used in configs and reports ("greedy" / "linial").
    name = "abstract"

    @abc.abstractmethod
    def create_session(
        self,
        node_id: int,
        peers: Set[int],
        send: SendFn,
        finish: FinishFn,
    ) -> ColoringSession:
        """Build a fresh session for one recoloring run."""

    @abc.abstractmethod
    def max_color(self) -> Optional[int]:
        """Upper bound on returned colors (Delta), None if unbounded."""
