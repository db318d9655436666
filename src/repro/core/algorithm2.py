"""Algorithm 2: optimal failure locality via dynamic priorities (Chapter 6).

No doorways and no colors: each node keeps a boolean ``higher[j]`` per
neighbor ("j currently has priority over me").  A node that becomes
hungry first *notifies* its neighbors; a thinking neighbor that still
outranks the requester responds by *switching* — lowering itself below
all of its neighbors — so standing priority can never be hoarded by
passive nodes (this is what buys the O(n) static response time of
Theorem 26).  A node exiting its critical section likewise lowers
itself below everyone (the link-reversal step that keeps the priority
graph acyclic, Lemma 24).

Fork collection itself is the shared engine with ``higher[]`` in place
of color comparisons; the "outside SDf" grant bypass becomes "I am
thinking" since there is no doorway to be outside of.

Failure locality is the optimal 2 (Theorem 25): a crashed node can
strand only the neighbors waiting on its forks and, transitively, their
neighbors waiting on *those* forks — never further, because a hungry
node with all low forks suspends high requests only while its crashed
high neighbor keeps it from eating.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Optional, Set

from repro.core.base import LocalMutexAlgorithm, NodeServices
from repro.core.dispatch import MessageDispatchMixin, handles
from repro.core.fork_collection import ForkProtocol
from repro.core.forks import ForkTable
from repro.core.messages import ForkGrant, ForkRequest, Notification, Switch
from repro.core.states import NodeState


class Algorithm2(MessageDispatchMixin, LocalMutexAlgorithm):
    """The second algorithm (Algorithms 6 and 7)."""

    name = "alg2"

    __slots__ = (
        "higher", "low", "forks", "fork_proto", "switches_sent", "_probes",
    )

    def __init__(self, node: NodeServices) -> None:
        super().__init__(node)
        #: higher[j] — neighbor j has priority over us.  Exactly one of
        #: higher_i[j] / higher_j[i] holds except while a switch message
        #: is in transit (both True), preserving Lemma 24's acyclicity.
        #: Written only through :meth:`_set_higher`.
        self.higher: Dict[int, bool] = {}
        #: ``{j : higher[j]}``, kept in step by :meth:`_set_higher` — the
        #: fork engine's low set (``all-low-forks`` is ``held ⊇ low ∩ N``).
        self.low: Set[int] = set()
        self.forks = ForkTable()
        self.fork_proto = ForkProtocol(self)
        #: Counter for experiments.
        self.switches_sent = 0
        # Telemetry (None when the run is uninstrumented).
        self._probes = getattr(node, "probes", None)

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------
    def bootstrap_peer(self, peer: int) -> None:
        """Initial state: smaller ID holds the fork and yields priority."""
        self.forks.set_holds(peer, self.node_id < peer)
        self._set_higher(peer, self.node_id < peer)

    def bootstrap_peers(self, peers) -> None:
        """Fused :meth:`bootstrap_peer` loop (city-scale construction).

        Same per-peer state in the same (ascending) insertion order,
        writing the two per-peer dicts directly instead of paying two
        method calls and a property read per link endpoint; the peers
        above us — a tail of the ascending sequence — are both ``held``
        and ``low``.
        """
        me = self.node.node_id
        at = self.forks._at
        higher = self.higher
        for peer in peers:
            at[peer] = higher[peer] = me < peer
        above = peers[bisect_right(peers, me):]
        self.forks.held.update(above)
        self.low.update(above)

    def _set_higher(self, peer: int, value: Optional[bool]) -> None:
        """Write ``higher[peer]`` (None deletes it), keeping ``low`` in step."""
        if value is None:
            self.higher.pop(peer, None)
        else:
            self.higher[peer] = value
        if value:
            self.low.add(peer)
        else:
            self.low.discard(peer)

    # ------------------------------------------------------------------
    # ForkHost interface
    # ------------------------------------------------------------------
    def is_low(self, peer: int) -> bool:
        return peer in self.low

    def collecting(self) -> bool:
        return self.node.state is NodeState.HUNGRY

    def bypass_grants(self) -> bool:
        return self.node.state is NodeState.THINKING

    def want_back(self, peer: int) -> bool:
        return self.is_low(peer) and self.node.state is NodeState.HUNGRY

    def enter_cs(self) -> None:
        self.node.start_eating()

    # ------------------------------------------------------------------
    # Application upcalls
    # ------------------------------------------------------------------
    def on_hungry(self) -> None:
        """Lines 1-5: notify everyone, then start collecting."""
        if self._probes is not None:
            self._probes.note_notification()
        self.node.broadcast(Notification())
        self.fork_proto.start_collection()

    def on_exit_cs(self) -> None:
        """Lines 6-9: lower our priority below all, grant suspensions."""
        self._switch_below_all("exit_cs")
        self.fork_proto.grant_suspended()
        self.fork_proto.clear_requests()

    def _switch_below_all(self, reason: str) -> None:
        """Send ``switch`` to every neighbor we currently outrank.

        ``reason`` labels the priority flip for telemetry: "exit_cs"
        (Lines 6-9), "notified" (Lines 22-25) or "link_up" (Lines 45-46).
        """
        probes = self._probes
        for peer in self.node.sorted_neighbors():
            state = self.higher.get(peer)
            if state is None:
                # The link formed this very instant and its handshake
                # (on_link_up) has not run yet; the per-link priority is
                # established there.  Treating the missing entry as "we
                # outrank them" would send a Switch that can cross the
                # peer's own and leave both sides low — the antisymmetry
                # violation the priority monitor guards against.
                continue
            if not state:
                self.node.send(peer, Switch())
                self._set_higher(peer, True)
                self.switches_sent += 1
                if probes is not None:
                    probes.note_switch(reason)

    # ------------------------------------------------------------------
    # Messages
    # ------------------------------------------------------------------
    #: The dispatch table lookup is the upcall itself: one frame less on
    #: every delivery.
    on_message = MessageDispatchMixin.dispatch_message

    @handles(ForkRequest)
    def _on_fork_request(self, src: int, message: ForkRequest) -> None:
        self.fork_proto.handle_request(src)

    @handles(ForkGrant)
    def _on_fork_grant(self, src: int, message: ForkGrant) -> None:
        self.fork_proto.handle_fork(src, message.flag)

    @handles(Notification)
    def _on_notification(self, src: int, message: Notification) -> None:
        # Lines 22-25: a thinking node that outranks the requester
        # steps below all of its neighbors.
        if self.node.state is NodeState.THINKING and src not in self.low:
            self._switch_below_all("notified")

    @handles(Switch)
    def _on_switch(self, src: int, message: Switch) -> None:
        # Lines 26-27 — plus a progress re-check: the sender just
        # became our high neighbor, which can complete all-low-forks.
        self._set_higher(src, False)
        self.fork_proto.recheck()

    # ------------------------------------------------------------------
    # Link dynamics (Algorithm 7)
    # ------------------------------------------------------------------
    def on_link_up(self, peer: int, moving: bool) -> None:
        if not moving:
            # Lines 40-41: the static endpoint owns the fork and the
            # priority (bias toward non-moving nodes, Section 3.1).
            self.forks.link_created(peer, we_are_static=True)
            self._set_higher(peer, False)
            return
        # Lines 42-46: the mover yields the fork and all priority.
        self.forks.link_created(peer, we_are_static=False)
        self._set_higher(peer, True)
        if self.node.state is NodeState.EATING:
            self.node.demote_to_hungry()  # Line 44
        self._switch_below_all("link_up")  # Lines 45-46
        # Resume collection against the new neighborhood (the proof of
        # Theorem 25 restarts the response-time analysis at the move).
        self.fork_proto.recheck()

    def on_link_down(self, peer: int) -> None:
        # Lines 47-48 (S := S \ {j}) plus per-link state destruction.
        self.forks.link_destroyed(peer)
        self._set_higher(peer, None)
        self.fork_proto.forget_peer(peer)
        # A departed neighbor may have been the only reason we could not
        # eat; the macros are over the *current* neighbor set.
        self.fork_proto.recheck()
