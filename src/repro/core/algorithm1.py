"""Algorithm 1: local mutual exclusion with recoloring (Chapter 5).

The pipeline (Figure 5): a hungry node that moved since it last held a
legal color enters the recoloring double doorway (``ADr`` around
``SDr``), runs a coloring procedure behind it, then — while still
behind ``SDr`` — enters the fork-collection asynchronous doorway
``ADf``, exits the recoloring doorways, enters the fork-collection
synchronous doorway ``SDf`` (which has a return path), and collects
forks.  A hungry node that did not move skips straight to ``ADf``.

Priorities are colors: smaller color = higher priority.  The recoloring
module produces strictly negative colors (Line 38) while the exit code
of the critical section picks the smallest free color in ``[0, delta]``
(Line 6), so recolored (recently moved) nodes hold priority but are
fenced off by the doorways until standing competitors finish.

Link dynamics follow Algorithm 3: a static node adopts the new fork and
sends its color and doorway status to the newcomer (Lines 44-46); a
moving node abandons everything, waits for its new neighbors' state,
and restarts from the recoloring entry (Lines 47-55); link failure may
trigger the return path of ``SDf`` (Lines 56-61, the Figure 6 scenario).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core.base import LocalMutexAlgorithm, NodeServices
from repro.core.coloring.session import ColoringProcedure, ColoringSession
from repro.core.dispatch import MessageDispatchMixin, handles
from repro.core.doorway import (
    FORK_ASYNC,
    FORK_SYNC,
    RECOLOR_ASYNC,
    RECOLOR_SYNC,
    DoorwaySet,
)
from repro.core.fork_collection import ForkProtocol
from repro.core.forks import ForkTable
from repro.core.messages import (
    DoorwayCross,
    DoorwayExit,
    ForkGrant,
    ForkRequest,
    Hello,
    RecolorNack,
    RecoloringRound,
    UpdateColor,
)
from repro.core.states import NodeState


class Algorithm1(MessageDispatchMixin, LocalMutexAlgorithm):
    """The first algorithm (Chapters 4-5)."""

    name = "alg1"

    def __init__(
        self,
        node: NodeServices,
        coloring: ColoringProcedure,
        initial_colors: Optional[Dict[int, int]] = None,
    ) -> None:
        """
        Args:
            node: host node services.
            coloring: the recoloring procedure (greedy or Linial).
            initial_colors: an optional pre-assigned legal coloring of
                the whole network (node id -> color).  ``None`` (the
                default) makes every node recolor before first
                competing, which is how the paper obtains initial
                colors; passing a legal coloring reproduces the static
                Choy-Singh setting.
        """
        super().__init__(node)
        self.coloring = coloring
        self._initial_colors = initial_colors
        initial_color: Optional[int] = None
        if initial_colors is not None:
            initial_color = initial_colors.get(node.node_id)
        self.my_color: Optional[int] = initial_color
        #: Last known colors of neighbors (None = undefined, the paper's ⊥).
        self.colors: Dict[int, Optional[int]] = {}
        self.forks = ForkTable()
        self.fork_proto = ForkProtocol(self)
        self.doorways = DoorwaySet(node, self._on_crossed)
        self.session: Optional[ColoringSession] = None
        #: True when the node must recolor before competing again.
        self.needs_recolor = initial_color is None
        #: New static neighbors whose Hello we are waiting for (Line 53).
        self.pending_hellos: Set[int] = set()
        #: Counters for experiments.
        self.recolor_runs = 0
        self.return_paths_taken = 0
        # Telemetry (None when the run is uninstrumented).
        self._probes = getattr(node, "probes", None)
        self._recolor_started: Optional[float] = None

    # ------------------------------------------------------------------
    # Bootstrap (initial topology, before the run starts)
    # ------------------------------------------------------------------
    def bootstrap_peer(self, peer: int) -> None:
        """Install initial per-link state for a pre-existing neighbor.

        Initial fork placement follows the paper: ``at[j]`` is true when
        our ID is smaller.  Neighbor colors come from the optional
        initial coloring, else are undefined until the neighbor colors
        itself.
        """
        self.forks.set_holds(peer, self.node_id < peer)
        if self._initial_colors is not None:
            self.colors[peer] = self._initial_colors.get(peer)
        else:
            self.colors[peer] = None

    # ------------------------------------------------------------------
    # ForkHost interface
    # ------------------------------------------------------------------
    def is_low(self, peer: int) -> bool:
        """Low neighbor = strictly smaller (higher-priority) color.

        Neighbors with undefined color are not competing (they are
        movers awaiting recoloring, fenced off by the doorways) and are
        classified high.
        """
        peer_color = self.colors.get(peer)
        if peer_color is None or self.my_color is None:
            return False
        return peer_color < self.my_color

    def collecting(self) -> bool:
        return (
            self.doorways.is_behind(FORK_SYNC)
            and self.node.state is NodeState.HUNGRY
        )

    def bypass_grants(self) -> bool:
        return not self.doorways.is_behind(FORK_SYNC)

    def want_back(self, peer: int) -> bool:
        return self.is_low(peer) and self.doorways.is_behind(FORK_SYNC)

    def enter_cs(self) -> None:
        self.node.start_eating()

    # ------------------------------------------------------------------
    # Application upcalls
    # ------------------------------------------------------------------
    def on_hungry(self) -> None:
        self._maybe_start_pipeline()

    def on_exit_cs(self) -> None:
        """Lines 5-9: recolor greedily, grant suspensions, exit doorways."""
        used = {c for c in self.colors.values() if c is not None}
        color = 0
        while color in used:
            color += 1
        self.my_color = color
        self.needs_recolor = False
        self.node.broadcast(UpdateColor(color))
        self.fork_proto.grant_suspended()
        self.doorways.exit(FORK_SYNC)
        self.doorways.exit(FORK_ASYNC)
        self.fork_proto.clear_requests()

    # ------------------------------------------------------------------
    # Pipeline control
    # ------------------------------------------------------------------
    def _pipeline_active(self) -> bool:
        if self.session is not None:
            return True
        for doorway in (RECOLOR_ASYNC, RECOLOR_SYNC, FORK_ASYNC, FORK_SYNC):
            if self.doorways.is_behind(doorway) or self.doorways.is_waiting(doorway):
                return True
        return False

    def _maybe_start_pipeline(self) -> None:
        if self.node.state is not NodeState.HUNGRY:
            return
        if self.pending_hellos or self._pipeline_active():
            return
        if self.needs_recolor or self.my_color is None:
            self.doorways.start_entry(RECOLOR_ASYNC)
        else:
            self.doorways.start_entry(FORK_ASYNC)

    def _on_crossed(self, doorway: str) -> None:
        self.node.mark(doorway)
        if doorway == RECOLOR_ASYNC:
            self.doorways.start_entry(RECOLOR_SYNC)
        elif doorway == RECOLOR_SYNC:
            self._begin_recoloring()
        elif doorway == FORK_ASYNC:
            # Figure 5: ADf is crossed *inside* the recoloring doorways;
            # now leave them (nodes that skipped recoloring were never
            # behind them and these exits are no-ops).
            self.doorways.exit(RECOLOR_SYNC)
            self.doorways.exit(RECOLOR_ASYNC)
            self.doorways.start_entry(FORK_SYNC)
        elif doorway == FORK_SYNC:
            if self.node.state is NodeState.HUNGRY:
                self.fork_proto.start_collection()

    # ------------------------------------------------------------------
    # Recoloring module (Algorithm 2 wrapper)
    # ------------------------------------------------------------------
    def _begin_recoloring(self) -> None:
        self.recolor_runs += 1
        # R := N (Line 37) — the cached frozenset; the session copies it.
        peers = self.node.neighbors()
        self.session = self.coloring.create_session(
            self.node_id, peers, self.node.send, self._recolor_finished
        )
        if self._probes is not None:
            self._probes.note_recolor_begin()
            self._recolor_started = self.node.now
            self.session.probes = self._probes
        self.session.begin()

    def _recolor_finished(self, value: int) -> None:
        self.my_color = -value - 1  # Line 38: strictly negative
        self.needs_recolor = False
        if self._probes is not None and self.session is not None:
            started = self._recolor_started
            self._recolor_started = None
            self._probes.note_recolor_done(
                self.session.rounds_executed,
                self.node.now - (started if started is not None else self.node.now),
            )
        self.session = None
        self.node.broadcast(UpdateColor(self.my_color))
        self.node.mark("recolor")
        self.doorways.start_entry(FORK_ASYNC)

    def _participating(self) -> bool:
        return self.session is not None and self.session.active

    # ------------------------------------------------------------------
    # Messages
    # ------------------------------------------------------------------
    #: The dispatch table lookup is the upcall itself (one frame less
    #: per delivery); unknown kinds are ignored (forward compatibility).
    on_message = MessageDispatchMixin.dispatch_message

    @handles(DoorwayCross)
    def _on_doorway_cross(self, src: int, message: DoorwayCross) -> None:
        self.doorways.note_cross(src, message.doorway)

    @handles(DoorwayExit)
    def _on_doorway_exit(self, src: int, message: DoorwayExit) -> None:
        self.doorways.note_exit(src, message.doorway)

    @handles(ForkRequest)
    def _on_fork_request(self, src: int, message: ForkRequest) -> None:
        self.fork_proto.handle_request(src)

    @handles(ForkGrant)
    def _on_fork_grant(self, src: int, message: ForkGrant) -> None:
        self.fork_proto.handle_fork(src, message.flag)
        self._after_state_change()

    @handles(UpdateColor)
    def _on_update_color(self, src: int, message: UpdateColor) -> None:
        self.colors[src] = message.color
        self.fork_proto.recheck()

    @handles(Hello)
    def _on_hello(self, src: int, message: Hello) -> None:
        self.colors[src] = message.color
        self.doorways.on_hello(src, message.behind_doorways)
        self.pending_hellos.discard(src)
        self._maybe_start_pipeline()

    @handles(RecoloringRound)
    def _on_recoloring_round(self, src: int, message: RecoloringRound) -> None:
        # Registered on the marker base: catches GraphExchange, TempColor
        # and any future coloring-procedure round message.
        if self._participating() and src in self.session.peers:
            self.session.on_peer_message(src, message)
        else:
            # Lines 40-43: not participating -> NACK.
            iteration = getattr(message, "iteration", None)
            if iteration is None:
                iteration = getattr(message, "phase", None)
            if iteration is None:
                iteration = getattr(message, "round_index", 0)
            self.node.send(src, RecolorNack(iteration))

    @handles(RecolorNack)
    def _on_recolor_nack(self, src: int, message: RecolorNack) -> None:
        if self._participating():
            self.session.remove_peer(src)

    def _after_state_change(self) -> None:
        # A fork receipt may have completed collection for a node whose
        # remaining neighbors all departed; nothing extra needed today,
        # but the hook keeps handle-order explicit for subclasses.
        return

    # ------------------------------------------------------------------
    # Link dynamics (Algorithm 3)
    # ------------------------------------------------------------------
    def on_link_up(self, peer: int, moving: bool) -> None:
        self.colors[peer] = None
        if not moving:
            # Lines 44-46 (we play the static role).
            self.forks.link_created(peer, we_are_static=True)
            self.doorways.on_new_neighbor_while_static(peer)
            self.node.send(
                peer, Hello(self.my_color, self.doorways.behind_set())
            )
            return
        # Lines 47-55 (we are the mover).
        self.forks.link_created(peer, we_are_static=False)
        self.needs_recolor = True
        if self.doorways.is_behind(FORK_SYNC):
            if self.node.state is NodeState.EATING:
                self.node.demote_to_hungry()  # Line 50
            self.fork_proto.grant_suspended()  # Line 51
        if self.session is not None:
            self.session.abort()
            self.session = None
        self.doorways.exit_all()  # Line 52
        self.fork_proto.clear_requests()
        self.pending_hellos.add(peer)  # Line 53: wait for the Hello

    def on_link_down(self, peer: int) -> None:
        was_holding = self.forks.holds(peer)
        peer_color = self.colors.pop(peer, None)
        self.forks.link_destroyed(peer)
        self.fork_proto.forget_peer(peer)
        self.pending_hellos.discard(peer)
        if self.session is not None and self.session.active:
            self.session.remove_peer(peer)  # Line 61
        behind_sdf = self.doorways.is_behind(FORK_SYNC)
        self.doorways.on_link_down(peer)
        if behind_sdf:
            if (
                not was_holding
                and peer_color is not None
                and self.my_color is not None
                and peer_color < self.my_color
            ):
                self._take_return_path()  # Lines 59-60
            else:
                self.fork_proto.recheck()
        self._maybe_start_pipeline()

    def _take_return_path(self) -> None:
        """Exit SDf, release requested forks, re-enter (Figure 5's loop)."""
        self.return_paths_taken += 1
        self.fork_proto.grant_suspended()
        self.doorways.exit(FORK_SYNC)
        self.fork_proto.clear_requests()
        self.doorways.start_entry(FORK_SYNC)
