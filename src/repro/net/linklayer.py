"""The link-level protocol of Section 3.1.

Responsibilities, exactly as the paper assumes of its "lower level":

* keep every node's neighbor set current (the nodes' ``N`` variable);
* deliver LinkUp / LinkDown indications when links form and fail;
* break symmetry at link formation: the indication tells each endpoint
  whether it is the *moving* or the *static* party.  If both endpoints
  are moving, exactly one (the lower ID) receives the static-style
  indication, matching the paper's "e.g., according to their ID's";
* never deliver anything to a crashed node (silent crash model).

Messages do not pass through it: a node harness sends on the bound
channel (:attr:`LinkLayer.channel`) itself, refusing to while its node
is crashed, and the simulated channel calls the registered handlers
directly.  :meth:`LinkLayer.deliver` is the channel's delivery callback
for the rest: arrivals at crashed nodes, and every live delivery.

One contract serves both runtimes.  The simulator binds a
:class:`~repro.net.channel.ChannelLayer` on its event engine; the live
runtimes bind :class:`~repro.live.linklayer.LiveLinkLayer`, which hands
messages to a real transport; the link layer itself keeps no clock.
Link changes that arrive as events rather than from geometry (a live
topology feed, a live peer loss, the replay of a recorded
``link_script``) all go through :meth:`LinkLayer.apply_link_event`.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, Set

from repro.net.channel import ChannelLayer
from repro.net.messages import Message
from repro.net.topology import DynamicTopology, LinkDiff


class NodeHandler(Protocol):
    """What the link layer requires of a registered node."""

    def on_message(self, src: int, message: Message) -> None: ...

    def on_link_up(self, peer: int, moving: bool) -> None: ...

    def on_link_down(self, peer: int) -> None: ...


class LinkLayer:
    """Neighbor tracking, link indications and message dispatch."""

    def __init__(self, topology: DynamicTopology) -> None:
        #: The network; node harnesses read their neighbor sets from it.
        self.topology = topology
        self._handlers: Dict[int, NodeHandler] = {}
        self._moving: Set[int] = set()
        self._crashed: Set[int] = set()
        #: The bound channel (see :meth:`bind_channel`); node harnesses
        #: send on it directly.
        self.channel: Optional[ChannelLayer] = None
        #: Observers called as ``fn(kind, a, b)`` after each link event's
        #: indications have been delivered ("up" / "down"); used by the
        #: safety monitor to validate the post-event state.
        self.observers = []
        #: Messages addressed to crashed nodes (absorbed silently).
        self.messages_to_crashed = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_channel(self, channel: ChannelLayer) -> None:
        """Attach the channel layer (whose deliver callback is us).

        ``channel`` is a :class:`~repro.net.channel.ChannelLayer` or a
        :class:`~repro.live.linklayer.LiveLinkLayer`: both offer
        ``bind_handlers``, ``send``, ``broadcast`` and ``link_down``.
        The simulated channel calls registered handlers directly;
        :meth:`deliver` stays the path for messages to crashed nodes.
        Bind before building the node harnesses, which pick the
        channel up at construction.
        """
        self.channel = channel
        channel.bind_handlers(self._handlers, self._crashed)

    def register(self, node_id: int, handler: NodeHandler) -> None:
        """Register the protocol handler for a node."""
        self._handlers[node_id] = handler

    # ------------------------------------------------------------------
    # Role and failure state
    # ------------------------------------------------------------------
    def is_moving(self, node_id: int) -> bool:
        """True while the node is inside a movement episode."""
        return node_id in self._moving

    def is_crashed(self, node_id: int) -> bool:
        """True once the node has crashed."""
        return node_id in self._crashed

    # ------------------------------------------------------------------
    # Mobility and failure hooks (driven by the runtime)
    # ------------------------------------------------------------------
    def set_moving(self, node_id: int, moving: bool) -> None:
        """Mark a node as moving / static (the Wu-Li start/stop signal)."""
        if moving:
            self._moving.add(node_id)
        else:
            self._moving.discard(node_id)

    def crash(self, node_id: int) -> None:
        """Silently crash a node: it stops reacting and never moves again."""
        self._crashed.add(node_id)
        self._moving.discard(node_id)

    def apply_link_event(self, op: str, a: int, b: int, mover: int) -> None:
        """Force one link ``"up"`` or ``"down"`` and deliver its indications.

        ``mover`` (when >= 0) is marked moving for the duration of the
        event, so the static/moving roles come out as the recorded
        execution saw them; role state is restored afterwards.  A link
        already in the requested state changes nothing: no indication,
        no channel state retired.
        """
        restore = mover >= 0 and not self.is_moving(mover)
        if restore:
            self.set_moving(mover, True)
        try:
            diff = self.topology.force_link(a, b, op == "up")
            if not diff.empty:
                self.apply_diff(diff)
        finally:
            if restore:
                self.set_moving(mover, False)

    def apply_diff(self, diff: LinkDiff) -> None:
        """Turn one topology diff into LinkUp/LinkDown indications.

        LinkDowns are delivered before LinkUps so that a node that moved
        in one step sees its old neighborhood disappear before the new
        one appears, matching the paper's per-link treatment.
        """
        for a, b in diff.removed:
            if self.channel is not None:
                self.channel.link_down(a, b)
            self._indicate_down(a, b)
            self._indicate_down(b, a)
            for observer in self.observers:
                observer("down", a, b)
        for a, b in diff.added:
            static_end, moving_end = self._assign_roles(a, b)
            # Static endpoint first: it immediately sends its state to
            # the moving endpoint, which is already waiting for it.
            self._indicate_up(static_end, moving_end, moving=False)
            self._indicate_up(moving_end, static_end, moving=True)
            for observer in self.observers:
                observer("up", a, b)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def deliver(self, src: int, dst: int, message: Message) -> None:
        """Channel-layer delivery callback (crashed destinations, and
        every delivery of the live channel)."""
        if dst in self._crashed:
            self.messages_to_crashed += 1
            return
        handler = self._handlers.get(dst)
        if handler is not None:
            handler.on_message(src, message)

    # ------------------------------------------------------------------
    def _assign_roles(self, a: int, b: int):
        """(static_endpoint, moving_endpoint) for a freshly created link.

        The paper assumes links never form between two static nodes; if
        a scripted scenario violates that (e.g. by teleporting a third
        party), we still break symmetry deterministically by ID.
        """
        a_moving = a in self._moving
        b_moving = b in self._moving
        if a_moving and not b_moving:
            return b, a
        if b_moving and not a_moving:
            return a, b
        # Both moving (or, degenerately, neither): lower ID plays static.
        return (a, b) if a < b else (b, a)

    def _indicate_up(self, node_id: int, peer: int, moving: bool) -> None:
        if node_id in self._crashed:
            return
        handler = self._handlers.get(node_id)
        if handler is not None:
            handler.on_link_up(peer, moving)

    def _indicate_down(self, node_id: int, peer: int) -> None:
        if node_id in self._crashed:
            return
        handler = self._handlers.get(node_id)
        if handler is not None:
            handler.on_link_down(peer)
