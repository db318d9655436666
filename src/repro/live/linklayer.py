"""The live channel: what the link layer needs of a real transport.

Both live runtimes drive the simulator's own
:class:`repro.net.linklayer.LinkLayer` over the scenario's
:class:`~repro.net.topology.DynamicTopology`, so the §3.1 contract
(neighbor sets, up/down indications with static/moving roles, crashed
nodes told nothing, ascending broadcast) is written once.
:class:`LiveLinkLayer` takes the place the simulated
:class:`~repro.net.channel.ChannelLayer` holds there, bound through
:meth:`~repro.net.linklayer.LinkLayer.bind_channel`, and keeps only
what is live:

* ``send`` records the message in the current row and hands it to the
  transport with the link's incarnation; a send over a non-existent
  link raises :class:`~repro.errors.TopologyError`;
* ``link_down`` bumps the incarnation, so a delivery whose link went
  down (or came back up) after the send is dropped;
* :meth:`LiveLinkLayer.dispatch`, called by the transport, runs that
  drop check and the delivery as one recorded ``drop`` / ``recv`` row.

In bus mode one instance serves every node; in socket mode each
process holds its own, over the full scenario topology, and only its
own node is registered with the link layer.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.errors import TopologyError
from repro.net.topology import DynamicTopology, link_key


class LiveLinkLayer:
    """The channel a :class:`~repro.net.linklayer.LinkLayer` drives
    over one live transport."""

    def __init__(
        self,
        runtime,
        recorder,
        send_transport: Callable[[int, int, Any, str, int], None],
        topology: DynamicTopology,
        deliver: Callable[[int, int, Any], None],
        probes=None,
    ) -> None:
        self._runtime = runtime
        self._recorder = recorder
        #: ``(src, dst, message, mid, incarnation)`` — the transport owns
        #: queueing/framing; FIFO per directed link is its contract.
        self._send_transport = send_transport
        self._has_link = topology.has_link
        #: The link layer's ``deliver``: it absorbs (and counts)
        #: messages to crashed nodes and calls every other handler.
        self._deliver = deliver
        self._incarnation: Dict[Tuple[int, int], int] = {}
        self._probes = probes

    def bind_handlers(self, handlers, crashed) -> None:
        """Part of the channel seam; every live delivery goes through
        ``deliver``, so the registry is not needed here."""

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, message) -> None:
        if not self._has_link(src, dst):
            raise TopologyError(
                f"send on non-existent link {src}->{dst} "
                f"(message {message.kind})"
            )
        mid = self._recorder.note_send(src, dst, message)
        self._send_transport(
            src, dst, message, mid,
            self._incarnation.get(link_key(src, dst), 0),
        )

    def broadcast(self, src: int, neighbors: Tuple[int, ...], message) -> None:
        """Unicasts over the link layer's presorted neighbor tuple."""
        for dst in neighbors:
            self.send(src, dst, message)

    def link_down(self, a: int, b: int) -> None:
        """Retire the link's incarnation: messages in flight on it drop."""
        link = link_key(a, b)
        self._incarnation[link] = self._incarnation.get(link, 0) + 1

    # ------------------------------------------------------------------
    # Delivery (called by the transport, on the loop)
    # ------------------------------------------------------------------
    def dispatch(
        self, src: int, dst: int, message, mid: str, incarnation: int
    ) -> None:
        """Deliver (or drop) one in-flight message as a recorded row.

        The drop check runs at dispatch time — the same instant the
        delivery would execute — so it sees exactly the link state the
        delivery would.
        """
        live = (
            incarnation == self._incarnation.get(link_key(src, dst), 0)
            and self._has_link(src, dst)
        )
        if not live:
            if self._probes is not None:
                self._probes.inc_event("drop")
            self._runtime.execute(
                "drop", {"src": src, "dst": dst, "m": mid}, _noop
            )
            return
        if self._probes is not None:
            self._probes.inc_event("recv")
        self._runtime.execute(
            "recv",
            {"src": src, "dst": dst, "m": mid, "kind": message.kind},
            self._deliver,
            src,
            dst,
            message,
        )


def _noop() -> None:
    return None
