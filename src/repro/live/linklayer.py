"""Link layer over a live transport, mirroring the simulated one.

:class:`LiveLinkLayer` reproduces the exact externally observable
contract of :class:`repro.net.linklayer.LinkLayer` +
:class:`repro.net.channel.ChannelLayer`, so an algorithm cannot tell
which one it is wired to:

* ``send`` from a crashed node is silently absorbed; ``send`` over a
  non-existent link raises :class:`~repro.errors.TopologyError`;
* ``broadcast`` is unicasts in ascending neighbor-id order;
* a delivery whose link went down (or came back up — the incarnation
  changed) after the send is dropped;
* a delivery to a crashed node is absorbed and counted;
* link-up indications go to the static endpoint first, then the moving
  endpoint with ``moving=True``; link-down indications go to both
  endpoints in canonical link order; crashed endpoints get nothing.

Unlike the simulated stack there is no ``DynamicTopology`` underneath:
the adjacency is this instance's *membership view*, maintained by
whatever topology feed drives :meth:`apply_link_event`.  In bus mode
one instance carries the global view; in socket mode each process
holds its own single-node view and only its own links.
"""

from __future__ import annotations

from typing import AbstractSet, Any, Callable, Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.errors import TopologyError
from repro.net.topology import link_key


class LiveLinkLayer:
    """Membership view + delivery semantics for one live runtime."""

    def __init__(
        self,
        runtime,
        recorder,
        send_transport: Callable[[int, int, Any, str, int], None],
        adjacency: Dict[int, Set[int]],
        probes=None,
    ) -> None:
        self._runtime = runtime
        self._recorder = recorder
        #: ``(src, dst, message, mid, incarnation)`` — the transport owns
        #: queueing/framing; FIFO per directed link is its contract.
        self._send_transport = send_transport
        self._adjacency = {n: set(peers) for n, peers in adjacency.items()}
        self._handlers: Dict[int, Any] = {}
        self._crashed: Set[int] = set()
        self._incarnation: Dict[Tuple[int, int], int] = {}
        self._probes = probes
        #: Messages addressed to crashed nodes (absorbed silently).
        self.messages_to_crashed = 0
        #: Deliveries suppressed because the link churned mid-flight.
        self.dropped = 0

    # ------------------------------------------------------------------
    # Queries (the algorithm-facing surface)
    # ------------------------------------------------------------------
    def register(self, node_id: int, handler) -> None:
        self._handlers[node_id] = handler
        self._adjacency.setdefault(node_id, set())

    def neighbors(self, node_id: int) -> FrozenSet[int]:
        return frozenset(self._adjacency.get(node_id, ()))

    def neighbor_view(self, node_id: int) -> AbstractSet[int]:
        """``N`` as the live membership set — read only, one object
        for the node's lifetime (link events mutate it in place)."""
        return self._adjacency.setdefault(node_id, set())

    def sorted_neighbors(self, node_id: int) -> Tuple[int, ...]:
        return tuple(sorted(self._adjacency.get(node_id, ())))

    def is_crashed(self, node_id: int) -> bool:
        return node_id in self._crashed

    def live_nodes(self) -> Iterable[int]:
        return [n for n in sorted(self._handlers) if n not in self._crashed]

    def incarnation(self, a: int, b: int) -> int:
        return self._incarnation.get(link_key(a, b), 0)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, message) -> None:
        if src in self._crashed:
            return
        if dst not in self._adjacency.get(src, ()):
            raise TopologyError(f"no link {src} -> {dst}")
        mid = self._recorder.note_send(src, dst, message)
        self._send_transport(src, dst, message, mid, self.incarnation(src, dst))

    def broadcast(self, src: int, message) -> None:
        if src in self._crashed:
            return
        for dst in self.sorted_neighbors(src):
            self.send(src, dst, message)

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
            incarnation == self.incarnation(src, dst)
            and dst in self._adjacency.get(src, ())
        )
        if not live:
            self.dropped += 1
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

    def _deliver(self, src: int, dst: int, message) -> None:
        if dst in self._crashed:
            self.messages_to_crashed += 1
            return
        handler = self._handlers.get(dst)
        if handler is not None:
            handler.on_message(src, message)

    # ------------------------------------------------------------------
    # Topology feed
    # ------------------------------------------------------------------
    def apply_link_event(self, op: str, a: int, b: int, mover: int) -> None:
        """One link change, already inside a recorded execution.

        ``mover`` (for ``up``) is the endpoint whose movement created
        the link, or -1 when neither moved — it decides indication
        roles exactly like the simulated link layer's moving set does.
        """
        a, b = link_key(a, b)
        if op == "down":
            self._adjacency.get(a, set()).discard(b)
            self._adjacency.get(b, set()).discard(a)
            key = (a, b)
            self._incarnation[key] = self._incarnation.get(key, 0) + 1
            self._indicate_down(a, b)
            self._indicate_down(b, a)
        else:
            self._adjacency.setdefault(a, set()).add(b)
            self._adjacency.setdefault(b, set()).add(a)
            if mover == a:
                static_end, moving_end = b, a
            elif mover == b:
                static_end, moving_end = a, b
            else:
                static_end, moving_end = a, b  # canonical order, like sim
            self._indicate_up(static_end, moving_end, moving=False)
            self._indicate_up(moving_end, static_end, moving=True)

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

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def crash(self, node_id: int) -> None:
        self._crashed.add(node_id)


def _noop() -> None:
    return None


def adjacency_from_positions(positions, radio_range: float,
                             ) -> Dict[int, Set[int]]:
    """Initial unit-disk adjacency for a list of Points."""
    from repro.net.topology import DynamicTopology

    topology = DynamicTopology(radio_range=radio_range)
    topology.add_nodes(
        (node_id, point) for node_id, point in enumerate(positions)
    )
    return {
        node_id: set(topology.neighbors(node_id))
        for node_id in topology.nodes()
    }
