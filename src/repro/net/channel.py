"""Reliable FIFO bounded-delay message channels.

One :class:`ChannelLayer` serves the whole network.  Each *directed*
link (src, dst) is a FIFO queue: deliveries on a link are clamped to be
strictly increasing in time even when a later message draws a smaller
random delay.  Delays are bounded by ``nu`` per the paper's model.

Reliability caveat that the paper shares: a link only carries messages
while it exists.  If the link goes down (an endpoint moved) while a
message is in flight, the message is dropped — the algorithms must (and
do) tolerate this, because the paper destroys per-link state (forks, L[]
entries) on link failure.  Messages to crashed nodes are delivered into
the void (the crashed node ignores everything), matching silent crashes.

Scheduling
----------

Every accepted message is one engine event: ``send`` draws the delay,
applies the FIFO clamp and schedules :meth:`ChannelLayer._arrive` at the
arrival time; the event carries the link incarnation it was sent under,
and ``_arrive`` drops it if the link has died (or died and re-formed)
in the meantime.  ``link_down`` therefore only bumps the incarnation —
messages in flight are counted as dropped when their event fires.
"""

from __future__ import annotations

from typing import AbstractSet, Any, Callable, Dict, Optional, Tuple

from repro.errors import TopologyError
from repro.net.messages import Message
from repro.net.topology import DynamicTopology, link_key
from repro.sim.clock import TIME_EPSILON, TimeBounds
from repro.sim.engine import Simulator

DeliverFn = Callable[[int, int, Message], None]


class ChannelStats:
    """Message accounting: totals plus per-kind breakdowns.

    ``sent``, ``delivered`` and ``dropped_link_down`` count every
    message the channel accepted, handed to the deliver callback, or
    discarded because its link died first; each total has a matching
    ``*_by_kind`` dict keyed on :attr:`Message.kind`.  ``snapshot()``
    returns the full counter set as one plain dict.
    """

    __slots__ = (
        "sent",
        "delivered",
        "dropped_link_down",
        "sent_by_kind",
        "delivered_by_kind",
        "dropped_by_kind",
    )

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.dropped_link_down = 0
        self.sent_by_kind: Dict[str, int] = {}
        self.delivered_by_kind: Dict[str, int] = {}
        self.dropped_by_kind: Dict[str, int] = {}

    def snapshot(self) -> Dict[str, object]:
        """All counters — totals and per-kind dicts — as one copy."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped_link_down": self.dropped_link_down,
            "sent_by_kind": dict(self.sent_by_kind),
            "delivered_by_kind": dict(self.delivered_by_kind),
            "dropped_by_kind": dict(self.dropped_by_kind),
        }


class ChannelLayer:
    """All directed FIFO channels of the network."""

    def __init__(
        self,
        sim: Simulator,
        topology: DynamicTopology,
        bounds: TimeBounds,
        rng,
        deliver: DeliverFn,
    ) -> None:
        """
        Args:
            sim: the shared event engine.
            topology: consulted at send and delivery time for link existence.
            bounds: supplies the message-delay distribution.
            rng: a ``random.Random`` used for delay jitter.
            deliver: callback invoked as ``deliver(src, dst, message)``
                when a message arrives at a live link endpoint.
        """
        self._sim = sim
        self._deliver = deliver
        # send() runs once per message hop, so its collaborators are
        # pre-resolved: bound methods and the delay distribution's
        # parameters (the inline draw below reproduces ``rng.uniform``
        # bit for bit: ``a + (b - a) * random()``).
        self._has_link = topology.has_link
        self._rng_random = rng.random
        if bounds.min_delay_fraction >= 1.0:
            self._delay_floor: Optional[float] = None
        else:
            self._delay_floor = bounds.min_message_delay
        self._delay_span = bounds.nu - bounds.min_message_delay
        self._nu = bounds.nu
        self._last_arrival: Dict[Tuple[int, int], float] = {}
        # A link that breaks and re-forms is a *new* link in the paper's
        # model (fresh fork, fresh doorway state).  Incarnation counters
        # keep messages from a dead incarnation out of the new one.
        self._incarnation: Dict[Tuple[int, int], int] = {}
        #: Optional delay override hook (set post-construction by the
        #: exploration subsystem): ``delay_source(src, dst, message)``
        #: returns the per-hop delay, replacing the rng draw.  The
        #: FIFO clamp still applies, so controlled delays keep per-link
        #: delivery order well-defined.  ``None`` (the default) costs
        #: one attribute test per send.
        self.delay_source: Optional[Callable[[int, int, Message], float]] = None
        # Direct delivery (see bind_handlers); ``None`` routes every
        # arrival through ``deliver``.
        self._handlers: Optional[Dict[int, Any]] = None
        self._crashed: AbstractSet[int] = frozenset()
        self.stats = ChannelStats()

    def bind_handlers(
        self, handlers: Dict[int, Any], crashed: AbstractSet[int]
    ) -> None:
        """Deliver straight to ``handlers[dst].on_message``.

        The link layer passes its live handler registry and crashed set
        (both mutated in place, never replaced).  An arrival at a
        crashed node still goes through ``deliver``, which absorbs and
        counts it; every other arrival skips that frame.
        """
        self._handlers = handlers
        self._crashed = crashed

    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, message: Message) -> None:
        """Send one message over the (src, dst) link.

        Raises:
            TopologyError: if src and dst are not currently neighbors.
                Protocol code only ever talks to its neighbor set, so a
                non-neighbor send is a protocol bug worth failing fast on.
        """
        if not self._has_link(src, dst):
            raise TopologyError(
                f"send on non-existent link {src}->{dst} "
                f"(message {message.kind})"
            )
        sim = self._sim
        now = sim._now
        delay_source = self.delay_source
        floor_delay = self._delay_floor
        if delay_source is not None:
            delay = delay_source(src, dst, message)
        elif floor_delay is None:
            delay = self._nu
        else:
            delay = floor_delay + self._delay_span * self._rng_random()
        arrival = now + delay
        key = (src, dst)
        last = self._last_arrival
        floor = last.get(key)
        if floor is not None and arrival <= floor:
            arrival = floor + TIME_EPSILON
        last[key] = arrival
        stats = self.stats
        stats.sent += 1
        kind = message.kind
        sent_by_kind = stats.sent_by_kind
        sent_by_kind[kind] = sent_by_kind.get(kind, 0) + 1
        sim.schedule_at(
            arrival, self._arrive, src, dst, message,
            self._incarnation.get(key if src < dst else (dst, src), 0),
        )

    def broadcast(self, src: int, neighbors, message: Message) -> None:
        """Send the same message to every node in ``neighbors``.

        The paper's "broadcast" is a local broadcast to the current
        neighbor set; we model it as unicasts (each with its own delay),
        which is the standard conservative interpretation for an
        asynchronous MANET and only weakens timing, never FIFO-ness.

        Fan-out order is ascending node id.  Callers on the hot path
        (the link layer) pass the topology's presorted neighbor tuple;
        any other iterable is sorted here.
        """
        if type(neighbors) is not tuple:
            neighbors = sorted(neighbors)
        send = self.send
        for dst in neighbors:
            send(src, dst, message)

    # ------------------------------------------------------------------
    def link_down(self, a: int, b: int) -> None:
        """Forget FIFO state for a destroyed link (both directions).

        Bumping the incarnation is what drops the messages in flight:
        their events still fire and :meth:`_arrive` discards (and
        counts) them then.
        """
        self._last_arrival.pop((a, b), None)
        self._last_arrival.pop((b, a), None)
        link = link_key(a, b)
        self._incarnation[link] = self._incarnation.get(link, 0) + 1

    # ------------------------------------------------------------------
    def _arrive(self, src: int, dst: int, message: Message, incarnation: int) -> None:
        """Delivery event of one message sent under ``incarnation``.

        Link existence is checked here, at delivery time: the link may
        have died — or died and re-formed, hence the incarnation — while
        the message was in flight.
        """
        stats = self.stats
        kind = message.kind
        link = (src, dst) if src < dst else (dst, src)
        stale = incarnation != self._incarnation.get(link, 0)
        if stale or not self._has_link(src, dst):
            stats.dropped_link_down += 1
            by_kind = stats.dropped_by_kind
            by_kind[kind] = by_kind.get(kind, 0) + 1
            return
        stats.delivered += 1
        by_kind = stats.delivered_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        handlers = self._handlers
        if handlers is None or dst in self._crashed:
            self._deliver(src, dst, message)
            return
        handler = handlers.get(dst)
        if handler is not None:
            handler.on_message(src, message)
