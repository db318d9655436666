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

Every accepted message is one engine event, which ``send`` pushes onto
the engine's queue itself.  A directed link has one *pipe*, the record
``[last_arrival, live]``, made on its first send (the one send that
asks the topology) and handed to each arrival event.  ``link_down``
retires both directions' pipes (``live`` cleared, table entry gone):
messages in flight are counted as dropped when their event fires, and
a re-formed link's first send makes a fresh pipe.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError, TopologyError
from repro.net.messages import Message
from repro.net.topology import DynamicTopology
from repro.sim.clock import TIME_EPSILON, TimeBounds
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority, ScheduledEvent

DeliverFn = Callable[[int, int, Message], None]

#: Resolved once: an enum member lookup costs as much as a dict probe.
_NORMAL = EventPriority.NORMAL


class ChannelStats:
    """Message accounting per kind, and the totals they sum to.

    ``sent_by_kind``, ``delivered_by_kind`` and ``dropped_by_kind``
    count, keyed on :attr:`Message.kind`, every message the channel
    accepted, handed to its receiver, or discarded because its link
    died first; ``sent``, ``delivered`` and ``dropped_link_down`` are
    their sums, so a message pays for one counter, not two.
    ``snapshot()`` returns the full counter set as one plain dict.
    """

    __slots__ = ("sent_by_kind", "delivered_by_kind", "dropped_by_kind")

    def __init__(self) -> None:
        self.sent_by_kind: Dict[str, int] = {}
        self.delivered_by_kind: Dict[str, int] = {}
        self.dropped_by_kind: Dict[str, int] = {}

    @property
    def sent(self) -> int:
        return sum(self.sent_by_kind.values())

    @property
    def delivered(self) -> int:
        return sum(self.delivered_by_kind.values())

    @property
    def dropped_link_down(self) -> int:
        return sum(self.dropped_by_kind.values())

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
            topology: consulted on a link's first send for its existence.
            bounds: supplies the message-delay distribution.
            rng: a ``random.Random`` used for delay jitter.
            deliver: callback invoked as ``deliver(src, dst, message)``
                when a message arrives at a live link endpoint.
        """
        self._sim = sim
        self._deliver = deliver
        # send() runs once per message hop, so its collaborators are
        # pre-resolved: the engine's ticket counter and queue push, bound
        # methods and the delay distribution's parameters (the inline
        # draw reproduces ``rng.uniform``: ``a + (b - a) * random()``).
        self._seq = sim._seq
        self._push = sim._queue.push
        self._has_link = topology.has_link
        self._rng_random = rng.random
        if bounds.min_delay_fraction >= 1.0:
            self._delay_floor: Optional[float] = None
        else:
            self._delay_floor = bounds.min_message_delay
        self._delay_span = bounds.nu - bounds.min_message_delay
        self._nu = bounds.nu
        # (src, dst) -> pipe.  A link that breaks and re-forms is a *new*
        # link in the paper's model, so it never sees the old pipe.
        self._pipes: Dict[Tuple[int, int], List[Any]] = {}
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
        key = (src, dst)
        pipe = self._pipes.get(key)
        if pipe is None:
            if not self._has_link(src, dst):
                raise TopologyError(
                    f"send on non-existent link {src}->{dst} "
                    f"(message {message.kind})"
                )
            pipe = self._pipes[key] = [-math.inf, True]
        sim = self._sim
        now = sim._now
        delay_source = self.delay_source
        floor_delay = self._delay_floor
        if delay_source is not None:
            delay = delay_source(src, dst, message)
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule into the past: delay={delay}"
                )
            arrival = now + delay
        elif floor_delay is None:
            arrival = now + self._nu
        else:
            arrival = now + (floor_delay + self._delay_span * self._rng_random())
        if arrival <= pipe[0]:
            arrival = pipe[0] + TIME_EPSILON
        pipe[0] = arrival
        kind = message.kind
        by_kind = self.stats.sent_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        self._push(ScheduledEvent(
            arrival, _NORMAL, next(self._seq), self._arrive,
            (src, dst, message, pipe), sim,
        ))

    def broadcast(self, src: int, neighbors, message: Message) -> None:
        """Send the same message to every node in ``neighbors``.

        The paper's "broadcast" is a local broadcast to the current
        neighbor set; we model it as unicasts (each with its own delay),
        which is the standard conservative interpretation for an
        asynchronous MANET and only weakens timing, never FIFO-ness.

        Fan-out order is ascending node id.  Callers on the hot path
        (the node harness) pass the topology's presorted neighbor tuple;
        any other iterable is sorted here.
        """
        if type(neighbors) is not tuple:
            neighbors = sorted(neighbors)
        send = self.send
        for dst in neighbors:
            send(src, dst, message)

    # ------------------------------------------------------------------
    def link_down(self, a: int, b: int) -> None:
        """Retire both directions' pipes of a destroyed link.

        Clearing ``live`` is what drops the messages in flight: their
        events still fire and :meth:`_arrive` discards (and counts)
        them then.
        """
        pipes = self._pipes
        for key in ((a, b), (b, a)):
            pipe = pipes.pop(key, None)
            if pipe is not None:
                pipe[1] = False

    # ------------------------------------------------------------------
    def _arrive(self, src: int, dst: int, message: Message, pipe) -> None:
        """Delivery event of one message sent through ``pipe``.

        The pipe was retired if its link died — or died and re-formed —
        while the message was in flight.
        """
        kind = message.kind
        if not pipe[1]:
            by_kind = self.stats.dropped_by_kind
            by_kind[kind] = by_kind.get(kind, 0) + 1
            return
        by_kind = self.stats.delivered_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        handlers = self._handlers
        if handlers is None or dst in self._crashed:
            self._deliver(src, dst, message)
            return
        handler = handlers.get(dst)
        if handler is not None:
            handler.on_message(src, message)
