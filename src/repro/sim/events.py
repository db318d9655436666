"""Scheduled events and their ordering.

Events at the same virtual time are ordered by an explicit priority class
and then by insertion order.  Priority classes let the harness guarantee,
for example, that the safety monitor observes the state *after* all
protocol handlers scheduled for that instant have run.

:class:`ScheduledEvent` is the single hottest allocation in the library
(one per message hop, timer and link crossing), so it is slotted and
carries a precomputed ``(time, priority, seq)`` key — ordering
comparisons reduce to one C-level tuple compare (or one key-attribute
fetch in the ladder queue's bucket sorts) instead of attribute lookups
and enum coercion per ``__lt__`` call.

Handles
-------

Every schedule call allocates one fresh :class:`ScheduledEvent` and
nothing ever reuses it, so a handle may be kept for as long as its
holder likes: ``cancel()`` after the event has fired (or was already
cancelled) is a harmless no-op and ``pending`` stays ``False``.
Cancellation is lazy: ``cancel()`` flips a flag and tells the owning
:class:`~repro.sim.engine.Simulator` (:attr:`ScheduledEvent.engine`;
``None`` for a bare shell in a test), whose queue counts the dead
entries and sweeps them once they outnumber the live ones.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class EventPriority(enum.IntEnum):
    """Tie-breaking classes for events sharing a timestamp.

    Lower values run first.
    """

    #: Topology changes (LinkUp/LinkDown indications, mobility events).
    TOPOLOGY = 0
    #: Ordinary protocol events: message deliveries, timers, app events.
    NORMAL = 10
    #: Observers that must see the post-state of an instant (monitors).
    MONITOR = 20


class ScheduledEvent:
    """A cancellable handle to one scheduled callback.

    Instances are created by :meth:`repro.sim.engine.Simulator.schedule`;
    user code only ever cancels them or inspects :attr:`time`.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled",
                 "engine", "_key")

    def __init__(
        self,
        time: float,
        priority: EventPriority,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        engine: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Owning simulator, notified on cancel so it can keep a live
        #: count of dead pending entries (see Simulator.pending_events).
        self.engine = engine
        self._key = (time, int(priority), seq)

    def cancel(self) -> None:
        """Prevent the callback from running.

        Cancelling an already-fired or already-cancelled event is a
        harmless no-op, which keeps timer-management code simple.
        """
        if self.cancelled:
            return
        self.cancelled = True
        engine = self.engine
        if engine is not None:
            engine._note_cancelled()

    @property
    def pending(self) -> bool:
        """True until the event fires or is cancelled."""
        return not self.cancelled

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return self._key < other._key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent t={self.time:.6f} {name} {state}>"
