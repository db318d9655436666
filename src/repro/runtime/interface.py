"""The runtime boundary: what node-level code may assume about time.

:class:`~repro.runtime.node.NodeHarness`, :class:`~repro.sim.timers.Timer`
and every algorithm built on them historically took the discrete-event
:class:`~repro.sim.engine.Simulator` directly, but the only things they
ever ask of it are a clock and a cancellable deadline.  This module
names that contract so the same node code runs against the simulator
*or* a wall-clock runtime (:mod:`repro.live`) without modification:

* :class:`TimerHandle` — the cancel/pending/time surface of
  :class:`~repro.sim.events.ScheduledEvent`;
* :class:`Runtime` — ``now`` plus ``schedule``.

Both protocols are structural (``runtime_checkable``): the simulator
already satisfies them as-is, and test fakes keep working unchanged.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from repro.sim.events import EventPriority


@runtime_checkable
class TimerHandle(Protocol):
    """Handle returned by :meth:`Runtime.schedule`."""

    @property
    def pending(self) -> bool:
        """True while the deadline is armed and has not fired."""
        ...

    @property
    def time(self) -> float:
        """Absolute (virtual) fire time the deadline was armed for."""
        ...

    def cancel(self) -> None:
        """Disarm; a cancelled deadline never fires."""
        ...


@runtime_checkable
class Runtime(Protocol):
    """The clock-and-deadlines surface node-level code schedules against.

    The simulator implements this with virtual time and a pending-event
    queue; :class:`repro.live.runtime.WallClockRuntime` implements it
    with wall-clock timers on an asyncio loop.  ``priority`` exists for
    the simulator's deterministic tie-breaking; live runtimes accept and
    ignore it (wall-clock instants never tie).
    """

    @property
    def now(self) -> float:
        """Current (virtual) time."""
        ...

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: EventPriority = EventPriority.NORMAL,
    ) -> TimerHandle:
        """Run ``callback(*args)`` once, ``delay`` from now, unless the
        returned handle is cancelled first."""
        ...
