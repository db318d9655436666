"""Restartable one-shot timers on top of any runtime."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.events import EventPriority

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.interface import Runtime, TimerHandle


class Timer:
    """A one-shot timer that can be (re)started and cancelled freely.

    Protocol code frequently needs "fire X after d unless something else
    happens first"; wrapping the schedule/cancel pair avoids dangling
    event handles scattered through algorithm state.

    ``sim`` is anything satisfying the
    :class:`~repro.runtime.interface.Runtime` protocol — the
    discrete-event simulator in tests and experiments, a wall-clock
    runtime in :mod:`repro.live` deployments.
    """

    def __init__(
        self,
        sim: "Runtime",
        callback: Callable[..., None],
        *args: Any,
        priority: EventPriority = EventPriority.NORMAL,
    ) -> None:
        self._sim = sim
        self._callback = callback
        self._args = args
        self._priority = priority
        self._event: Optional["TimerHandle"] = None

    @property
    def pending(self) -> bool:
        """True if the timer is armed and has not yet fired."""
        return self._event is not None and self._event.pending

    def start(self, delay: float) -> None:
        """Arm the timer; restarts (and supersedes) any pending deadline."""
        self.cancel()
        self._event = self._sim.schedule(
            delay, self._fire, priority=self._priority
        )

    def cancel(self) -> None:
        """Disarm the timer if armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback(*self._args)
