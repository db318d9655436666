"""Crash injection.

The paper's failure model: a node fails by crashing silently — it stops
executing everything and never moves again.  Other nodes receive no
indication (there are no failure detectors in this model; compare the
discussion of Pike et al. in Chapter 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.net.linklayer import LinkLayer
from repro.runtime.node import NodeHarness


@dataclass(frozen=True)
class CrashEvent:
    """One scheduled crash."""

    time: float
    node_id: int


class CrashInjector:
    """Schedules silent crashes against the link layer and harnesses,
    as ``crash`` events through the scenario-event hook ``at`` (see
    :mod:`repro.runtime.app`); ``runtime`` supplies the clock."""

    def __init__(
        self,
        runtime,
        at: Callable[..., Any],
        linklayer: LinkLayer,
        harnesses: Dict[int, NodeHarness],
        metrics=None,
        mobility=None,
    ) -> None:
        self._runtime = runtime
        self._at = at
        self._linklayer = linklayer
        self._harnesses = harnesses
        self._metrics = metrics
        self._mobility = mobility
        self.crashes: List[CrashEvent] = []
        #: Hook handles, aligned with :attr:`crashes` (retimeable).
        self._events: List[Any] = []

    def schedule(self, time: float, node_id: int) -> None:
        """Crash ``node_id`` at the given virtual time."""
        event = CrashEvent(time, node_id)
        self.crashes.append(event)
        # The handle is kept: apply_control retimes a pending crash by
        # cancelling it and scheduling a new one.
        self._events.append(self._at(time, "crash", self._crash, node_id))

    def schedule_all(self, plan: List[Tuple[float, int]]) -> None:
        """Schedule a whole crash plan of (time, node_id) pairs."""
        for time, node_id in plan:
            self.schedule(time, node_id)

    def apply_control(self, controller) -> None:
        """Re-time every pending crash through a choice controller.

        ``controller.crash_time(node_id, base)`` returns the new crash
        time for a crash planned at ``base`` (the exploration
        subsystem's crash-timing choice point).  Already-fired crashes
        are left alone; pending ones are cancelled and rescheduled, and
        :attr:`crashes` is updated so locality reports and run
        summaries see the times that actually apply.  Returned times
        are clamped to "not before now" — a controller cannot schedule
        into the past.
        """
        now = self._runtime.now
        for index, handle in enumerate(self._events):
            if not handle.pending:
                continue
            planned = self.crashes[index]
            retimed = max(now, float(
                controller.crash_time(planned.node_id, planned.time)
            ))
            if retimed == planned.time:
                continue
            handle.cancel()
            self.crashes[index] = CrashEvent(retimed, planned.node_id)
            self._events[index] = self._at(
                retimed, "crash", self._crash, planned.node_id
            )

    def _crash(self, node_id: int) -> None:
        self._linklayer.crash(node_id)
        self._harnesses[node_id].crash()
        if self._mobility is not None:
            # Pin a mid-flight node at its exact crash position (the
            # crashed node itself is already silenced above, so only its
            # neighbors observe any resulting link changes).
            self._mobility.note_crash(node_id)
        if self._metrics is not None:
            self._metrics.note_crash(node_id, self._runtime.now)
