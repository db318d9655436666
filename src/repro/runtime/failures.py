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
    :mod:`repro.runtime.app`).  The harness reports its own crash to
    the run's effect sink, which is how the metrics collector learns
    of it."""

    def __init__(
        self,
        at: Callable[..., Any],
        linklayer: LinkLayer,
        harnesses: Dict[int, NodeHarness],
        mobility=None,
    ) -> None:
        self._at = at
        self._linklayer = linklayer
        self._harnesses = harnesses
        self._mobility = mobility
        self.crashes: List[CrashEvent] = []

    def schedule(self, time: float, node_id: int) -> None:
        """Crash ``node_id`` at the given virtual time."""
        self.crashes.append(CrashEvent(time, node_id))
        self._at(time, "crash", self._crash, node_id)

    def schedule_all(self, plan: List[Tuple[float, int]]) -> None:
        """Schedule a whole crash plan of (time, node_id) pairs."""
        for time, node_id in plan:
            self.schedule(time, node_id)

    def _crash(self, node_id: int) -> None:
        self._linklayer.crash(node_id)
        self._harnesses[node_id].crash()
        if self._mobility is not None:
            # Pin a mid-flight node at its exact crash position (the
            # crashed node itself is already silenced above, so only its
            # neighbors observe any resulting link changes).
            self._mobility.note_crash(node_id)
