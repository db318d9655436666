"""Periodic starvation watchdog.

Starvation in this model is silent: a node waiting on a crashed fork
holder simply never eats, and nothing in the protocol reports it.  The
watchdog makes it loud — a periodic MONITOR-priority event samples
:meth:`~repro.metrics.collector.MetricsCollector.starving` and emits
one structured warning per (node, hungry-interval) that exceeds the
threshold, both as a :class:`StarvationWarning` record (collected on
the watchdog and surfaced in the :class:`~repro.obs.report.RunReport`)
and through the ``repro.obs.watchdog`` logger.

Determinism: the watchdog schedules ordinary engine events, so it
shifts sequence tickets uniformly but never reorders protocol events
relative to each other — a fixed-seed run with the watchdog on yields
the same protocol behavior (and the same warnings) every time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.metrics.collector import MetricsCollector
from repro.obs.registry import MetricRegistry, live_registry
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority

logger = logging.getLogger("repro.obs.watchdog")

#: Sampling period in virtual time; the first check runs one period in.
PERIOD = 5.0


@dataclass(frozen=True)
class StarvationWarning:
    """One node observed hungry past the starvation threshold."""

    time: float
    node: int
    hungry_since: float
    threshold: float

    @property
    def duration(self) -> float:
        return self.time - self.hungry_since

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "starvation",
            "time": self.time,
            "node": self.node,
            "hungry_since": self.hungry_since,
            "duration": self.duration,
            "threshold": self.threshold,
        }


class StarvationWatchdog:
    """Fires a structured warning once per starving hungry interval.

    Args:
        sim: the shared engine (the watchdog schedules itself on it).
        metrics: the run's collector; crashed nodes never appear
            because the harness's ``crashed`` effect reaches
            :meth:`MetricsCollector.note_fx`, which clears them.
        threshold: hungry duration (virtual time) that counts as
            starving.
        registry: optional metric registry — a live one gains a
            ``watchdog.warnings`` counter.
    """

    def __init__(
        self,
        sim: Simulator,
        metrics: MetricsCollector,
        threshold: float,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        if threshold <= 0:
            raise ValueError(f"starvation threshold must be > 0: {threshold}")
        self._sim = sim
        self._metrics = metrics
        self.threshold = threshold
        self.warnings: List[StarvationWarning] = []
        live = live_registry(registry)
        self._counter = (
            live.counter("watchdog.warnings", "starvation warnings emitted")
            if live is not None
            else None
        )
        #: (node, hungry_since) pairs already warned about.
        self._warned: Set[Tuple[int, float]] = set()
        self._event = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first check (idempotent)."""
        if self._event is None or self._event.cancelled:
            self._event = self._sim.schedule(
                PERIOD, self._tick, priority=EventPriority.MONITOR
            )

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._check(self._sim.now)
        self._event = self._sim.schedule(
            PERIOD, self._tick, priority=EventPriority.MONITOR
        )

    def _check(self, now: float) -> List[StarvationWarning]:
        hungry = self._metrics.hungry_nodes()
        fresh: List[StarvationWarning] = []
        for node in self._metrics.starving(now, self.threshold):
            since = hungry[node]
            key = (node, since)
            if key in self._warned:
                continue
            self._warned.add(key)
            warning = StarvationWarning(
                time=now, node=node, hungry_since=since,
                threshold=self.threshold,
            )
            fresh.append(warning)
            self.warnings.append(warning)
            if self._counter is not None:
                self._counter.inc()
            logger.warning(
                "starvation: node %d hungry for %.3f tu (since t=%.3f, "
                "threshold %.3f)",
                warning.node, warning.duration, warning.hungry_since,
                warning.threshold,
            )
        # Forget warned intervals that ended so the set stays bounded.
        self._warned = {
            (node, since)
            for node, since in self._warned
            if hungry.get(node) == since
        }
        return fresh

    def warning_dicts(self) -> List[Dict[str, Any]]:
        """All warnings as JSON-ready dicts (for the run report)."""
        return [w.to_dict() for w in self.warnings]
