"""Wall-clock profiling of the event engine.

Answers "where does the wall-clock of a run actually go?" without
touching the protocol code: the engine, when a profiler is attached,
times each executed callback and reports totals *per callback
category* (the callback's qualified name — ``ChannelLayer._arrive``,
``Timer._fire``, ``MobilityController._step``, ...).  A periodic
events/sec sample series shows how throughput evolves over a run
(useful for spotting heap growth or degrading hot paths in long
sweeps).

Everything here is wall-clock and therefore *not* part of the
deterministic :class:`~repro.obs.report.RunReport` contract: the
report carries the profile only when profiling was explicitly enabled,
and fixed-seed bit-identity is asserted on unprofiled runs.

The engine's uninstrumented cost is one ``is None`` test per executed
event (the handle is hoisted before the hot loop); the perf-smoke
benchmark guards that this stays in the noise.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List


class EngineProfiler:
    """Per-category wall-time accounting plus events/sec sampling.

    Args:
        sample_every: record one throughput sample per this many
            executed events (0 disables sampling).
    """

    __slots__ = (
        "sample_every",
        "categories",
        "samples",
        "_events",
        "_started_wall",
        "_last_sample_wall",
        "_last_sample_events",
    )

    def __init__(self, sample_every: int = 50_000) -> None:
        self.sample_every = sample_every
        #: category -> [executed events, total wall seconds]
        self.categories: Dict[str, List[float]] = {}
        #: throughput samples: dicts with virtual time, executed events
        #: and instantaneous events/sec since the previous sample.
        self.samples: List[Dict[str, float]] = []
        self._events = 0
        self._started_wall = perf_counter()
        self._last_sample_wall = self._started_wall
        self._last_sample_events = 0

    # ------------------------------------------------------------------
    # Engine-facing API (hot when attached)
    # ------------------------------------------------------------------
    def note(self, callback: Callable[..., Any], seconds: float, now: float) -> None:
        """Record one executed event (called by ``Simulator.run``)."""
        category = getattr(callback, "__qualname__", None)
        if category is None:  # pragma: no cover - exotic callables
            category = repr(callback)
        cell = self.categories.get(category)
        if cell is None:
            cell = self.categories[category] = [0, 0.0]
        cell[0] += 1
        cell[1] += seconds
        self._events += 1
        if self.sample_every and self._events % self.sample_every == 0:
            wall = perf_counter()
            span = wall - self._last_sample_wall
            self.samples.append({
                "virtual_time": now,
                "executed_events": self._events,
                "events_per_second": (
                    (self._events - self._last_sample_events) / span
                    if span > 0
                    else float("inf")
                ),
            })
            self._last_sample_wall = wall
            self._last_sample_events = self._events

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def events(self) -> int:
        return self._events

    def summary(self) -> Dict[str, Any]:
        """JSON-ready profile: per-category totals plus overall rate."""
        wall = perf_counter() - self._started_wall
        by_category = {
            name: {
                "events": int(count),
                "seconds": seconds,
                "mean_us": (seconds / count * 1e6) if count else 0.0,
            }
            for name, (count, seconds) in sorted(self.categories.items())
        }
        return {
            "events": self._events,
            "wall_seconds": wall,
            "events_per_second": (self._events / wall) if wall > 0 else 0.0,
            "by_category": by_category,
            "samples": list(self.samples),
        }

    def top_categories(self, limit: int = 5) -> List[str]:
        """Category names by descending total wall time."""
        ranked = sorted(
            self.categories.items(), key=lambda item: -item[1][1]
        )
        return [name for name, _ in ranked[:limit]]
