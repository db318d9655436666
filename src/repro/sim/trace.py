"""Structured trace log for simulation runs.

Traces serve three purposes: debugging protocol state machines,
asserting fine-grained event orderings in tests (e.g. "p2 took the
return path before p1 requested its fork"), and producing the per-stage
latency breakdown for the Figure 5 benchmark.

A trace record is a small immutable tuple of (time, category, node,
detail dict).  Recording can be disabled wholesale (the default for
benchmarks) at truly zero cost: hot paths normalize their trace handle
with :func:`live_trace` at construction time, hold ``None`` when
tracing is off, and guard every ``record()`` call with an
``is not None`` test — so neither the call nor its kwargs dict is ever
built.  :data:`NULL_TRACE` is the shared do-nothing instance handed to
code that wants an always-valid :class:`TraceLog` object instead of an
optional one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry."""

    time: float
    category: str
    node: Optional[int]
    detail: Dict[str, Any] = field(default_factory=dict)


class TraceLog:
    """An append-only, filterable event trace."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._records: List[TraceRecord] = []

    def record(
        self,
        time: float,
        category: str,
        node: Optional[int] = None,
        **detail: Any,
    ) -> None:
        """Append one record (no-op while disabled)."""
        if not self.enabled:
            return
        self._records.append(TraceRecord(time, category, node, detail))

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def select(
        self,
        category: Optional[str] = None,
        node: Optional[int] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> List[TraceRecord]:
        """Return records matching all given filters, in time order."""
        result = []
        for rec in self._records:
            if category is not None and rec.category != category:
                continue
            if node is not None and rec.node != node:
                continue
            if predicate is not None and not predicate(rec):
                continue
            result.append(rec)
        return result


#: Shared sentinel for "no tracing".  Components that expose a TraceLog
#: attribute return this when built without one, so callers never need
#: a None check just to *have* a log object; hot paths should instead
#: normalize with :func:`live_trace` and skip record() calls entirely.
NULL_TRACE = TraceLog(enabled=False)


def live_trace(trace: Optional[TraceLog]) -> Optional[TraceLog]:
    """Normalize a trace handle for hot-path guards.

    Returns ``trace`` only if it is a real, enabled log; ``None`` for
    ``None``, :data:`NULL_TRACE` and disabled logs.  Call sites then
    mirror the ``self._metrics is not None`` idiom: one pointer test
    decides whether any tracing work (including kwargs construction)
    happens at all.
    """
    if trace is None or not trace.enabled:
        return None
    return trace
