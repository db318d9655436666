"""The binary-heap pending set: the scheduler's equivalence oracle.

The engine's ladder queue (:mod:`repro.sim.schedqueue`) is only
allowed to exist because it executes every schedule in exactly the
order a plain ``heapq`` would.  This module is that plain
heap, plus :func:`heap_simulator`, which installs it on a fresh
:class:`~repro.sim.engine.Simulator` so whole scenarios can be run
under it and compared.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.sim.engine import Simulator
from repro.sim.events import ScheduledEvent
from repro.sim.schedqueue import _COMPACT_MIN


class HeapQueue:
    """``LadderQueue``'s interface over ``heapq``.

    O(log n) per operation, with the same lazy cancellation and
    in-place compaction rule as the ladder.
    """

    discipline = "heap"
    rung_spills = 0  # ladder-only concept; constant for the oracle

    def __init__(self) -> None:
        self._heap: List[ScheduledEvent] = []
        self._cancelled = 0
        self.enqueues = 0
        self.dequeues = 0
        self.cancels = 0
        self.high_water = 0
        self.compactions = 0

    @property
    def live(self) -> int:
        """Pending (non-cancelled) entries, O(1)."""
        return len(self._heap) - self._cancelled

    def push(self, event: ScheduledEvent) -> None:
        heap = self._heap
        heapq.heappush(heap, event)
        self.enqueues += 1
        if len(heap) > self.high_water:
            self.high_water = len(heap)

    def peek(self) -> Optional[ScheduledEvent]:
        heap = self._heap
        while heap:
            event = heap[0]
            if not event.cancelled:
                return event
            heapq.heappop(heap)
            self._cancelled -= 1
        return None

    def take(self) -> ScheduledEvent:
        self.dequeues += 1
        return heapq.heappop(self._heap)

    def note_cancelled(self) -> None:
        self.cancels += 1
        self._cancelled += 1
        heap = self._heap
        if self._cancelled > (len(heap) >> 1) and len(heap) >= _COMPACT_MIN:
            # In-place rebuild (slice assignment) so a run() loop
            # holding a reference keeps seeing the live heap.
            heap[:] = [event for event in heap if not event.cancelled]
            heapq.heapify(heap)
            self._cancelled = 0
            self.compactions += 1


def heap_simulator() -> Simulator:
    """A fresh :class:`Simulator` whose pending set is the heap oracle.

    Swaps the queue before anything is scheduled; the engine itself
    has no knob for this.
    """
    sim = Simulator()
    sim._queue = HeapQueue()
    return sim
