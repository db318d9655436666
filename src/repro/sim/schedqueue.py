"""The scheduler's pending set: an adaptive ladder queue.

The engine (:class:`repro.sim.engine.Simulator`) executes events in
``(time, priority, seq)`` order.  :class:`LadderQueue` is the one
pending-set structure behind that contract (the binary heap it is
checked against lives with the tests, in
``tests/oracles/heap_queue.py``): an adaptive ladder queue
(Tang/Goh/Thng) with an unsorted *top* epoch for far-future events,
spawn-on-demand *rungs* that bucket events by timestamp, and a sorted
*bottom* list events are popped from.  Enqueue and dequeue are O(1)
amortized: a push is one ``list.append`` (top or a rung bucket), and
the sorting work is paid once per small bucket with a C-level ``sort``
on the precomputed event key.  Cancellation is lazy — a flag flip on
the event — and a sweep drops the shells once they outnumber the live
entries, so a deadline restarted over and over keeps the queue at a
bounded size.

Why bucket routing cannot reorder events
----------------------------------------

The ladder ultimately compares the same precomputed ``event._key``
tuples a binary heap would compare, so *within* a sorted run the order
is trivially identical.  The only subtlety is bucket routing: an
event's rung bucket is ``int((t - start) / width)``, a monotone
non-decreasing function of ``t`` under IEEE float arithmetic
(subtraction and division by a positive constant are monotone, and
``int`` truncation is monotone for non-negative operands), and two
events with equal ``t`` always map to the same bucket.  Monotone
routing means a bucket boundary can never *invert* two events — at
worst roundoff shifts which bucket a boundary time lands in,
identically for every event at that time — so the dequeue order is
bit-identical to the heap's regardless of floating-point roundoff.
"""

from __future__ import annotations

import math
import operator
from typing import List, Optional

from repro.sim.events import ScheduledEvent

#: C-level sort key: one attribute fetch per element instead of a
#: Python-level ``__lt__`` call per comparison.
_KEY = operator.attrgetter("_key")

#: Never bother compacting pending sets smaller than this.
_COMPACT_MIN = 64

#: A rung bucket larger than this (and spanning more than one distinct
#: timestamp) is re-bucketed into a deeper rung instead of sorted.
_SPILL_THRESH = 64

#: Cap on buckets per rung; bounds per-spawn allocation at city scale.
_MAX_BUCKETS = 4096

#: A bottom list pushed past this length is re-bucketed into a rung so
#: insertion-sort work stays bounded.
_BOTTOM_LIMIT = 4096


class _Rung:
    """One ladder rung: equal-width buckets over ``[start, …)``.

    ``cur`` is the next bucket to extract; buckets below it are spent,
    so pushes routing here must land at index >= ``cur``.
    """

    __slots__ = ("start", "width", "buckets", "cur")

    def __init__(self, start: float, width: float,
                 buckets: List[List[ScheduledEvent]]) -> None:
        self.start = start
        self.width = width
        self.buckets = buckets
        self.cur = 0


class LadderQueue:
    """Adaptive ladder queue with O(1) amortized enqueue/dequeue.

    Three tiers, earliest last:

    * **top** — an unsorted append-only epoch holding every event at or
      after ``_top_start``.  When the rungs run dry the whole epoch is
      bucketed into a fresh rung in one pass.
    * **rungs** — a stack of bucket arrays; ``_rungs[-1]`` is the
      deepest (earliest) rung.  An extracted bucket that is still large
      and spans more than one timestamp spawns a deeper rung instead of
      being sorted (the "adaptive" part).
    * **bottom** — one extracted bucket, sorted *descending* by event
      key so the minimum pops from the list end in O(1).

    Invariant: every bottom key < every remaining rung key < every top
    key (strict, because routing is monotone in time and ``_top_start``
    is bumped past the transferred maximum with ``math.nextafter``).

    The interface the engine (and the tests' heap oracle) relies on:

    * ``push(event)`` inserts.
    * ``pop_due(until)`` removes and returns the minimum *live* event
      if its time is ``<= until`` (dropping any cancelled shells it
      uncovers), else ``None`` and leaves it queued.
    * ``note_cancelled()`` records one lazy cancellation and may
      compact.
    """

    discipline = "ladder"

    __slots__ = (
        "_top",
        "_top_start",
        "_rungs",
        "_bottom",
        "_size",
        "_cancelled",
        "enqueues",
        "dequeues",
        "cancels",
        "high_water",
        "compactions",
        "rung_spills",
    )

    def __init__(self) -> None:
        self._top: List[ScheduledEvent] = []
        self._top_start = -math.inf
        self._rungs: List[_Rung] = []
        self._bottom: List[ScheduledEvent] = []
        self._size = 0
        self._cancelled = 0
        self.enqueues = 0
        self.dequeues = 0
        self.cancels = 0
        self.high_water = 0
        self.compactions = 0
        self.rung_spills = 0

    @property
    def live(self) -> int:
        """Pending (non-cancelled) entries, O(1)."""
        return self._size - self._cancelled

    # ------------------------------------------------------------------
    def push(self, event: ScheduledEvent) -> None:
        self.enqueues += 1
        size = self._size + 1
        self._size = size
        if size > self.high_water:
            self.high_water = size
        if event.time >= self._top_start:
            self._top.append(event)
            return
        self._place(event)

    def _place(self, event: ScheduledEvent) -> None:
        t = event.time
        if t >= self._top_start:
            self._top.append(event)
            return
        for rung in self._rungs:
            start = rung.start
            # The explicit ``t >= start`` guard matters: int() truncates
            # toward zero, so a negative offset would alias to bucket 0
            # instead of falling through to a deeper tier.
            if t >= start:
                idx = int((t - start) / rung.width)
                if idx >= rung.cur:
                    buckets = rung.buckets
                    last = len(buckets) - 1
                    buckets[idx if idx < last else last].append(event)
                    return
        bottom = self._bottom
        if len(bottom) >= _BOTTOM_LIMIT and self._spill_bottom():
            self._place(event)
            return
        # Binary insort into the descending-sorted bottom: entries
        # before the insertion point have strictly greater keys.
        key = event._key
        lo, hi = 0, len(bottom)
        while lo < hi:
            mid = (lo + hi) >> 1
            if bottom[mid]._key > key:
                lo = mid + 1
            else:
                hi = mid
        bottom.insert(lo, event)

    def _spill_bottom(self) -> bool:
        """Re-bucket an oversized bottom into a new deepest rung."""
        bottom = self._bottom
        tmax = bottom[0].time  # descending by key: max first, min last
        tmin = bottom[-1].time
        if tmin == tmax:
            # A single timestamp cannot be bucketed further; leave the
            # (already sorted) list alone.
            return False
        self._bottom = []
        self._spawn_rung(bottom, tmin, tmax)
        return True

    def _spawn_rung(self, events: List[ScheduledEvent],
                    tmin: float, tmax: float) -> None:
        """Bucket ``events`` (whose times span ``tmin < tmax``) into a
        new deepest rung."""
        n = len(events)
        if n > _MAX_BUCKETS:
            n = _MAX_BUCKETS
        width = (tmax - tmin) / n
        if width <= 0.0:
            width = tmax - tmin  # denormal-underflow guard; still > 0
        buckets: List[List[ScheduledEvent]] = [[] for _ in range(n)]
        last = n - 1
        for event in events:
            idx = int((event.time - tmin) / width)
            buckets[idx if idx < last else last].append(event)
        self._rungs.append(_Rung(tmin, width, buckets))

    # ------------------------------------------------------------------
    def pop_due(self, until: float) -> Optional[ScheduledEvent]:
        while True:
            bottom = self._bottom
            while bottom:
                event = bottom[-1]
                if event.cancelled:
                    bottom.pop()
                    self._size -= 1
                    self._cancelled -= 1
                    continue
                if event.time > until:
                    return None
                bottom.pop()
                self._size -= 1
                self.dequeues += 1
                return event
            if not self._refill():
                return None

    def _refill(self) -> bool:
        """Load the next bucket into the (empty) bottom.

        Returns False when the queue is completely drained.
        """
        rungs = self._rungs
        while True:
            while rungs:
                rung = rungs[-1]
                buckets = rung.buckets
                n = len(buckets)
                cur = rung.cur
                while cur < n and not buckets[cur]:
                    cur += 1
                if cur >= n:
                    rungs.pop()
                    continue
                batch = buckets[cur]
                buckets[cur] = []
                rung.cur = cur + 1
                if cur + 1 >= n:
                    # Exhausted: drop it now so push routing can never
                    # clamp into a spent bucket.
                    rungs.pop()
                dead = 0
                for event in batch:
                    if event.cancelled:
                        dead += 1
                if dead:
                    batch = [e for e in batch if not e.cancelled]
                    self._size -= dead
                    self._cancelled -= dead
                    if not batch:
                        continue
                if len(batch) > _SPILL_THRESH:
                    tmin = tmax = batch[0].time
                    for event in batch:
                        t = event.time
                        if t < tmin:
                            tmin = t
                        elif t > tmax:
                            tmax = t
                    if tmin != tmax:
                        self._spawn_rung(batch, tmin, tmax)
                        self.rung_spills += 1
                        continue
                batch.sort(key=_KEY, reverse=True)
                self._bottom = batch
                return True
            top = self._top
            if not top:
                return False
            tmin = tmax = top[0].time
            for event in top:
                t = event.time
                if t < tmin:
                    tmin = t
                elif t > tmax:
                    tmax = t
            self._top = []
            # Strictly above every transferred time, so an equal-time
            # push with an older (claimed) seq routes into the rung —
            # where key order sorts it — never into the fresh top.
            self._top_start = math.nextafter(tmax, math.inf)
            if tmin == tmax:
                top.sort(key=_KEY, reverse=True)
                self._bottom = top
                return True
            self._spawn_rung(top, tmin, tmax)

    # ------------------------------------------------------------------
    def note_cancelled(self) -> None:
        self.cancels += 1
        cancelled = self._cancelled + 1
        self._cancelled = cancelled
        if cancelled > (self._size >> 1) and self._size >= _COMPACT_MIN:
            self._sweep()

    def _sweep(self) -> None:
        """Drop cancelled shells from every tier, order-preserving."""
        self._bottom = [e for e in self._bottom if not e.cancelled]
        size = len(self._bottom)
        for rung in self._rungs:
            buckets = rung.buckets
            for i in range(rung.cur, len(buckets)):
                if buckets[i]:
                    buckets[i] = [e for e in buckets[i] if not e.cancelled]
                    size += len(buckets[i])
        self._top = [e for e in self._top if not e.cancelled]
        self._size = size + len(self._top)
        self._cancelled = 0
        self.compactions += 1

