"""Scheduler queues: the adaptive ladder queue and the timer wheel.

The engine (:class:`repro.sim.engine.Simulator`) executes events in
``(time, priority, seq)`` order.  This module provides the pending-set
structures behind that contract (the binary heap they are checked
against lives with the tests, in ``tests/oracles/heap_queue.py``):

* :class:`LadderQueue` — an adaptive ladder queue (Tang/Goh/Thng):
  an unsorted *top* epoch for far-future events, spawn-on-demand
  *rungs* that bucket events by timestamp, and a sorted *bottom* list
  events are popped from.  Enqueue and dequeue are O(1) amortized: a
  push is one ``list.append`` (top or a rung bucket), and the sorting
  work is paid once per small bucket with a C-level ``sort`` on the
  precomputed event key.
* :class:`TimerWheel` — a hierarchical timer wheel fronting the
  high-churn restartable timers (protocol timeouts are overwhelmingly
  cancelled before firing).  Cancelling a wheel-resident timer is a
  flag flip that never touches the ladder; cancelled shells are
  dropped when their slot's window is released.

Why bucket routing cannot reorder events
----------------------------------------

Every structure here ultimately compares the same precomputed
``event._key`` tuples a binary heap would compare, so *within* a
sorted run the order is trivially identical.  The only subtlety is
bucket routing:
an event's rung bucket is ``int((t - start) / width)``, and its wheel
slot derives from ``int(t / g)``.  Both are monotone non-decreasing
functions of ``t`` under IEEE float arithmetic (subtraction and
division by a positive constant are monotone, and ``int`` truncation
is monotone for non-negative operands), and two events with equal
``t`` always map to the same bucket.  Monotone routing means a bucket
boundary can never *invert* two events — at worst roundoff shifts
which bucket a boundary time lands in, identically for every event at
that time — so the dequeue order is bit-identical to the heap's
regardless of floating-point roundoff.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, List, Optional

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

_WHEEL_SLOTS = 64
_WHEEL_LEVELS = 4
_WHEEL_RANGE = _WHEEL_SLOTS**_WHEEL_LEVELS
#: Beyond this absolute tick the float-vs-tick safety argument for the
#: conservative ``next_time`` bound no longer holds; such times simply
#: stay in the ladder.
_MAX_TICK = 1 << 52


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
    * ``peek()`` returns the minimum *live* event without removing it
      (dropping any cancelled shells it uncovers), or ``None``.
    * ``take()`` removes the event the immediately preceding ``peek``
      returned (peek-then-take pairing; never called cold).
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
    def size(self) -> int:
        """Resident entries, cancelled shells included."""
        return self._size

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
    def peek(self) -> Optional[ScheduledEvent]:
        while True:
            bottom = self._bottom
            while bottom:
                event = bottom[-1]
                if not event.cancelled:
                    return event
                bottom.pop()
                self._size -= 1
                self._cancelled -= 1
            if not self._refill():
                return None

    def take(self) -> ScheduledEvent:
        self.dequeues += 1
        self._size -= 1
        return self._bottom.pop()

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


class TimerWheel:
    """Hierarchical timer wheel fronting restartable timers.

    Absolute-tick scheme: an event's tick is ``int(time / g)`` where
    the granularity ``g`` is the first armed delay; level ``l`` holds
    entries whose tick is ``delta`` ticks past the frontier with
    ``64**l <= delta < 64**(l+1)`` (level 0: ``delta < 64``).  The
    frontier advances only when the engine needs it to — releasing a
    slot either drops its cancelled shells (the common fate of a
    protocol timeout, which therefore never touches the ladder) or
    injects the survivors into the main queue.

    ``next_time`` is a conservative lower bound on every resident
    entry's fire time: ``(frontier - 1) * g`` understates by up to one
    tick, so comparing it against a queue head can trigger a spurious
    release pass but can never skip a needed one.  The actual release
    cutoff is computed in tick space with the same ``int(t / g)``
    expression used to arm, which makes "is this entry due?" exact.
    """

    __slots__ = (
        "_g",
        "_frontier",
        "_levels",
        "_counts",
        "next_time",
        "live",
        "resident",
        "arms",
        "cascades",
        "cancelled_in_place",
    )

    def __init__(self) -> None:
        self._g: Optional[float] = None
        self._frontier = 0
        self._levels: List[List[List[ScheduledEvent]]] = [
            [[] for _ in range(_WHEEL_SLOTS)] for _ in range(_WHEEL_LEVELS)
        ]
        self._counts = [0] * _WHEEL_LEVELS
        #: Conservative earliest fire time of any live resident (+inf
        #: when none) — the engine's cheap per-event release test.
        self.next_time = math.inf
        self.live = 0
        self.resident = 0
        self.arms = 0
        self.cascades = 0
        self.cancelled_in_place = 0

    # ------------------------------------------------------------------
    def accepts(self, time: float, now: float) -> bool:
        """Whether a timer at ``time`` can be wheel-resident.

        The first positive delay fixes the granularity.  Times before
        the frontier window, beyond the wheel's range, or past the
        tick-arithmetic safety bound fall back to the main queue.
        """
        g = self._g
        if g is None:
            delay = time - now
            if delay <= 0.0:
                return False
            self._g = g = delay
            # Every tick at or before "now" counts as already released.
            self._frontier = int(now / g) + 1
        if time - now >= g * _WHEEL_RANGE:
            return False
        tick = int(time / g)
        if tick > _MAX_TICK:
            return False
        delta = tick - self._frontier
        return 0 <= delta < _WHEEL_RANGE

    def arm(self, event: ScheduledEvent) -> None:
        """Place an accepted event; ``event.engine`` must be this wheel."""
        g = self._g
        tick = int(event.time / g)
        delta = tick - self._frontier
        if delta < 64:
            level = 0
        elif delta < 4096:
            level = 1
        elif delta < 262144:
            level = 2
        else:
            level = 3
        self._levels[level][(tick >> (6 * level)) & 63].append(event)
        self._counts[level] += 1
        self.resident += 1
        self.arms += 1
        if self.live == 0:
            self.next_time = (self._frontier - 1) * g
        self.live += 1

    def _note_cancelled(self) -> None:
        """Duck-typed engine hook (see ``ScheduledEvent.cancel``).

        The flag flip is the whole point: the shell stays slotted and
        is dropped when its window is released or cascaded, so a
        cancel never touches the ladder.
        """
        self.cancelled_in_place += 1
        self.live -= 1
        if self.live == 0:
            self.next_time = math.inf

    # ------------------------------------------------------------------
    def release_through(self, limit: float,
                        inject: Callable[[ScheduledEvent], None]) -> int:
        """Release every entry with ``time <= limit`` into ``inject``.

        Exactness: an entry at time ``u <= limit`` satisfies
        ``int(u / g) <= int(limit / g)`` because both sides apply the
        same monotone function, so no due (or tied) entry can be left
        behind.  Returns the number of live events injected.
        """
        if self._g is None:
            return 0
        return self._advance(int(limit / self._g), inject, stop_on_live=False)

    def release_until_live(self, limit: float,
                           inject: Callable[[ScheduledEvent], None]) -> int:
        """Advance until one live event is injected or ``limit`` passes.

        Used when the main queue is empty: the engine cannot know the
        next occupied slot, so the wheel walks forward (dropping any
        cancelled shells on the way) until something fires or the run
        deadline is cleared.
        """
        if self._g is None:
            return 0
        target = None if limit == math.inf else int(limit / self._g)
        return self._advance(target, inject, stop_on_live=True)

    def _advance(self, target: Optional[int],
                 inject: Callable[[ScheduledEvent], None],
                 stop_on_live: bool) -> int:
        levels = self._levels
        counts = self._counts
        level0 = levels[0]
        frontier = self._frontier
        injected = 0
        while target is None or frontier <= target:
            if self.resident == 0:
                if target is None:
                    break
                frontier = target + 1
                break
            if (frontier & 63) == 0:
                self._cascade_at(frontier)
            if counts[0] == 0:
                # Level 0 empty: stride straight to the next cascade
                # boundary (never skipping one, so higher-level windows
                # are flushed in order).
                boundary = (frontier | 63) + 1
                if target is not None and boundary > target + 1:
                    frontier = target + 1
                else:
                    frontier = boundary
                continue
            idx = frontier & 63
            slot = level0[idx]
            if slot:
                level0[idx] = []
                counts[0] -= len(slot)
                self.resident -= len(slot)
                for event in slot:
                    if not event.cancelled:
                        self.live -= 1
                        injected += 1
                        inject(event)
            frontier += 1
            if stop_on_live and injected:
                break
        self._frontier = frontier
        self.next_time = (
            (frontier - 1) * self._g if self.live else math.inf
        )
        return injected

    def _cascade_at(self, frontier: int) -> None:
        """Flush each higher level's slot whose window opens at
        ``frontier`` down into the lower levels (highest level first,
        so aligned boundaries compose)."""
        levels = self._levels
        counts = self._counts
        g = self._g
        for level in (3, 2, 1):
            if counts[level] == 0:
                continue
            shift = 6 * level
            if frontier & ((1 << shift) - 1):
                continue  # not at this level's window boundary
            idx = (frontier >> shift) & 63
            slot = levels[level][idx]
            if not slot:
                continue
            levels[level][idx] = []
            counts[level] -= len(slot)
            self.cascades += len(slot)
            for event in slot:
                if event.cancelled:
                    self.resident -= 1
                    continue
                tick = int(event.time / g)
                delta = tick - frontier
                if delta < 64:
                    low = 0
                elif delta < 4096:
                    low = 1
                else:
                    low = 2
                levels[low][(tick >> (6 * low)) & 63].append(event)
                counts[low] += 1
