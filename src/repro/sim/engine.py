"""The discrete-event simulator.

A :class:`Simulator` owns a pending set of :class:`ScheduledEvent`
objects and executes them in ``(time, priority, insertion order)``
order.  Everything else in the library — message delivery, mobility
steps, application hunger, crash injection, monitoring — is expressed
as events scheduled on one shared simulator instance.

Design notes
------------

* **Determinism.**  The engine itself is fully deterministic; all
  randomness enters through :class:`repro.sim.rng.RandomSource`
  substreams, so a (seed, config) pair reproduces a run bit-for-bit.
* **Reentrancy.**  Callbacks may schedule and cancel further events, but
  may not call :meth:`run` recursively.
* **Listeners.**  Observers (the safety monitor, metric collectors) can
  register post-event listeners; they fire after each executed event with
  the engine as argument.  Using listeners rather than wrapping every
  callback keeps protocol code free of instrumentation.  The listener
  list is snapshotted once per :meth:`run` call.
* **Scheduler.**  The pending set is one adaptive ladder queue
  (:class:`repro.sim.schedqueue.LadderQueue` — O(1) amortized
  enqueue/dequeue), fed by one pair of entry points
  (:meth:`schedule` / :meth:`schedule_at`) whether the event is a
  message hop or a restartable deadline.  The tests check it against a
  binary heap (``tests/oracles/heap_queue.py``, installed on a fresh
  engine in its place): both compare the same precomputed ``(time,
  priority, seq)`` keys and bucket routing is monotone in time (see
  :mod:`repro.sim.schedqueue`), so execution order, timestamps, and
  every deterministic counter are bit-identical to the heap's.
* **Hot loop.**  Cancellation is lazy (cancelled shells stay resident),
  but the engine keeps a live count of them: ``pending_events`` is
  O(1), and when shells outnumber live events the pending set is swept
  in place, bounding both memory and pop-side skip work.  Listener
  dispatch is skipped entirely when no listeners are registered.
* **Profiling.**  :meth:`attach_profiler` installs an optional
  wall-clock profiler (per-callback-category totals, events/sec
  samples — see :mod:`repro.obs.profiler`).  The handle is hoisted
  once per :meth:`run` call, so the unprofiled hot loop pays a single
  ``is None`` test per event.
* **Controlled tie-breaks.**  Events sharing a ``(time, priority)``
  pair normally run in insertion order — an arbitrary but fixed
  serialization of logically concurrent work.  A *choice controller*
  (:meth:`set_choice_controller`, used by :mod:`repro.explore`) is
  consulted whenever two or more live events are tied and may pick any
  of them to run next; the others are re-pushed with their original
  tickets, so the controller is consulted again as the group shrinks
  and can realize every permutation of the tie group.  Controllers see
  only genuinely concurrent events — they can never reorder across
  distinct timestamps or priority classes.
"""

from __future__ import annotations

import itertools
import math
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro.errors import SimulationError
from repro.sim.events import EventPriority, ScheduledEvent
from repro.sim.schedqueue import LadderQueue


class Simulator:
    """A deterministic discrete-event scheduler."""

    def __init__(self) -> None:
        self._now: float = 0.0
        self._queue = LadderQueue()
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self._executed_events = 0
        self._wall_time_s = 0.0
        self._listeners: List[Callable[["Simulator"], None]] = []
        # Optional wall-clock profiler (see repro.obs.profiler).  The
        # run loop hoists this once, so the unprofiled cost is one
        # ``is None`` test per executed event.
        self._profiler = None
        # Optional tie-break controller (see repro.explore.schedule);
        # hoisted the same way, so uncontrolled runs pay one ``is None``
        # test per event.
        self._choice_controller = None
        # One-shot hooks fired at the top of the next run() call (see
        # defer_startup).
        self._startup_hooks: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._executed_events

    @property
    def pending_events(self) -> int:
        """Number of events still scheduled and not cancelled (O(1))."""
        return self._queue.live

    def stats(self) -> Dict[str, object]:
        """Engine counters as one JSON-ready dict (for run reports).

        ``wall_time_s`` and ``events_per_sec`` are wall-clock derived
        and therefore non-deterministic; deterministic consumers (the
        canonical RunReport) strip them.  The ``scheduler`` sub-dict
        holds the queue's ops counters — deterministic, but a property
        of the data structure rather than of the run, so report-level
        consumers strip it too and surface it through the
        ``engine.sched_ops`` probe instead.
        """
        wall = self._wall_time_s
        queue = self._queue
        return {
            "executed_events": self._executed_events,
            "pending_events": self.pending_events,
            "now": self._now,
            "scheduler": {
                "discipline": queue.discipline,
                "enqueues": queue.enqueues,
                "dequeues": queue.dequeues,
                "cancelled": queue.cancels,
                "high_water": queue.high_water,
                "compactions": queue.compactions,
                "rung_spills": queue.rung_spills,
                # Always 0 (every cancel counts under "cancelled");
                # kept for benchmarks/e2e/workloads.py, which sums both.
                "cancelled_in_place": 0,
            },
            "wall_time_s": wall,
            "events_per_sec": (self._executed_events / wall) if wall > 0 else 0.0,
        }

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: EventPriority = EventPriority.NORMAL,
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: EventPriority = EventPriority.NORMAL,
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at an absolute virtual time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self._now}"
            )
        event = ScheduledEvent(
            time, priority, next(self._seq), callback, tuple(args), self
        )
        self._queue.push(event)
        return event

    def attach_profiler(self, profiler) -> None:
        """Attach a wall-clock profiler (``repro.obs.EngineProfiler``).

        Must be called outside :meth:`run`; the hot loop snapshots the
        handle once per run call.
        """
        if self._running:
            raise SimulationError("cannot attach a profiler while running")
        self._profiler = profiler

    def detach_profiler(self) -> None:
        """Remove the attached profiler (if any)."""
        if self._running:
            raise SimulationError("cannot detach a profiler while running")
        self._profiler = None

    @property
    def profiler(self):
        """The attached profiler, or ``None``."""
        return self._profiler

    def set_choice_controller(self, controller) -> None:
        """Install a same-instant tie-break controller.

        ``controller.tie_break(group)`` is called whenever two or more
        live events share the next ``(time, priority)`` pair; ``group``
        is the tied events in insertion order and the return value is
        the index of the event to execute next.  The remaining events
        are re-pushed unchanged, so the controller is consulted again
        as the group shrinks — it has full permutation authority over
        the tie group and no authority over anything else.

        Must be called outside :meth:`run` (the hot loop snapshots the
        handle once per run call, like the profiler).
        """
        if self._running:
            raise SimulationError(
                "cannot install a choice controller while running"
            )
        self._choice_controller = controller

    def defer_startup(self, hook: Callable[[], None]) -> None:
        """Run ``hook()`` once, immediately before the next :meth:`run`.

        Construction-time work that only *schedules* events (the
        workload's per-node RNG seeding, for example) can be deferred
        here: the hook fires before the first event pops, so the queue
        holds exactly the same event set when execution starts and
        every engine counter — executed events, high water,
        compactions — matches eager scheduling.  Only the insertion
        tickets of construction-time events shift, which is observable
        solely for events sharing an exact ``(time, priority)`` pair.
        Hooks run in registration order and are dropped after firing.
        """
        self._startup_hooks.append(hook)

    def add_listener(self, listener: Callable[["Simulator"], None]) -> None:
        """Register a post-event observer (runs after every executed event)."""
        self._listeners.append(listener)

    def _note_cancelled(self) -> None:
        """Cancellation bookkeeping (called by ScheduledEvent.cancel)."""
        self._queue.note_cancelled()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Execute events until quiescence, a deadline, or an event budget.

        Args:
            until: stop once the next event would be strictly later than
                this time; the clock is advanced to ``until``.
            max_events: stop after executing this many events (a safety
                valve against accidental livelock in tests).

        Returns:
            The virtual time at which execution stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if self._startup_hooks:
            hooks, self._startup_hooks = self._startup_hooks, []
            for hook in hooks:
                hook()
        self._running = True
        self._stopped = False
        wall_started = perf_counter()
        executed_this_call = 0
        queue = self._queue
        peek = queue.peek
        take = queue.take
        profiler = self._profiler
        controller = self._choice_controller
        until_f = math.inf if until is None else until
        listeners = tuple(self._listeners)
        try:
            while True:
                if self._stopped:
                    break
                if max_events is not None and executed_this_call >= max_events:
                    break
                event = peek()
                if event is None:
                    # Queue drained; advance to the deadline if given.
                    if until is not None and until > self._now:
                        self._now = until
                    break
                t = event.time
                if t > until_f:
                    self._now = until
                    break
                if controller is None:
                    take()
                else:
                    event = self._pop_with_controller(controller)
                self._now = t
                # Mark fired up front: a cancel() of the in-flight event
                # from inside its own callback must stay a no-op and must
                # not disturb the lazy-cancellation count.
                event.cancelled = True
                if profiler is None:
                    event.callback(*event.args)
                else:
                    started = perf_counter()
                    event.callback(*event.args)
                    profiler.note(
                        event.callback, perf_counter() - started, self._now
                    )
                self._executed_events += 1
                executed_this_call += 1
                if listeners:
                    for listener in listeners:
                        listener(self)
        finally:
            self._running = False
            self._wall_time_s += perf_counter() - wall_started
        return self._now

    def _pop_with_controller(self, controller) -> ScheduledEvent:
        """Pop the next event, letting a controller resolve same-key ties.

        Collects every live event tied with the head on ``(time,
        priority)``; with two or more, the controller picks which runs
        now and the rest go back on the queue with their original
        tickets (so a later consultation sees the same relative order).
        The head is known live and in-bounds — :meth:`run` checked.
        Tie comparison uses the precomputed ``_key`` fields,
        so no per-head IntEnum conversion happens in the loop.
        """
        queue = self._queue
        peek = queue.peek
        take = queue.take
        first = take()
        time, priority, _ = first._key
        group = [first]
        while True:
            head = peek()
            if head is None:
                break
            key = head._key
            if key[0] != time or key[1] != priority:
                break
            group.append(take())
        if len(group) == 1:
            return first
        index = controller.tie_break(group)
        if not isinstance(index, int) or not 0 <= index < len(group):
            raise SimulationError(
                f"tie_break returned {index!r} for a group of {len(group)}"
            )
        chosen = group.pop(index)
        push = queue.push
        for event in group:
            push(event)
        return chosen
