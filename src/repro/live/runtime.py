"""Wall-clock runtime: the live implementation of the Runtime protocol.

:class:`WallClockRuntime` gives :class:`~repro.runtime.node.NodeHarness`
and the algorithms the same two things the simulator gives them — a
clock (``now``) and cancellable deadlines (``schedule``) — but backed
by an asyncio event loop instead of a pending-event queue.  Virtual
time maps linearly onto the loop's monotonic clock through
``time_scale`` (wall seconds per virtual unit), so one scenario
description drives both worlds at whatever real-time rate the
deployment wants.

Every piece of node code runs inside :meth:`execute`, which is where
the record/replay contract is enforced:

* each execution gets a **strictly increasing** virtual stamp
  (``max(wall, last + ε)``) — recorded stamps never tie, so the in-sim
  replay needs no tie-break decisions;
* ``now`` is frozen at that stamp for the duration of the execution,
  exactly like the simulator freezes ``now`` per event;
* the recorder opens a row before the callback and closes it after, so
  every send and every noted effect lands in the row of the execution
  that caused it.

:meth:`observe_remote_stamp` is the socket transport's hybrid-clock
hook: bumping ``last`` to at least the sender's stamp before the
delivery executes guarantees receive stamps sort after their send even
across processes with skewed clocks.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.states import NodeState
from repro.errors import SimulationError
from repro.sim.clock import TIME_EPSILON
from repro.sim.events import EventPriority


class LiveTimerHandle:
    """TimerHandle over an asyncio timer (cancel / pending / time)."""

    __slots__ = ("_handle", "_time", "_pending")

    def __init__(self, handle: asyncio.TimerHandle, time: float) -> None:
        self._handle = handle
        self._time = time
        self._pending = True

    @property
    def pending(self) -> bool:
        return self._pending

    @property
    def time(self) -> float:
        return self._time

    def cancel(self) -> None:
        if self._pending:
            self._pending = False
            self._handle.cancel()


class WallClockRuntime:
    """Virtual time over an asyncio loop, with recorded executions."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        time_scale: float,
        recorder=None,
    ) -> None:
        if time_scale <= 0:
            raise SimulationError(f"time_scale must be > 0: {time_scale}")
        self.loop = loop
        self.time_scale = float(time_scale)
        self.recorder = recorder
        self._t0: Optional[float] = None
        self._last = 0.0
        self._current: Optional[float] = None
        self._stopped = False
        self._until = math.inf
        #: The ``live.*`` probes scenario events are counted in; wired by
        #: :class:`~repro.live.node.LiveNodeSet`.
        self.probes = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def start(self, t0_wall: Optional[float] = None) -> None:
        """Fix virtual zero at ``t0_wall`` (loop clock; default: now)."""
        self._t0 = self.loop.time() if t0_wall is None else float(t0_wall)

    @property
    def started(self) -> bool:
        return self._t0 is not None

    def wall_at(self, virtual: float) -> float:
        """Loop-clock instant corresponding to a virtual time."""
        if self._t0 is None:
            raise SimulationError("runtime not started")
        return self._t0 + virtual * self.time_scale

    def wall_virtual(self) -> float:
        """Raw (non-monotonized) virtual reading of the wall clock."""
        if self._t0 is None:
            raise SimulationError("runtime not started")
        return (self.loop.time() - self._t0) / self.time_scale

    @property
    def now(self) -> float:
        """Frozen execution stamp inside :meth:`execute`, else wall."""
        if self._current is not None:
            return self._current
        return self.wall_virtual()

    @property
    def last_stamp(self) -> float:
        """The most recent execution stamp (socket frames carry this)."""
        return self._last

    def observe_remote_stamp(self, stamp: float) -> None:
        """Hybrid-clock bump: our next stamp must exceed ``stamp``."""
        if stamp > self._last:
            self._last = float(stamp)

    def stop(self) -> None:
        """Refuse further executions (pending asyncio timers may still
        fire; they become no-ops)."""
        self._stopped = True

    def run(self, until: float) -> float:
        """Run the loop up to virtual ``until``, then stop; returns the
        end stamp (the later of the wall reading and the last stamp)."""
        self._until = until
        self.loop.call_at(self.wall_at(until), self.loop.stop)
        self.loop.run_forever()
        self.stop()
        return max(self.wall_virtual(), self._last)

    # ------------------------------------------------------------------
    # Execution dispatch (the recording boundary)
    # ------------------------------------------------------------------
    def execute(
        self,
        kind: str,
        fields: Dict[str, Any],
        fn: Callable[..., None],
        *args: Any,
    ) -> None:
        """Run one node-level callback as a stamped, recorded execution."""
        if self._stopped:
            return
        stamp = self.wall_virtual()
        if stamp <= self._last:
            stamp = self._last + TIME_EPSILON
        self._last = stamp
        self._current = stamp
        recorder = self.recorder
        if recorder is not None:
            recorder.begin(stamp, kind, fields)
        try:
            fn(*args)
        finally:
            if recorder is not None:
                recorder.end()
            self._current = None

    def at(
        self, time: float, kind: str, fn: Callable[..., None], *args: Any
    ) -> asyncio.TimerHandle:
        """The live scenario-event hook (:mod:`repro.runtime.app`): run
        ``fn(*args)`` at virtual ``time`` as one recorded ``kind`` row,
        its fields built at fire time.  Events at or past the stop time
        of :meth:`run` never run."""
        return self.loop.call_at(
            self.wall_at(time), self._fire, time, kind, fn, args
        )

    def _fire(
        self, time: float, kind: str, fn: Callable[..., None],
        args: Tuple[Any, ...],
    ) -> None:
        if time >= self._until:
            return
        if self.probes is not None:
            self.probes.inc_event(kind)
        self.execute(kind, _row_fields(kind, args), fn, *args)

    # ------------------------------------------------------------------
    # Runtime protocol (what Timer and node code call)
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: EventPriority = EventPriority.NORMAL,
    ) -> LiveTimerHandle:
        """One-shot callback ``delay`` virtual units from now.

        ``priority`` is accepted for protocol compatibility and ignored:
        wall-clock stamps never tie, so there is nothing to break.
        """
        deadline = self.now + max(0.0, float(delay))
        holder: Dict[str, LiveTimerHandle] = {}

        def _fire() -> None:
            handle = holder["handle"]
            if not handle._pending:
                return
            handle._pending = False
            self.execute("timer", {}, callback, *args)

        raw = self.loop.call_at(self.wall_at(deadline), _fire)
        handle = LiveTimerHandle(raw, deadline)
        holder["handle"] = handle
        return handle


def _row_fields(kind: str, args: Tuple[Any, ...]) -> Dict[str, Any]:
    """The recorded fields of one scenario event, from its call args.

    ``hungry`` (args: the harness) records whether the poke was
    effective — the node was up and thinking — ``crash`` (args: the
    node) the node, ``up`` / ``down`` (args: op, a, b, mover) the link,
    and ``up`` also its moving endpoint.
    """
    if kind == "hungry":
        harness = args[0]
        return {
            "n": harness.node_id,
            "eff": not harness.crashed
            and harness.state is NodeState.THINKING,
        }
    if kind == "crash":
        return {"n": args[0]}
    _, a, b, mover = args
    if kind == "up":
        return {"a": a, "b": b, "mover": mover}
    return {"a": a, "b": b}
