"""The node harness: state, timers and wiring for one node.

Implements both sides of the node boundary: the
:class:`~repro.core.base.NodeServices` the algorithm calls down into,
and the link layer's handler contract events come up through.  Also the
single place node state transitions happen, so the metrics collector,
safety monitor and invariant-monitor suite see every change.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Set

from repro.core.base import LocalMutexAlgorithm
from repro.core.states import NodeState, check_transition
from repro.net.messages import Message
from repro.sim.clock import TimeBounds
from repro.sim.timers import Timer
from repro.sim.trace import NULL_TRACE, TraceLog, live_trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.linklayer import LinkLayer
    from repro.runtime.interface import Runtime


class NodeHarness:
    """Host for one node's algorithm instance.

    Slotted, and lazy about its two per-node conveniences (the eating
    timer and the eating RNG substream): a city-scale run constructs
    hundreds of thousands of harnesses at bootstrap, most of which
    reach ``start_eating`` much later or never — deferring the
    ``Timer`` and the ~2.5 KB ``random.Random`` to first use keeps
    construction O(cheap) per node without changing any draw sequence
    (substream seeds derive from the stream name alone).

    The harness is runtime-agnostic: ``sim`` is anything satisfying the
    :class:`~repro.runtime.interface.Runtime` protocol and
    ``linklayer`` anything with the :class:`~repro.net.linklayer.LinkLayer`
    query/send surface, so the same harness (and the algorithm inside
    it) runs under the discrete-event simulator or a live transport.
    """

    __slots__ = (
        "node_id",
        "_sim",
        "_linklayer",
        "_bounds",
        "_trace",
        "_trace_log",
        "_eat_rng",
        "_rng_source",
        "_metrics",
        "_safety",
        "probes",
        "_state",
        "_eat_timer",
        "_eat_script",
        "crashed",
        "algorithm",
        "on_done_eating",
        "dirty",
    )

    def __init__(
        self,
        node_id: int,
        sim: "Runtime",
        linklayer: "LinkLayer",
        bounds: TimeBounds,
        trace: TraceLog,
        eat_rng,
        metrics=None,
        safety=None,
        probes=None,
        rng_source=None,
    ) -> None:
        self.node_id = node_id
        self._sim = sim
        self._linklayer = linklayer
        self._bounds = bounds
        # Hot-path handle: None unless tracing is live, so every record
        # site below is one pointer test when tracing is off (mirroring
        # the ``self._metrics is not None`` guards).  The full log stays
        # reachable through the ``trace`` property for algorithm code.
        self._trace = live_trace(trace)
        self._trace_log = trace if trace is not None else NULL_TRACE
        # Either a ready-made eating RNG, or (with ``eat_rng=None`` and
        # a ``rng_source``) the source to pull the memoized
        # ("eating", node_id) substream from on first use.
        self._eat_rng = eat_rng
        self._rng_source = rng_source
        self._metrics = metrics
        self._safety = safety
        #: Shared telemetry probes, or None when the run is
        #: uninstrumented.  Protocol components pick this up at
        #: construction time (``getattr(node, "probes", None)``), so
        #: fakes without the attribute still work.
        self.probes = probes
        self._state = NodeState.THINKING
        self._eat_timer: Optional[Timer] = None
        self._eat_script: Optional[List[float]] = None
        self.crashed = False
        self.algorithm: Optional[LocalMutexAlgorithm] = None
        #: Workload hook: called when the node finishes eating.
        self.on_done_eating: Optional[Callable[["NodeHarness"], None]] = None
        #: The attached monitor suite's dirty set, or None when no suite
        #: watches this run.  Every entry point below that can change
        #: the node's protocol state adds the node's id, so monitors
        #: re-check only the nodes an event touched.
        self.dirty: Optional[Set[int]] = None

    def bind(self, algorithm: LocalMutexAlgorithm) -> None:
        """Attach the algorithm instance (exactly once, at build time)."""
        self.algorithm = algorithm

    # ------------------------------------------------------------------
    # NodeServices (the algorithm's view)
    # ------------------------------------------------------------------
    @property
    def state(self) -> NodeState:
        return self._state

    @property
    def now(self) -> float:
        return self._sim.now

    @property
    def sim(self) -> "Runtime":
        return self._sim

    @property
    def trace(self) -> TraceLog:
        return self._trace_log

    def neighbors(self):
        return self._linklayer.neighbors(self.node_id)

    def neighbor_view(self):
        return self._linklayer.neighbor_view(self.node_id)

    def sorted_neighbors(self):
        return self._linklayer.sorted_neighbors(self.node_id)

    def send(self, dst: int, message: Message) -> None:
        if self.dirty is not None:
            self.dirty.add(self.node_id)
        self._linklayer.send(self.node_id, dst, message)

    def broadcast(self, message: Message) -> None:
        if self.dirty is not None:
            self.dirty.add(self.node_id)
        self._linklayer.broadcast(self.node_id, message)

    def start_eating(self) -> None:
        """Algorithm grants the critical section."""
        if self.dirty is not None:
            self.dirty.add(self.node_id)
        check_transition(self._state, NodeState.EATING)
        self._state = NodeState.EATING
        if self._trace is not None:
            self._trace.record(self._sim.now, "cs.enter", self.node_id)
        if self._metrics is not None:
            self._metrics.note_eat_start(self.node_id, self._sim.now)
        if self._safety is not None:
            self._safety.note_eating_start(self.node_id, self._sim.now)
        timer = self._eat_timer
        if timer is None:
            timer = self._eat_timer = Timer(self._sim, self._finish_eating)
        script = self._eat_script
        if script:
            timer.start(script.pop(0))
            return
        rng = self._eat_rng
        if rng is None:
            rng = self._eat_rng = self._rng_source.stream(
                "eating", self.node_id
            )
        timer.start(self._bounds.draw_eating_time(rng))

    def script_eating(self, durations) -> None:
        """Replace random eating times with a fixed per-entry schedule.

        Used by replay: the i-th critical-section entry eats for
        ``durations[i]`` exactly; once the script is exhausted the
        harness falls back to the usual RNG draw.  Must be installed
        before the first entry to keep draw sequences aligned.
        """
        self._eat_script = [float(d) for d in durations]

    def demote_to_hungry(self) -> None:
        """Mobility preemption: eating -> hungry (Algorithm 3 Line 50)."""
        if self.dirty is not None:
            self.dirty.add(self.node_id)
        check_transition(self._state, NodeState.HUNGRY)
        self._eat_timer.cancel()
        self._state = NodeState.HUNGRY
        if self._trace is not None:
            self._trace.record(self._sim.now, "cs.demoted", self.node_id)
        if self._metrics is not None:
            self._metrics.note_demotion(self.node_id, self._sim.now)

    # ------------------------------------------------------------------
    # Application-driven transitions
    # ------------------------------------------------------------------
    def become_hungry(self) -> None:
        """The external application requests the critical section."""
        if self.dirty is not None:
            self.dirty.add(self.node_id)
        if self.crashed or self._state is not NodeState.THINKING:
            return
        check_transition(self._state, NodeState.HUNGRY)
        self._state = NodeState.HUNGRY
        if self._trace is not None:
            self._trace.record(self._sim.now, "app.hungry", self.node_id)
        if self._metrics is not None:
            self._metrics.note_hungry(self.node_id, self._sim.now)
        assert self.algorithm is not None, "harness not bound to an algorithm"
        self.algorithm.on_hungry()

    def _finish_eating(self) -> None:
        if self.dirty is not None:
            self.dirty.add(self.node_id)
        if self.crashed:
            return
        assert self.algorithm is not None
        # The exit code (Line 5 "when state is set to thinking") runs as
        # part of leaving the critical section.
        self.algorithm.on_exit_cs()
        check_transition(self._state, NodeState.THINKING)
        self._state = NodeState.THINKING
        if self._trace is not None:
            self._trace.record(self._sim.now, "cs.exit", self.node_id)
        if self._metrics is not None:
            self._metrics.note_think(self.node_id, self._sim.now)
        if self.on_done_eating is not None:
            self.on_done_eating(self)

    # ------------------------------------------------------------------
    # Link-layer handler contract
    # ------------------------------------------------------------------
    def on_message(self, src: int, message: Message) -> None:
        if self.dirty is not None:
            self.dirty.add(self.node_id)
        if self.crashed:
            return
        assert self.algorithm is not None
        self.algorithm.on_message(src, message)

    def on_link_up(self, peer: int, moving: bool) -> None:
        if self.dirty is not None:
            self.dirty.add(self.node_id)
        if self.crashed:
            return
        assert self.algorithm is not None
        self.algorithm.on_link_up(peer, moving)

    def on_link_down(self, peer: int) -> None:
        if self.dirty is not None:
            self.dirty.add(self.node_id)
        if self.crashed:
            return
        assert self.algorithm is not None
        self.algorithm.on_link_down(peer)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Silently stop: no further timers, messages or transitions."""
        if self.dirty is not None:
            self.dirty.add(self.node_id)
        self.crashed = True
        if self._eat_timer is not None:
            self._eat_timer.cancel()
        if self._trace is not None:
            self._trace.record(self._sim.now, "node.crashed", self.node_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NodeHarness {self.node_id} {self._state.value}"
            f"{' CRASHED' if self.crashed else ''}>"
        )
