"""The node harness: state, timers and wiring for one node.

Implements both sides of the node boundary: the
:class:`~repro.core.base.NodeServices` the algorithm calls down into,
and the link layer's handler contract events come up through.  Also the
single place node state transitions happen: each one (and each
algorithm stage mark) goes to the harness's effect sink, the one
observer seam of a run.  The runtime composes that sink once and shares
it across all harnesses; its subscribers are the metrics collector
(:meth:`~repro.metrics.collector.MetricsCollector.note_fx`), the safety
check on each CS entry, the effect log and the live recorder.  The
invariant-monitor suite reads the harnesses through their ``dirty``
set instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Set

from repro.core.base import LocalMutexAlgorithm
from repro.core.states import NodeState, check_transition
from repro.net.messages import Message
from repro.sim.clock import TimeBounds
from repro.sim.timers import Timer

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.linklayer import LinkLayer
    from repro.runtime.interface import Runtime

#: An effect sink: called as ``note(time, tag, node)`` for every state
#: transition (``hungry``, ``enter``, ``exit``, ``demote``,
#: ``crashed``) and every stage mark an algorithm makes.  A transition
#: calls it after the harness state changed, so a subscriber that reads
#: the harnesses sees the new state.
EffectSink = Callable[[float, str, int], None]


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
    ``linklayer`` anything with a :class:`~repro.net.linklayer.LinkLayer`'s
    ``topology`` and bound ``channel``, so the same harness (and the
    algorithm inside it) runs under the discrete-event simulator or a
    live transport.  Neighbor reads go straight to that topology and
    sends to that channel; the harness's own ``crashed`` flag is what
    silences a crashed node.
    """

    __slots__ = (
        "node_id",
        "_sim",
        "_topology",
        "_channel",
        "_bounds",
        "_note",
        "_eat_rng",
        "_rng_source",
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
        note: EffectSink,
        eat_rng,
        probes=None,
        rng_source=None,
    ) -> None:
        self.node_id = node_id
        self._sim = sim
        self._topology = linklayer.topology
        self._channel = linklayer.channel
        self._bounds = bounds
        self._note = note
        # Either a ready-made eating RNG, or (with ``eat_rng=None`` and
        # a ``rng_source``) the source to pull the memoized
        # ("eating", node_id) substream from on first use.
        self._eat_rng = eat_rng
        self._rng_source = rng_source
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

    def mark(self, tag: str) -> None:
        """Note an algorithm stage mark (e.g. a doorway crossing)."""
        self._note(self._sim.now, tag, self.node_id)

    def neighbors(self):
        return self._topology.neighbors(self.node_id)

    def neighbor_view(self):
        return self._topology.neighbor_view(self.node_id)

    def sorted_neighbors(self):
        return self._topology.sorted_neighbors(self.node_id)

    def send(self, dst: int, message: Message) -> None:
        if self.dirty is not None:
            self.dirty.add(self.node_id)
        if self.crashed:
            return  # a crashed node emits nothing
        self._channel.send(self.node_id, dst, message)

    def broadcast(self, message: Message) -> None:
        """Send ``message`` to every current neighbor, ascending by id."""
        if self.dirty is not None:
            self.dirty.add(self.node_id)
        if self.crashed:
            return
        node_id = self.node_id
        self._channel.broadcast(
            node_id, self._topology.sorted_neighbors(node_id), message
        )

    def start_eating(self) -> None:
        """Algorithm grants the critical section."""
        if self.dirty is not None:
            self.dirty.add(self.node_id)
        check_transition(self._state, NodeState.EATING)
        self._state = NodeState.EATING
        self._note(self._sim.now, "enter", self.node_id)
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
        self._note(self._sim.now, "demote", self.node_id)

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
        self._note(self._sim.now, "hungry", self.node_id)
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
        self._note(self._sim.now, "exit", self.node_id)
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
        self._note(self._sim.now, "crashed", self.node_id)
