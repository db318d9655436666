"""Outside-in span tracer for the e2e ledger.

The traced program knows nothing about this file: :class:`Tracer`
replaces the entry points of each layer — as class (or module)
attributes, before the traced objects are constructed — with wrappers
that keep a span stack in memory and accumulate, per layer, the number
of spans and their *self* time (span duration minus the part covered by
child spans).  :meth:`Tracer.restore` puts the original functions back,
leaving every ``Class.__dict__`` as it was.

Self times of nested spans telescope, so the sum over all layers equals
the total duration of the outermost spans; whatever part of a measured
interval no span covers (the event loop itself) is the caller's to
report as the remainder, which is how the ledger's shares sum to wall.
"""

from __future__ import annotations

import inspect
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: layer -> [(dotted owner, method names)].  An owner is a class or a
#: module; a trailing ``*`` in a name is a prefix match.  Subclasses
#: that override a listed method are wrapped too.
LAYERS: Dict[str, List[Tuple[str, Tuple[str, ...]]]] = {
    "sim": [
        ("repro.sim.engine.Simulator",
         ("schedule", "schedule_at", "schedule_timer", "schedule_timer_at")),
    ],
    "net.channel": [
        # _arrive is the per-message twin of _drain (the replay path).
        ("repro.net.channel.ChannelLayer",
         ("send", "broadcast", "link_down", "_drain", "_arrive")),
    ],
    "net.linklayer": [
        ("repro.net.linklayer.LinkLayer",
         ("send", "broadcast", "deliver", "apply_diff")),
    ],
    "net.topology": [
        ("repro.net.topology.DynamicTopology",
         ("set_position", "set_positions", "reposition")),
    ],
    "mobility": [
        ("repro.mobility.kinetic.KineticEngine",
         ("launch", "note_crash", "true_position",
          "_arrival", "_horizon", "_pair_event")),
        ("repro.mobility.base.MobilityController",
         ("attach", "start", "move_node", "teleport", "position_now",
          "note_crash", "_begin_episode", "_step", "_finish_episode")),
    ],
    "core": [
        # _finish_eating is the eat timer's callback: the exit code
        # runs under it, so it is an entry point like the handlers.
        ("repro.runtime.node.NodeHarness",
         ("on_message", "on_link_up", "on_link_down", "become_hungry",
          "start_eating", "_finish_eating")),
    ],
    "core.coloring": [
        ("repro.core.coloring.session.ColoringSession",
         ("begin", "on_peer_message", "remove_peer", "abort")),
    ],
    "runtime": [
        ("repro.runtime.failures.CrashInjector", ("_crash",)),
        ("repro.runtime.simulation.Simulation", ("__init__",)),
    ],
    "metrics": [
        ("repro.metrics.collector.MetricsCollector", ("note_*",)),
        ("repro.metrics.safety.SafetyMonitor",
         ("note_eating_start", "on_link_event")),
    ],
    "live": [
        ("repro.live.runtime.WallClockRuntime", ("execute",)),
        ("repro.live.linklayer.LiveLinkLayer",
         ("send", "broadcast", "dispatch", "apply_link_event")),
        ("repro.live.bus.InProcessBus", ("send",)),
        ("repro.live.recorder.LiveRecorder", ("begin", "end", "note_send")),
    ],
    "live.replay": [
        ("repro.live.replay", ("derive_replay", "verify_recording")),
        ("repro.explore.runner", ("run_controlled",)),
    ],
    "explore": [
        ("repro.explore.monitors.MonitorSuite",
         ("attach", "_on_event", "finalize")),
    ],
}


def _resolve(dotted: str) -> Any:
    """Import ``pkg.mod`` or ``pkg.mod.Class`` and return the object."""
    import importlib

    try:
        return importlib.import_module(dotted)
    except ImportError:
        module, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def _family(owner: Any) -> List[Any]:
    """A class with all its (transitive) subclasses; a module alone."""
    if not inspect.isclass(owner):
        return [owner]
    family, frontier = [], [owner]
    while frontier:
        cls = frontier.pop()
        if cls not in family:
            family.append(cls)
            frontier.extend(cls.__subclasses__())
    return family


class Tracer:
    """Per-layer span accounting over monkey-patched entry points."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self._clock = clock
        #: One accumulator slot per wrapped entry point:
        #: (layer, "Owner.function") -> index into the two lists.
        self._slots: Dict[Tuple[str, str], int] = {}
        self._self_s: List[float] = []
        self._calls: List[int] = []
        #: One child-time accumulator per open span.
        self._stack: List[float] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def wrap(self, owner: Any, names: Iterable[str], layer: str) -> None:
        """Wrap the plain functions ``names`` of ``owner`` (a class with
        its subclasses, or a module) in spans charged to ``layer``."""
        for holder in _family(owner):
            for attr, value in list(vars(holder).items()):
                if not inspect.isfunction(value):
                    continue
                if not any(
                    attr.startswith(name[:-1]) if name.endswith("*")
                    else attr == name
                    for name in names
                ):
                    continue
                # Overrides in subclasses count under the listed owner.
                key = (layer, f"{owner.__name__.rpartition('.')[2]}.{attr}")
                slot = self._slots.get(key)
                if slot is None:
                    slot = self._slots[key] = len(self._self_s)
                    self._self_s.append(0.0)
                    self._calls.append(0)
                self._installed.append((holder, attr, value))
                setattr(holder, attr, self._span(value, slot))

    def install(self, layers=LAYERS) -> None:
        """Wrap every entry point of the layer table."""
        for layer, owners in layers.items():
            for dotted, names in owners:
                self.wrap(_resolve(dotted), names, layer)

    def restore(self) -> None:
        """Put every original function back."""
        while self._installed:
            holder, attr, original = self._installed.pop()
            setattr(holder, attr, original)

    # ------------------------------------------------------------------
    def _span(self, fn: Callable[..., Any], slot: int) -> Callable[..., Any]:
        clock = self._clock
        stack = self._stack
        self_s = self._self_s
        calls = self._calls

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[slot] += elapsed - stack.pop()
                calls[slot] += 1
                if stack:
                    stack[-1] += elapsed

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero the accumulators (between traced repeats)."""
        for slot in range(len(self._self_s)):
            self._self_s[slot] = 0.0
            self._calls[slot] = 0

    def layers(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_s": ..., "calls": ...}}`` since the reset."""
        table: Dict[str, Dict[str, float]] = {}
        for (layer, _), slot in self._slots.items():
            row = table.setdefault(layer, {"self_s": 0.0, "calls": 0})
            row["self_s"] += self._self_s[slot]
            row["calls"] += self._calls[slot]
        return table

    def calls_by_function(self) -> Dict[str, int]:
        """``{"Owner.function": spans}`` since the reset."""
        return {
            function: self._calls[slot]
            for (_, function), slot in self._slots.items()
        }
