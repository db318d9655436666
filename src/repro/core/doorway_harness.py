"""Standalone doorway protocols for the Figure 1-4 experiments.

The doorway constructions of Chapter 4 are interesting in isolation:
Lemma 1 bounds a double doorway's traversal at O(delta * T) and Lemma 2
a double doorway with a return path at O(delta * T * R), where T is the
time complexity of the module run behind the doorway and R the number
of times the entry code of the inner synchronous doorway may re-run.

:class:`DoorwayAlgorithm` wraps one doorway configuration around a
synthetic module of fixed duration T: a "hungry" node traverses the
doorway(s), runs the module R times (taking the return path between
runs where configured), briefly "eats" (so the harness records the
response time = full traversal latency), and exits.  Doorways by
themselves do NOT provide mutual exclusion — neighbors may be behind
one concurrently — so :class:`DoorwayAlgorithm` declares
``guarantees_exclusion = False`` and its runs do not check safety.
"""

from __future__ import annotations

from repro.core.base import LocalMutexAlgorithm, NodeServices
from repro.core.dispatch import MessageDispatchMixin, handles
from repro.core.doorway import DoorwaySet
from repro.core.messages import DoorwayCross, DoorwayExit, Hello
from repro.core.states import NodeState
from repro.errors import ConfigurationError
from repro.net.messages import Message
from repro.sim.timers import Timer

#: Doorway kinds understood by :class:`DoorwayAlgorithm`.
KINDS = ("sync", "async", "double", "double-return")

_OUTER = "A"
_INNER = "S"


class DoorwayAlgorithm(MessageDispatchMixin, LocalMutexAlgorithm):
    """One node's side of a synthetic doorway-guarded module."""

    name = "doorway"
    guarantees_exclusion = False

    def __init__(
        self,
        node: NodeServices,
        kind: str,
        module_time: float = 1.0,
        returns: int = 1,
    ) -> None:
        """
        Args:
            node: host node services.
            kind: "sync", "async", "double" or "double-return".
            module_time: T — how long one module run takes.
            returns: R — module runs per traversal (only meaningful for
                "double-return"; must be 1 otherwise).
        """
        super().__init__(node)
        if kind not in KINDS:
            raise ConfigurationError(f"unknown doorway kind {kind!r}")
        if returns < 1:
            raise ConfigurationError(f"returns must be >= 1, got {returns}")
        if returns > 1 and kind != "double-return":
            raise ConfigurationError(
                f"kind {kind!r} does not support multiple module runs"
            )
        self.kind = kind
        self.module_time = module_time
        self.returns = returns
        self._runs_done = 0
        self._module_timer = Timer(node.sim, self._module_finished)
        if kind == "sync":
            doorways, sync = (_INNER,), frozenset({_INNER})
        elif kind == "async":
            doorways, sync = (_OUTER,), frozenset()
        else:
            doorways, sync = (_OUTER, _INNER), frozenset({_INNER})
        self._inner = _INNER if kind != "async" else _OUTER
        self.doorways = DoorwaySet(
            node, self._on_crossed, doorways=doorways, sync_doorways=sync
        )

    # ------------------------------------------------------------------
    @property
    def _entry_doorway(self) -> str:
        return _OUTER if self.kind in ("async", "double", "double-return") else _INNER

    def on_hungry(self) -> None:
        self._runs_done = 0
        self.doorways.start_entry(self._entry_doorway)

    def _on_crossed(self, doorway: str) -> None:
        if doorway == _OUTER and self.kind in ("double", "double-return"):
            self.doorways.start_entry(_INNER)
            return
        # Innermost doorway crossed: run the module.
        self._module_timer.start(self.module_time)

    def _module_finished(self) -> None:
        self._runs_done += 1
        if self._runs_done < self.returns:
            # Take the return path: exit the inner synchronous doorway
            # and immediately re-enter it (Figure 4).
            self.doorways.exit(_INNER)
            self.doorways.start_entry(_INNER)
            return
        if self.node.state is NodeState.HUNGRY:
            self.node.start_eating()

    def on_exit_cs(self) -> None:
        self.doorways.exit(self._inner)
        if self.kind in ("double", "double-return"):
            self.doorways.exit(_OUTER)

    # ------------------------------------------------------------------
    def on_message(self, src: int, message: Message) -> None:
        self.dispatch_message(src, message)

    @handles(DoorwayCross)
    def _on_doorway_cross(self, src: int, message: DoorwayCross) -> None:
        self.doorways.note_cross(src, message.doorway)

    @handles(DoorwayExit)
    def _on_doorway_exit(self, src: int, message: DoorwayExit) -> None:
        self.doorways.note_exit(src, message.doorway)

    @handles(Hello)
    def _on_hello(self, src: int, message: Hello) -> None:
        self.doorways.on_hello(src, message.behind_doorways)

    def on_link_up(self, peer: int, moving: bool) -> None:
        if not moving:
            self.doorways.on_new_neighbor_while_static(peer)
            self.node.send(peer, Hello(None, self.doorways.behind_set()))
        else:
            self._module_timer.cancel()
            self.doorways.exit_all()

    def on_link_down(self, peer: int) -> None:
        self.doorways.on_link_down(peer)


def doorway_entry(kind: str, module_time: float = 1.0, returns: int = 1):
    """Registry-style entry producing :class:`DoorwayAlgorithm` factories.

    Usage::

        config = ScenarioConfig(
            positions=...,
            algorithm=doorway_entry("double", module_time=2.0),
        )
    """

    def entry(ctx) -> "NodeFactory":  # noqa: F821
        return lambda node: DoorwayAlgorithm(
            node, kind, module_time=module_time, returns=returns
        )

    return entry
