"""The local mutual exclusion safety checker.

Checks the paper's safety condition — no two *current neighbors*
simultaneously in the critical section — at the only two points it
could newly become violated: when a node starts eating (the run's
effect sink calls :meth:`SafetyMonitor.note_eating_start` on each
``enter``), and when a link forms between two nodes (the
mobile-setting hazard the eating->hungry demotion exists to close).

Every simulation carries one.  A violation raises
:class:`~repro.errors.SafetyViolation` at once, unless the run hands
the verdicts elsewhere: an attached
:class:`~repro.explore.monitors.MonitorSuite` takes them over (its
``exclusion`` monitor reports them), and a protocol that is not a
mutex (``LocalMutexAlgorithm.guarantees_exclusion = False``) drops
them.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.core.states import NodeState
from repro.errors import SafetyViolation
from repro.net.topology import DynamicTopology


def raise_violation(time: float, a: int, b: int) -> None:
    """The default verdict: neighbors ``a`` and ``b`` both eat."""
    raise SafetyViolation(time, a, b)


def ignore_violation(time: float, a: int, b: int) -> None:
    """The verdict of a run whose protocol promises no exclusion."""


class SafetyMonitor:
    """Watches all node harnesses for mutual exclusion violations."""

    def __init__(
        self,
        topology: DynamicTopology,
        harnesses: Dict[int, "NodeHarness"],  # noqa: F821
    ) -> None:
        self._topology = topology
        self._harnesses = harnesses
        #: Called as ``flag(time, a, b)`` for each pair of eating
        #: neighbors found; replaced by whoever takes the verdicts over.
        self.flag: Callable[[float, int, int], None] = raise_violation

    def _is_eating(self, node_id: int) -> bool:
        harness = self._harnesses.get(node_id)
        return harness is not None and harness.state is NodeState.EATING

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def note_eating_start(self, node_id: int, time: float) -> None:
        """A node entered the CS: none of its neighbors may be eating."""
        for peer in self._topology.sorted_neighbors(node_id):
            if self._is_eating(peer):
                self.flag(time, node_id, peer)

    def on_link_event(self, kind: str, a: int, b: int, time: float) -> None:
        """Link-layer observer: a new link must not join two eaters.

        Called after both endpoints processed their indications, i.e.
        after the moving endpoint had its chance to demote itself.
        """
        if kind == "up" and self._is_eating(a) and self._is_eating(b):
            self.flag(time, a, b)
