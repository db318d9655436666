"""The local mutual exclusion safety monitor.

Checks the paper's safety condition — no two *current neighbors*
simultaneously in the critical section — at every point it could newly
become violated: when a node starts eating, and when a link forms
between two nodes (the mobile-setting hazard the eating->hungry
demotion exists to close).

By default a violation raises :class:`~repro.errors.SafetyViolation`
immediately (every test and benchmark runs under this); a non-strict
mode records violations instead, used by tests that *expect* a broken
protocol variant to fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.states import NodeState
from repro.errors import SafetyViolation
from repro.net.topology import DynamicTopology


@dataclass(frozen=True)
class Violation:
    """A recorded (non-strict mode) safety violation."""

    time: float
    node_a: int
    node_b: int


class SafetyMonitor:
    """Watches all node harnesses for mutual exclusion violations."""

    def __init__(
        self,
        topology: DynamicTopology,
        harnesses: Dict[int, "NodeHarness"],  # noqa: F821
        strict: bool = True,
    ) -> None:
        self._topology = topology
        self._harnesses = harnesses
        self.strict = strict
        self.violations: List[Violation] = []
        self.checks_performed = 0

    # ------------------------------------------------------------------
    def _is_eating(self, node_id: int) -> bool:
        harness = self._harnesses.get(node_id)
        return harness is not None and harness.state is NodeState.EATING

    def _flag(self, time: float, a: int, b: int) -> None:
        if self.strict:
            raise SafetyViolation(time, a, b)
        self.violations.append(Violation(time, a, b))

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def note_eating_start(self, node_id: int, time: float) -> None:
        """A node entered the CS: none of its neighbors may be eating."""
        self.checks_performed += 1
        for peer in sorted(self._topology.neighbors(node_id)):
            if self._is_eating(peer):
                self._flag(time, node_id, peer)

    def on_link_event(self, kind: str, a: int, b: int, time: float) -> None:
        """Link-layer observer: a new link must not join two eaters.

        Called after both endpoints processed their indications, i.e.
        after the moving endpoint had its chance to demote itself.
        """
        if kind != "up":
            return
        self.checks_performed += 1
        if self._is_eating(a) and self._is_eating(b):
            self._flag(time, a, b)
