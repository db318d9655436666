"""Per-run measurement of the paper's response-time metric.

Response time (Definition 1): the interval between a node becoming
hungry and subsequently entering its critical section.  A mobility
demotion (eating -> hungry) starts a *new* hungry interval — the
definition's premise is a node that "remains static", so preempted
intervals are accounted separately and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class ResponseSample:
    """One completed hungry -> eating interval."""

    node: int
    hungry_at: float
    eating_at: float
    #: True when this interval began with a demotion rather than an
    #: application request.
    after_demotion: bool = False

    @property
    def response_time(self) -> float:
        return self.eating_at - self.hungry_at


@dataclass
class NodeCounters:
    """Lifetime counters for one node."""

    hungry_count: int = 0
    cs_entries: int = 0
    cs_completions: int = 0
    demotions: int = 0


class MetricsCollector:
    """Aggregates state-transition events from all node harnesses."""

    def __init__(self) -> None:
        self.samples: List[ResponseSample] = []
        self.counters: Dict[int, NodeCounters] = {}
        #: node id -> crash time, for nodes that died during the run.
        self.crashed: Dict[int, float] = {}
        self._hungry_since: Dict[int, float] = {}
        self._after_demotion: Dict[int, bool] = {}

    def _node(self, node_id: int) -> NodeCounters:
        counters = self.counters.get(node_id)
        if counters is None:
            counters = NodeCounters()
            self.counters[node_id] = counters
        return counters

    # ------------------------------------------------------------------
    # Event intake (called by NodeHarness)
    # ------------------------------------------------------------------
    def note_hungry(self, node_id: int, time: float) -> None:
        self._node(node_id).hungry_count += 1
        self._hungry_since[node_id] = time
        self._after_demotion[node_id] = False

    def note_demotion(self, node_id: int, time: float) -> None:
        self._node(node_id).demotions += 1
        self._hungry_since[node_id] = time
        self._after_demotion[node_id] = True

    def note_eat_start(self, node_id: int, time: float) -> None:
        counters = self._node(node_id)
        counters.cs_entries += 1
        hungry_at = self._hungry_since.pop(node_id, None)
        if hungry_at is not None:
            self.samples.append(
                ResponseSample(
                    node=node_id,
                    hungry_at=hungry_at,
                    eating_at=time,
                    after_demotion=self._after_demotion.pop(node_id, False),
                )
            )

    def note_think(self, node_id: int, time: float) -> None:
        self._node(node_id).cs_completions += 1
        # The eating interval is over, so any demotion marker from it is
        # stale; without this, a hungry interval recorded without a
        # matching note_hungry/note_demotion would inherit the old flag.
        self._after_demotion.pop(node_id, None)

    def note_crash(self, node_id: int, time: float) -> None:
        """A node crashed: close out its in-flight measurement state.

        A crashed node is dead, not starving — leaving it in the hungry
        table would make :meth:`starving` (and the starvation watchdog
        built on it) report it forever.  The crash time is retained for
        run reports.
        """
        self.crashed[node_id] = time
        self._hungry_since.pop(node_id, None)
        self._after_demotion.pop(node_id, None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def response_times(self, node_id: Optional[int] = None) -> List[float]:
        """All completed response times (optionally for one node)."""
        return [
            s.response_time
            for s in self.samples
            if node_id is None or s.node == node_id
        ]

    def total_cs_entries(self) -> int:
        return sum(c.cs_entries for c in self.counters.values())

    def hungry_nodes(self) -> Dict[int, float]:
        """Nodes currently hungry, with the time they became so."""
        return dict(self._hungry_since)

    def hungry_since(self, node_id: int) -> Optional[float]:
        """When the node's current hungry interval began (None if not hungry)."""
        return self._hungry_since.get(node_id)

    def starving(self, now: float, threshold: float) -> List[int]:
        """Nodes hungry for longer than ``threshold`` as of ``now``."""
        return sorted(
            node
            for node, since in self._hungry_since.items()
            if now - since > threshold
        )

    def max_response_time(self) -> Optional[float]:
        times = self.response_times()
        return max(times) if times else None

    def mean_response_time(self) -> Optional[float]:
        times = self.response_times()
        return sum(times) / len(times) if times else None
