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
    """Aggregates the state transitions of all node harnesses."""

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
    # Event intake: one subscriber of the run's effect sink
    # ------------------------------------------------------------------
    def note_fx(self, time: float, tag: str, node: int) -> None:
        """One node transition, as the harness reports it to its sink.

        ``hungry`` and ``demote`` open a hungry interval (a demotion's
        is flagged ``after_demotion``), ``enter`` closes it into a
        :class:`ResponseSample`, ``exit`` counts a completed CS, and
        ``crashed`` closes out the node's in-flight measurement state:
        a crashed node is dead, not starving, so leaving it in the
        hungry table would make :meth:`starving` (and the starvation
        watchdog built on it) report it forever.  The crash time is
        kept for run reports.  Stage marks (any other tag) are ignored.
        """
        if tag == "hungry":
            self._node(node).hungry_count += 1
            self._hungry_since[node] = time
            self._after_demotion[node] = False
        elif tag == "enter":
            self._node(node).cs_entries += 1
            hungry_at = self._hungry_since.pop(node, None)
            if hungry_at is not None:
                self.samples.append(
                    ResponseSample(
                        node=node,
                        hungry_at=hungry_at,
                        eating_at=time,
                        after_demotion=self._after_demotion.pop(node, False),
                    )
                )
        elif tag == "exit":
            self._node(node).cs_completions += 1
            # The eating interval is over, so any demotion marker from
            # it is stale; without this, a hungry interval recorded
            # without a matching hungry/demote would inherit the flag.
            self._after_demotion.pop(node, None)
        elif tag == "demote":
            self._node(node).demotions += 1
            self._hungry_since[node] = time
            self._after_demotion[node] = True
        elif tag == "crashed":
            self.crashed[node] = time
            self._hungry_since.pop(node, None)
            self._after_demotion.pop(node, None)

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
