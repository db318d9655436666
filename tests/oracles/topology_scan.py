"""The all-pairs scan: the topology index's equivalence oracle.

:class:`~repro.net.topology.DynamicTopology` finds the nodes a move can
link or unlink through a spatial-hash grid, visiting them in insertion
rank.  The plainest way to find them is to look at every node, in the
same order.  This module is that scan, and nothing else: positions,
adjacency, the degree histogram and the diff bookkeeping are the
production code's, so any difference in links or ``LinkDiff`` order
is the grid's.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.net.geometry import Point
from repro.net.topology import DynamicTopology


class ScanTopology(DynamicTopology):
    """A :class:`DynamicTopology` that examines every node per update."""

    def _scan_candidates(self, node_id: int, position: Point,
                         extra: Iterable[int] = ()) -> List[int]:
        # ``_rank`` iterates in insertion order, which is rank order.
        return [other for other in self._rank if other != node_id]
