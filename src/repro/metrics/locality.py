"""Empirical failure-locality measurement (experiment E3).

Failure locality (Definition 1): nodes farther than ``m`` hops from any
crashed node must keep making progress.  We measure the converse: after
injecting a crash and running long past every healthy node's expected
response time, which hungry nodes starved, and how far are they from
the crash?  The *starvation radius* — the maximum crash distance of any
starved node — is the empirical failure locality; the paper predicts

* Algorithm 2: radius <= 2 (Theorem 25);
* Algorithm 1 / Linial: small (max(log* n, 4) + 2, Theorem 22);
* Algorithm 1 / greedy: up to n (Theorem 16);
* Chandy-Misra: up to n (waiting chains).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.net.topology import DynamicTopology


@dataclass
class LocalityReport:
    """Outcome of one failure-locality probe."""

    crashed: List[int]
    #: node -> hop distance to the nearest crashed node.
    distances: Dict[int, int] = field(default_factory=dict)
    #: hungry nodes that never ate after the crash.
    starved: List[int] = field(default_factory=list)
    #: hungry-after-crash nodes that did eat.
    progressed: List[int] = field(default_factory=list)

    @property
    def starvation_radius(self) -> Optional[int]:
        """Max crash distance among starved nodes (None if none starved)."""
        radii = [self.distances[n] for n in self.starved if n in self.distances]
        return max(radii) if radii else None

    @property
    def progress_radius(self) -> Optional[int]:
        """Min crash distance at which every node progressed."""
        if not self.starved:
            return 0
        radius = self.starvation_radius
        return None if radius is None else radius + 1

    def starved_by_distance(self) -> Dict[int, int]:
        """Histogram: crash distance -> number of starved nodes."""
        histogram: Dict[int, int] = {}
        for node in self.starved:
            dist = self.distances.get(node)
            if dist is not None:
                histogram[dist] = histogram.get(dist, 0) + 1
        return dict(sorted(histogram.items()))

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (string keys, so it round-trips JSON)."""
        return {
            "crashed": sorted(self.crashed),
            "distances": {
                str(node): dist
                for node, dist in sorted(self.distances.items())
            },
            "starved": sorted(self.starved),
            "progressed": sorted(self.progressed),
            "starvation_radius": self.starvation_radius,
            "progress_radius": self.progress_radius,
            "starved_by_distance": {
                str(dist): count
                for dist, count in self.starved_by_distance().items()
            },
        }


def measure_failure_locality(
    topology: DynamicTopology,
    crashed: Iterable[int],
    hungry_after_crash: Iterable[int],
    ate_after_crash: Iterable[int],
) -> LocalityReport:
    """Build a :class:`LocalityReport` from post-run bookkeeping.

    Crash distances are one multi-source ``topology.distances_from``
    query, memoized against the topology's version counter — repeated
    locality probes of the same crashes against an unchanged end-of-run
    graph cost one BFS, not one per call.

    Args:
        topology: the (post-run) communication graph used for distances.
        crashed: crashed node ids.
        hungry_after_crash: nodes that were hungry at some point after
            the (first) crash.
        ate_after_crash: the subset of those that subsequently ate.
    """
    crashed = sorted(set(crashed))
    ate = set(ate_after_crash)
    hungry = sorted(set(hungry_after_crash))
    # A copy: the report owns its map, the topology's memo stays intact.
    distances = dict(
        topology.distances_from(*(c for c in crashed if c in topology))
    )
    report = LocalityReport(crashed=crashed, distances=distances)
    for node in hungry:
        if node in crashed:
            continue
        if node in ate:
            report.progressed.append(node)
        else:
            report.starved.append(node)
    return report
