"""Spatial arena decomposition for the sharded engine.

The paper's model gives the synchronization bound a conservative
parallel simulator needs for free: a message takes at least
``TimeBounds.min_message_delay`` per hop, and nodes move at bounded
speed.  An event in one spatial region therefore cannot influence
another region sooner than one minimum hop delay, so shards may advance
in lock-step windows of that width and exchange mail only at window
barriers (:func:`conservative_lookahead`).

The arena is split into stripes along its longer axis with
equal-population cuts (:func:`build_partition`).  Stripes only assign
*ownership*; link coverage near boundaries is handled by ghost/halo
entries whose reach is :func:`halo_width` — the radio range plus the
largest distance two nodes can close during one window.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError
from repro.net.geometry import Point
from repro.sim.clock import TimeBounds

#: Additive slack on the halo reach so a pair sitting exactly at the
#: cutoff distance (common with grid layouts) is never excluded by
#: floating-point rounding.
HALO_EPSILON = 1e-6


@dataclass(frozen=True)
class Partition:
    """Stripes along one axis: ``cuts`` are the interior boundaries."""

    #: 0 = stripes perpendicular to x, 1 = perpendicular to y.
    axis: int
    #: Ascending interior cut coordinates; ``len(cuts) + 1`` stripes.
    cuts: Tuple[float, ...]

    def coordinate(self, point: Point) -> float:
        """The point's coordinate along the partition axis."""
        return point.x if self.axis == 0 else point.y

    def shard_of(self, point: Point) -> int:
        """Index of the stripe containing ``point``."""
        return bisect.bisect_right(self.cuts, self.coordinate(point))


def build_partition(positions: Sequence[Point], num_shards: int) -> Partition:
    """Equal-population stripes along the arena's longer axis.

    Cuts sit midway between the boundary nodes of adjacent stripes.
    Heavily duplicated coordinates can leave stripes unbalanced (every
    node on a cut coordinate lands in the lower stripe); that costs
    balance, never correctness.
    """
    if not positions:
        raise ConfigurationError("cannot partition an empty arena")
    if not 1 <= num_shards <= len(positions):
        raise ConfigurationError(
            f"num_shards must be in [1, {len(positions)}], got {num_shards}"
        )
    xs = [p.x for p in positions]
    ys = [p.y for p in positions]
    axis = 0 if (max(xs) - min(xs)) >= (max(ys) - min(ys)) else 1
    coords = sorted(xs if axis == 0 else ys)
    n = len(coords)
    cuts: List[float] = []
    for k in range(1, num_shards):
        idx = (k * n) // num_shards
        cut = (coords[idx - 1] + coords[idx]) / 2.0
        if cuts and cut <= cuts[-1]:
            cut = cuts[-1]
        cuts.append(cut)
    return Partition(axis=axis, cuts=tuple(cuts))


def conservative_lookahead(
    bounds: TimeBounds,
    radio_range: Optional[float] = None,
    max_speed: float = 0.0,
) -> float:
    """Window width L every shard may safely run ahead of its peers.

    A cross-shard message sent at any ``s`` inside window
    ``(t, t + L]`` arrives no earlier than ``s + min_message_delay``,
    which is strictly later than ``t + L`` whenever
    ``L <= min_message_delay`` — so mail collected at the barrier and
    injected into the next window can never violate causality.

    With mobility, L is additionally capped at
    ``radio_range / (2 * max_speed)`` so a ghost position refreshed at
    the barrier is never staler than half a radio range.
    """
    lookahead = bounds.min_message_delay
    if lookahead <= 0:
        raise ConfigurationError(
            f"need a positive minimum message delay for lookahead, "
            f"got {lookahead} (nu={bounds.nu}, "
            f"fraction={bounds.min_delay_fraction})"
        )
    if max_speed > 0 and radio_range is not None:
        lookahead = min(lookahead, radio_range / (2.0 * max_speed))
    return lookahead


def halo_width(radio_range: float, max_speed: float, lookahead: float) -> float:
    """How far a shard must see past its owned nodes.

    Ghost candidacy is decided from true positions at the barrier; both
    endpoints of a potential link can then close up to ``max_speed *
    lookahead`` each during the next window, so any pair that could come
    within radio range before the next barrier is within
    ``radio_range + 2 * max_speed * lookahead`` now.
    """
    return radio_range + 2.0 * max_speed * lookahead + HALO_EPSILON


@dataclass
class ShardContext:
    """What one shard's :class:`~repro.runtime.simulation.Simulation`
    needs to know about the decomposition it lives in.

    ``local_nodes`` are owned here (full harness, workload, mobility);
    ``ghost_nodes`` are topology-only mirrors of boundary-adjacent
    remote nodes, grown as the coordinator discovers new halo pairs.
    ``outbox`` collects ``(src, dst, message, arrival)`` for messages
    addressed to ghosts; the coordinator drains it at each barrier.
    """

    shard_id: int
    num_shards: int
    local_nodes: FrozenSet[int]
    ghost_nodes: Set[int] = field(default_factory=set)
    outbox: List[Tuple[int, int, object, float]] = field(default_factory=list)
