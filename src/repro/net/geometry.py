"""Planar geometry for the unit-disk radio model."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List


@dataclass(frozen=True, slots=True)
class Point:
    """An immutable 2D position (slotted: city-scale scenarios hold one
    per node, so the per-instance ``__dict__`` is worth dropping)."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to another point."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def towards(self, other: "Point", step: float) -> "Point":
        """Move ``step`` units toward ``other`` (clamping at ``other``)."""
        total = self.distance_to(other)
        if total <= step or total == 0.0:
            return other
        frac = step / total
        return Point(self.x + (other.x - self.x) * frac,
                     self.y + (other.y - self.y) * frac)


def grid_positions(count: int, spacing: float, columns: int = 0) -> List[Point]:
    """Lay out ``count`` points on a grid with the given spacing.

    With ``columns == 0`` the grid is (near-)square.  Handy for building
    topologies with a known maximum degree.
    """
    if columns <= 0:
        columns = max(1, math.ceil(math.sqrt(count)))
    return [
        Point((i % columns) * spacing, (i // columns) * spacing)
        for i in range(count)
    ]


def line_positions(count: int, spacing: float) -> List[Point]:
    """Lay out ``count`` points on a line (a path graph under unit disk)."""
    return [Point(i * spacing, 0.0) for i in range(count)]


def ring_positions(count: int, radius: float) -> List[Point]:
    """Lay out ``count`` points evenly on a circle."""
    return [
        Point(radius * math.cos(2 * math.pi * i / count),
              radius * math.sin(2 * math.pi * i / count))
        for i in range(count)
    ]


def random_positions(count: int, width: float, height: float, rng) -> List[Point]:
    """Uniformly random points in a ``width x height`` rectangle."""
    return [Point(rng.uniform(0, width), rng.uniform(0, height))
            for _ in range(count)]
