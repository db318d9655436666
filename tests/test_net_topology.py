"""Unit tests for the dynamic unit-disk topology."""

import pytest

from repro.errors import TopologyError
from repro.net.geometry import (
    Point,
    grid_positions,
    line_positions,
    ring_positions,
)
from repro.net.topology import DynamicTopology, link_key


def build_line(count, spacing=1.0, radio=1.0):
    topo = DynamicTopology(radio_range=radio)
    for i, pos in enumerate(line_positions(count, spacing)):
        topo.add_node(i, pos)
    return topo


def test_add_node_creates_links_within_range():
    topo = DynamicTopology(radio_range=1.0)
    topo.add_node(0, Point(0, 0))
    diff = topo.add_node(1, Point(0.5, 0))
    assert diff.added == [(0, 1)]
    diff = topo.add_node(2, Point(5, 5))
    assert diff.added == []
    assert topo.neighbors(0) == frozenset({1})
    assert topo.neighbors(2) == frozenset()


def test_duplicate_node_rejected():
    topo = DynamicTopology()
    topo.add_node(0, Point(0, 0))
    with pytest.raises(TopologyError):
        topo.add_node(0, Point(1, 1))


def test_set_position_produces_symmetric_diff():
    topo = build_line(3)  # 0-1-2 path
    assert topo.has_link(0, 1) and topo.has_link(1, 2)
    assert not topo.has_link(0, 2)
    # Move node 2 next to node 0: loses link to 1, gains link to 0.
    diff = topo.set_position(2, Point(0.1, 0.5))
    assert (0, 2) in diff.added
    assert (1, 2) in diff.removed
    assert topo.has_link(0, 2) and topo.has_link(2, 0)
    assert not topo.has_link(1, 2)


def test_degree_and_max_degree():
    topo = DynamicTopology(radio_range=1.5)
    topo.add_node(0, Point(0, 0))
    topo.add_node(1, Point(1, 0))
    topo.add_node(2, Point(0, 1))
    topo.add_node(3, Point(10, 10))
    assert len(topo.neighbors(0)) == 2
    assert topo.max_degree() == 2
    assert DynamicTopology().max_degree() == 0


def test_components_and_connectivity():
    topo = build_line(4)
    assert len(topo.components()) == 1
    topo.set_position(3, Point(50, 50))
    assert len(topo.components()) == 2
    comps = topo.components()
    assert {frozenset(c) for c in comps} == {frozenset({0, 1, 2}), frozenset({3})}


def test_links_listing_is_canonical_and_sorted():
    topo = build_line(4)
    assert topo.links() == [(0, 1), (1, 2), (2, 3)]
    # Memoized per version: unchanged graph, same list; any link or
    # membership change rebuilds it.
    assert topo.links() is topo.links()
    topo.set_position(3, Point(50, 50))
    assert topo.links() == [(0, 1), (1, 2)]
    topo.force_link(0, 3, True)
    assert topo.links() == [(0, 1), (0, 3), (1, 2)]
    topo.add_node(4, Point(50, 51))
    assert topo.links() == [(0, 1), (0, 3), (1, 2), (3, 4)]


def test_link_key_canonical():
    assert link_key(5, 2) == (2, 5)
    assert link_key(2, 5) == (2, 5)


def test_unknown_node_queries_raise():
    topo = DynamicTopology()
    with pytest.raises(TopologyError):
        topo.neighbors(0)
    with pytest.raises(TopologyError):
        topo.position(9)


def test_invalid_radio_range():
    with pytest.raises(TopologyError):
        DynamicTopology(radio_range=0)


def test_geometry_helpers():
    assert Point(0, 0).distance_to(Point(3, 4)) == 5.0
    assert Point(0, 0).towards(Point(10, 0), 3).x == pytest.approx(3)
    # Overshooting clamps at destination.
    assert Point(0, 0).towards(Point(1, 0), 5) == Point(1, 0)
    assert len(grid_positions(9, 1.0)) == 9
    assert len(ring_positions(6, 2.0)) == 6
