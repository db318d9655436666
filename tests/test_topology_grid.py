"""Equivalence of the grid-indexed topology and the brute-force scan.

The spatial-hash index is a pure acceleration: for any sequence of
add/move operations it must produce the same links, the same
neighbor sets and — bit for bit — the same ``LinkDiff`` lists (same
entries, same order) as an all-pairs scan (``ScanTopology``, the
oracle in ``tests/oracles/topology_scan.py``).  These tests mirror
randomized operation sequences into both and compare after every
step, across several radio ranges and with nodes placed exactly at
the range boundary.
"""

import random

import pytest

from oracles.topology_scan import ScanTopology
from repro.net.geometry import Point
from repro.net.topology import DynamicTopology


def _assert_same_state(grid: DynamicTopology, brute: DynamicTopology) -> None:
    assert grid.nodes() == brute.nodes()
    assert grid.links() == brute.links()
    assert grid.max_degree() == brute.max_degree()
    for node in grid.nodes():
        assert grid.neighbors(node) == brute.neighbors(node)


def _mirror(grid, brute, op, *args):
    diff_grid = getattr(grid, op)(*args)
    diff_brute = getattr(brute, op)(*args)
    assert diff_grid.added == diff_brute.added, f"{op}{args}: added differ"
    assert diff_grid.removed == diff_brute.removed, f"{op}{args}: removed differ"
    return diff_grid


@pytest.mark.parametrize("radio", [0.3, 1.0, 1.5, 2.5])
def test_random_churn_matches_brute_force(radio):
    """≥200 random add/move ops agree step-by-step per range."""
    rng = random.Random(hash(("churn", radio)) & 0xFFFFFFFF)
    grid = DynamicTopology(radio_range=radio)
    brute = ScanTopology(radio_range=radio)
    arena = 6.0 * radio
    next_id = 0
    live = []

    def random_point():
        return Point(rng.uniform(-arena, arena), rng.uniform(-arena, arena))

    for step in range(220):
        roll = rng.random()
        if not live or roll < 0.35:
            node = next_id
            next_id += 1
            _mirror(grid, brute, "add_node", node, random_point())
            live.append(node)
        else:
            node = rng.choice(live)
            if rng.random() < 0.5:
                # Local jitter — the common mobility pattern.
                base = grid.position(node)
                target = Point(
                    base.x + rng.uniform(-radio, radio),
                    base.y + rng.uniform(-radio, radio),
                )
            else:
                target = random_point()
            _mirror(grid, brute, "set_position", node, target)
        _assert_same_state(grid, brute)


@pytest.mark.parametrize("radio", [1.0, 0.1, 2.0])
def test_exact_range_boundary_is_a_link_in_both(radio):
    """Distance == radio_range is inclusive under both implementations."""
    grid = DynamicTopology(radio_range=radio)
    brute = ScanTopology(radio_range=radio)
    _mirror(grid, brute, "add_node", 0, Point(0.0, 0.0))
    # Axis-aligned at exactly the range, and a 3-4-5 triangle scaled so
    # the hypotenuse is exactly the range.
    _mirror(grid, brute, "add_node", 1, Point(radio, 0.0))
    _mirror(grid, brute, "add_node", 2, Point(0.0, -radio))
    _mirror(grid, brute, "add_node", 3, Point(0.6 * radio, 0.8 * radio))
    _assert_same_state(grid, brute)
    for other in (1, 2, 3):
        if grid.position(other).distance_to(Point(0.0, 0.0)) <= radio:
            assert grid.has_link(0, other)
    # Slide node 1 along the boundary circle and just beyond it.
    _mirror(grid, brute, "set_position", 1, Point(0.0, radio))
    _assert_same_state(grid, brute)
    _mirror(grid, brute, "set_position", 1, Point(0.0, radio * 1.0000001))
    _assert_same_state(grid, brute)
    assert not grid.has_link(0, 1)


def test_moves_across_many_cells_at_once():
    """A long jump relinks against a far-away cluster correctly."""
    grid = DynamicTopology(radio_range=1.0)
    brute = ScanTopology(radio_range=1.0)
    for i in range(5):
        _mirror(grid, brute, "add_node", i, Point(0.2 * i, 0.0))
    for i in range(5, 10):
        _mirror(grid, brute, "add_node", i, Point(50.0 + 0.2 * i, 0.0))
    _assert_same_state(grid, brute)
    _mirror(grid, brute, "set_position", 0, Point(51.0, 0.0))
    _assert_same_state(grid, brute)
    assert grid.neighbors(0) == frozenset(range(5, 10))
    _mirror(grid, brute, "set_position", 0, Point(0.0, 0.0))
    _assert_same_state(grid, brute)


def test_negative_coordinates():
    """Cells behave around the origin."""
    grid = DynamicTopology(radio_range=1.0)
    brute = ScanTopology(radio_range=1.0)
    _mirror(grid, brute, "add_node", 0, Point(-0.5, -0.5))
    _mirror(grid, brute, "add_node", 1, Point(0.4, 0.3))
    _mirror(grid, brute, "add_node", 2, Point(-1.4, -0.6))
    _assert_same_state(grid, brute)
    _mirror(grid, brute, "set_position", 0, Point(-1.5, 0.4))
    _assert_same_state(grid, brute)


def test_grid_bookkeeping_stays_minimal():
    """No stale cells linger after churn (internal sanity check)."""
    topo = DynamicTopology(radio_range=1.0)
    rng = random.Random(9)
    for i in range(30):
        topo.add_node(i, Point(rng.uniform(0, 10), rng.uniform(0, 10)))
    for i in range(30):
        topo.set_position(i, Point(rng.uniform(0, 10), rng.uniform(0, 10)))
    assert all(topo._grid.values())
    bucketed = sorted(n for bucket in topo._grid.values() for n in bucket)
    assert bucketed == list(range(30))
    for node, cell in topo._node_cell.items():
        assert node in topo._grid[cell]


def test_incremental_max_degree_tracks_removals():
    topo = DynamicTopology(radio_range=1.0)
    topo.add_node(0, Point(0.0, 0.0))
    topo.add_node(1, Point(0.5, 0.0))
    topo.add_node(2, Point(0.0, 0.5))
    assert topo.max_degree() == 2
    topo.set_position(2, Point(5.0, 5.0))
    assert topo.max_degree() == 1
    topo.set_position(1, Point(-5.0, 5.0))
    assert topo.max_degree() == 0
