"""Tests for the Raymond token-mutex baseline (global exclusion)."""

import pytest

from repro.baselines.token_mutex import RaymondToken, spanning_tree
from repro.errors import ProtocolError
from repro.net.geometry import Point, grid_positions, line_positions
from repro.net.topology import DynamicTopology
from repro.runtime.simulation import ScenarioConfig, Simulation

from helpers import track_eaters


def build_topology(positions, radio=1.0):
    topo = DynamicTopology(radio_range=radio)
    for i, p in enumerate(positions):
        topo.add_node(i, p)
    return topo


def test_spanning_tree_single_component():
    topo = build_topology(line_positions(5, 1.0))
    parents = spanning_tree(topo)
    assert parents[0] is None  # smallest id is the root
    # Every other node reaches the root via parent pointers.
    for node in range(1, 5):
        hops, current = 0, node
        while parents[current] is not None:
            current = parents[current]
            hops += 1
            assert hops <= 5
        assert current == 0
    # Parents are actual neighbors (tree edges exist in the graph).
    for node, parent in parents.items():
        if parent is not None:
            assert topo.has_link(node, parent)


def test_spanning_tree_multiple_components():
    positions = list(line_positions(3, 1.0)) + [Point(50, 50), Point(51, 50)]
    topo = build_topology(positions)
    parents = spanning_tree(topo)
    assert parents[0] is None
    assert parents[3] is None  # second component's root
    assert parents[4] == 3


def test_token_run_makes_progress_and_serializes():
    config = ScenarioConfig(
        positions=grid_positions(9, 1.0),
        radio_range=1.2,
        algorithm="token-mutex",
        seed=3,
        think_range=(0.2, 1.0),
    )
    sim = Simulation(config)
    eaters = track_eaters(sim)
    result = sim.run(until=200.0)
    assert result.starved == []
    for node in range(9):
        assert result.metrics.counters[node].cs_entries >= 3
    # GLOBAL exclusion: never two simultaneous eaters, anywhere.
    assert max(eaters) == 1


def test_two_components_hold_two_tokens():
    positions = list(line_positions(3, 1.0)) + [
        Point(50.0 + i, 0.0) for i in range(3)
    ]
    config = ScenarioConfig(
        positions=positions,
        algorithm="token-mutex",
        seed=4,
        think_range=(0.1, 0.4),
    )
    sim = Simulation(config)
    eaters = track_eaters(sim)
    result = sim.run(until=100.0)
    for node in range(6):
        assert result.metrics.counters[node].cs_entries >= 3
    # Separate components CAN eat concurrently (one token each).
    assert max(eaters) == 2


def test_global_serialization_costs_throughput():
    def entries(algorithm):
        config = ScenarioConfig(
            positions=line_positions(12, 1.0),
            algorithm=algorithm,
            seed=5,
            think_range=(0.1, 0.5),
        )
        return Simulation(config).run(until=100.0).cs_entries

    assert entries("alg2") > 2 * entries("token-mutex")


def test_topology_change_rejected():
    from helpers import FakeNode

    node = FakeNode(1, (0,))
    algorithm = RaymondToken(node, {0: None, 1: 0})
    with pytest.raises(ProtocolError):
        algorithm.on_link_up(5, moving=False)
    with pytest.raises(ProtocolError):
        algorithm.on_link_down(0)
