"""Tests for fairness metrics."""

import pytest

from repro.metrics.fairness import jain_index
from repro.net.geometry import line_positions
from repro.runtime.simulation import ScenarioConfig, Simulation


def test_jain_index_bounds():
    assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)
    assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)
    assert jain_index([0, 0]) == 1.0
    assert 0.25 < jain_index([3, 1, 1, 1]) < 1.0


def test_jain_index_validation():
    with pytest.raises(ValueError):
        jain_index([])
    with pytest.raises(ValueError):
        jain_index([1, -1])


def test_real_run_is_reasonably_fair():
    config = ScenarioConfig(
        positions=line_positions(8, spacing=1.0),
        algorithm="alg2",
        seed=3,
        think_range=(0.2, 1.0),
    )
    sim = Simulation(config)
    sim.run(until=300.0)
    topo = sim.topology
    nodes = topo.nodes()
    counts = [
        sim.metrics.counters[n].cs_entries if n in sim.metrics.counters else 0
        for n in nodes
    ]
    # A node with k neighbours can hold the CS ~1/(k+1) of the time, so
    # compare entry counts normalised by that contention share.
    shares = [c * (len(topo.neighbors(n)) + 1) for n, c in zip(nodes, counts)]
    assert jain_index(shares) > 0.85
    assert min(counts) > 0
