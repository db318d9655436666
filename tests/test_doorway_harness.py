"""Tests for the standalone doorway protocol harness (Figures 1-4)."""

import pytest

from repro.core.doorway_harness import DoorwayAlgorithm, doorway_entry
from repro.errors import ConfigurationError
from repro.harness.experiments import star_positions
from repro.net.geometry import line_positions
from repro.runtime.simulation import ScenarioConfig, Simulation
from repro.sim.clock import TimeBounds

from helpers import FakeNode


def test_kind_validation():
    node = FakeNode(0)
    with pytest.raises(ConfigurationError):
        DoorwayAlgorithm(node, "revolving")
    with pytest.raises(ConfigurationError):
        DoorwayAlgorithm(node, "double-return", returns=0)
    with pytest.raises(ConfigurationError):
        DoorwayAlgorithm(node, "sync", returns=3)


@pytest.mark.parametrize("kind", ["sync", "async", "double", "double-return"])
def test_every_kind_traverses_on_a_line(kind):
    config = ScenarioConfig(
        positions=line_positions(4, spacing=1.0),
        algorithm=doorway_entry(kind, module_time=0.3),
        seed=1,
        think_range=(0.2, 0.6),
        bounds=TimeBounds(nu=0.1, tau=0.1),
    )
    result = Simulation(config).run(until=60.0)
    for node in range(4):
        assert result.metrics.counters[node].cs_entries >= 5, (
            f"{kind}: node {node} barely traversed"
        )


def test_return_path_runs_module_r_times():
    # With R=3 and module_time=1, each traversal takes >= 3 time units.
    config = ScenarioConfig(
        positions=line_positions(2, spacing=5.0),  # isolated nodes
        algorithm=doorway_entry("double-return", module_time=1.0, returns=3),
        seed=1,
        think_range=(0.5, 0.5),
        bounds=TimeBounds(nu=0.1, tau=0.1),
    )
    result = Simulation(config).run(until=50.0)
    times = result.response_times
    assert times
    for rt in times:
        assert rt >= 3.0 - 1e-9


def test_module_time_floor():
    config = ScenarioConfig(
        positions=line_positions(1, spacing=1.0),
        algorithm=doorway_entry("double", module_time=2.0),
        seed=1,
        think_range=(0.5, 0.5),
        bounds=TimeBounds(nu=0.1, tau=0.1),
    )
    result = Simulation(config).run(until=40.0)
    assert min(result.response_times) >= 2.0 - 1e-9


def test_star_positions_hub_degree():
    positions = star_positions(7)
    config = ScenarioConfig(
        positions=positions,
        radio_range=1.0,
        algorithm=doorway_entry("double"),
    )
    sim = Simulation(config)
    assert len(sim.topology.neighbors(0)) == 7


def test_doorway_runs_are_not_checked_for_exclusion():
    # Doorways are not a mutex: on a clique, neighbours sit in the
    # module together.  The protocol says so, and the run must not
    # raise SafetyViolation for it.
    config = ScenarioConfig(
        positions=star_positions(6),
        radio_range=3.0,
        algorithm=doorway_entry("async", module_time=0.5),
        seed=3,
        think_range=(0.0, 0.1),
        bounds=TimeBounds(nu=0.1, tau=0.1),
    )
    result = Simulation(config).run(until=100.0)
    assert result.cs_entries > 0
