"""Tests for power-law fitting and scenario serialization."""

import dataclasses
import json

import pytest

from repro.analysis.scaling import fit_power_law
from repro.errors import ConfigurationError
from repro.harness.config_io import config_from_dict, config_to_dict
from repro.net.geometry import Point, line_positions
from repro.runtime.simulation import ScenarioConfig, Simulation
from repro.sim.clock import TimeBounds


# ----------------------------------------------------------------------
# Power-law fitting
# ----------------------------------------------------------------------


def test_fit_recovers_exact_power_law():
    xs = [1, 2, 4, 8, 16]
    ys = [3 * x ** 2 for x in xs]
    fit = fit_power_law(xs, ys)
    assert fit.exponent == pytest.approx(2.0)
    assert fit.coefficient == pytest.approx(3.0)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_linear_vs_constant():
    xs = [2, 4, 8, 16]
    assert fit_power_law(xs, xs).exponent == pytest.approx(1.0)
    assert fit_power_law(xs, [5, 5, 5, 5]).exponent == pytest.approx(0.0)


def test_fit_rejects_degenerate_input():
    with pytest.raises(ValueError):
        fit_power_law([1], [1])
    with pytest.raises(ValueError):
        fit_power_law([1, 2], [0, 5])  # non-positive y dropped -> 1 point
    with pytest.raises(ValueError):
        fit_power_law([3, 3], [1, 2])  # identical x
    with pytest.raises(ValueError):
        fit_power_law([1, 2], [1, 2, 3])


def test_fit_str_rendering():
    fit = fit_power_law([1, 2, 4], [2, 4, 8])
    assert "x^1.00" in str(fit)


# ----------------------------------------------------------------------
# Config serialization
# ----------------------------------------------------------------------


def sample_config():
    return ScenarioConfig(
        positions=line_positions(4, spacing=1.0),
        radio_range=1.5,
        algorithm="alg1-greedy",
        seed=9,
        bounds=TimeBounds(nu=0.5, tau=2.0, min_delay_fraction=1.0),
        think_range=(0.5, 1.5),
        watchdog=12.0,
        crashes=[(10.0, 2)],
        initial_colors={0: 0, 1: 1, 2: 0, 3: 1},
        scripted_hunger={0: [1.0, 5.0]},
        delta_override=3,
    )


def test_round_trip_preserves_fields():
    config = sample_config()
    rebuilt = config_from_dict(config_to_dict(config))
    assert rebuilt.positions == config.positions
    assert rebuilt.algorithm == config.algorithm
    assert rebuilt.seed == config.seed
    assert rebuilt.bounds == config.bounds
    assert rebuilt.think_range == config.think_range
    assert rebuilt.watchdog == config.watchdog
    assert rebuilt.crashes == config.crashes
    assert rebuilt.initial_colors == config.initial_colors
    assert rebuilt.scripted_hunger == config.scripted_hunger
    assert rebuilt.delta_override == config.delta_override


def test_config_to_dict_serializes_every_declarative_field():
    # scenario_key hashes config_to_dict, so a field it leaves out would
    # let two different scenarios share a cache key.
    config = ScenarioConfig(
        positions=line_positions(3, spacing=1.0),
        scripted_hunger={0: [1.0]},
        scripted_eating={0: [0.5]},
        link_script=[[2.0, "down", 0, 1, -1]],
        initial_colors={0: 0, 1: 1, 2: 0},
    )
    fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
    assert set(config_to_dict(config)) == fields - {"mobility_factory"}


def test_round_trip_through_json():
    config = sample_config()
    rebuilt = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
    assert rebuilt.positions == config.positions
    assert rebuilt.crashes == config.crashes


def test_rebuilt_config_actually_runs_identically():
    config = ScenarioConfig(
        positions=line_positions(5, spacing=1.0),
        algorithm="alg2",
        seed=4,
        think_range=(0.5, 2.0),
    )
    rebuilt = config_from_dict(config_to_dict(config))
    a = Simulation(config).run(until=60.0)
    b = Simulation(rebuilt).run(until=60.0)
    assert a.cs_entries == b.cs_entries
    assert a.messages_sent == b.messages_sent


def test_mobility_block_attaches_models():
    data = config_to_dict(
        ScenarioConfig(positions=[Point(0, 0), Point(1, 0)], algorithm="alg2")
    )
    data["mobility"] = {
        "kind": "waypoint",
        "nodes": [0],
        "params": {"width": 4.0, "height": 4.0},
    }
    config = config_from_dict(data)
    assert config.mobility_factory is not None
    assert config.mobility_factory(0) is not None
    assert config.mobility_factory(1) is None


def test_unknown_mobility_kind_rejected():
    data = config_to_dict(
        ScenarioConfig(positions=[Point(0, 0)], algorithm="alg2")
    )
    data["mobility"] = {"kind": "jetpack", "nodes": [0], "params": {}}
    with pytest.raises(ConfigurationError):
        config_from_dict(data)


def test_callable_algorithm_does_not_serialize():
    config = ScenarioConfig(
        positions=[Point(0, 0)], algorithm=lambda ctx: None
    )
    with pytest.raises(ConfigurationError):
        config_to_dict(config)


def test_bad_positions_rejected():
    with pytest.raises(ConfigurationError):
        config_from_dict({"positions": "nope"})
